"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines;
every tolerance is pinned here, none deferred to calibration elsewhere.
"""

import json
import math
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import scipy.linalg as la

from andlab.covering import box_covering_structure, standard_covering_annulus
from andlab.discretize import (Ensemble, GridSpec, PeriodicField, assemble_hamiltonian,
                               empty_configuration, unit_box_mask)
from andlab.experiments import load_config, run_experiment
from andlab.hs import (GaussianBump, QuadratureSpec, QuasiAnalyticExtension,
                       hs_reconstruct)
from andlab.ids import free_ids_weyl, ids_counts, ids_curve
from andlab.model import (AnnulusSpec, Atoms, Bernoulli, BoxSpec, Configuration,
                          SiteProfile, Uniform01, lattice_sites,
                          sample_configuration)
from andlab.msa import (GAMMA_CRITICAL, MsaParams, initial_scale_values,
                        n_hat, reduced_spectrum, restrict_configuration)
from andlab.observables import w_caps, w_profile
from andlab.percolation import bad_cluster
from andlab.qucp import (carleman_constant, carleman_phi,
                         periodic_projection_gap, periodized_ball_indicator,
                         qucp_verify)
from andlab.rng import derive_key, uniforms
from andlab.spectral import (ResolventFactorization, eigs_window,
                             lowest_eigenvalue)

from conftest import assemble, ensemble, make_box
from test_discretize import free_dirichlet_eigenvalues
from test_percolation import random_graph, union_find_oracle

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def report(num, name, ok, detail=""):
    print(f"\nACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


# ---------------------------------------------------------------------------
# 1. covering identities
# ---------------------------------------------------------------------------

def _check_box_structure_exact(box, ell, u_points):
    """Exact (rational) verification of the covering identities on one box.

    The d-dimensional identities factor through the axes: per axis the
    centers are flush with the box faces and consecutive boxes overlap, which
    is precisely the union identity; counts and the separation bound are
    rational comparisons.
    """
    struct = box_covering_structure(box, ell)
    L, l, a, n = Fraction(float(box.side)), Fraction(float(ell)), struct.alpha, \
        struct.steps
    spacing = a * l
    # alpha window
    assert Fraction(3, 5) <= a <= Fraction(4, 5)
    # flush faces and overlap: the union identity (nestingproperty)
    assert spacing * n == (L - l) / 2
    assert spacing < l
    # strictness of the center lattice: next step leaves the box
    assert spacing * (n + 1) >= L / 2
    # counts (number)
    per_axis = 2 * n + 1
    assert per_axis == (L - l) / spacing + 1
    assert (L / l) ** 1 <= per_axis <= (2 * L / l)
    # separation (freeguarantee): distinct lattice points are >= spacing
    # apart per axis and spacing >= 3l/5 = l/2 + l/10 keeps the open
    # (l/5)-box at one center disjoint from the open l-box at any other
    assert spacing >= Fraction(3, 5) * l
    # boundary capture (bdrycover) at random points: the nearest feasible
    # center works
    for uy in u_points:
        for axis in range(box.dimension):
            c = Fraction(float(box.center[axis]))
            y = c + (uy - Fraction(1, 2)) * L
            k = round((y - c) / spacing)
            k = max(-n, min(n, k))
            r = c + spacing * k
            lo = max(y - l / 10, c - L / 2)
            hi = min(y + l / 10, c + L / 2)
            assert r - l / 2 <= lo and hi <= r + l / 2
    # nesting: sub-boxes of side (2 n' a + 1) l centered at lattice points are
    # themselves flush-covered (same algebra at a smaller n)
    n_sub = 1 + (n % 2)
    sub_side = (2 * n_sub * a + 1) * l
    assert spacing * n_sub == (sub_side - l) / 2


def test_criterion_01_covering_identities():
    t0 = time.monotonic()
    n_box, n_ann = 10_000, 300
    key = derive_key(0xACCE, 1)
    u = uniforms(key, np.arange(8 * n_box, dtype=np.uint64)).reshape(-1, 8)

    def snap(x):
        # randomized geometry on the 1/64 grid: keeps every comparison exact
        # while the rational arithmetic stays fast
        return math.floor(x * 64.0) / 64.0

    for i in range(n_box):
        d = 1 + i % 3
        L = snap(10.0 + 290.0 * u[i, 0])
        ell = snap((L / 6.0) * (0.25 + 0.75 * u[i, 1]))
        x0 = tuple(snap(30.0 * (u[i, 2 + a] - 0.5)) for a in range(d))
        box = BoxSpec(d, x0, L)
        u_pts = [Fraction(float(u[i, 5])).limit_denominator(64),
                 Fraction(float(u[i, 6])).limit_denominator(64)]
        _check_box_structure_exact(box, ell, u_pts)
    # annulus variants: coverage, boundary capture, count bound
    ua = uniforms(derive_key(0xACCE, 2), np.arange(8 * n_ann, dtype=np.uint64))
    ua = ua.reshape(-1, 8)
    rng = np.random.default_rng(3)
    for j in range(n_ann):
        if j % 15 == 0:
            # three-dimensional annuli are kept geometrically small: the
            # offset set alone carries 5^3 - 3^3 = 98 lattices
            d = 3
            L2 = 22.0 + 6.0 * ua[j, 0]
            L1 = 0.2 * L2
            ell = (L2 - L1) / 7.0 * (0.93 + 0.05 * ua[j, 2])
        else:
            d = 1 + j % 2
            L2 = 25.0 + 60.0 * ua[j, 0]
            L1 = L2 * (0.2 + 0.35 * ua[j, 1])
            ell = (L2 - L1) / 7.0 * (0.5 + 0.45 * ua[j, 2])
        x0 = tuple(4.0 * (ua[j, 3 + a] - 0.5) for a in range(d))
        ann = AnnulusSpec(d, x0, L1, L2)
        cov = standard_covering_annulus(ann, ell, max_centers=700_000)
        assert len(cov) <= (10.0 * L2 / ell) ** d                      # (number22)
        pts = rng.uniform(-L2 / 2 * 0.999, L2 / 2 * 0.999, size=(40, d)) \
            + np.asarray(x0)
        dist = np.max(np.abs(pts - np.asarray(x0)), axis=1)
        pts = pts[(dist > L1 / 2 * 1.001) & (dist < L2 / 2 * 0.999)]
        if len(pts):
            # sup-distance of every point to every center, vectorized
            gaps = np.max(np.abs(pts[:, None, :] - cov.centers[None, :, :]),
                          axis=2)
            assert bool(np.all(gaps.min(axis=1) < ell / 2))            # (nestingpropertyann)
            # (bdrycoverann): some center captures the (ell/5)-neighborhood
            # clipped to the annulus; the unclipped criterion suffices away
            # from the faces, the clipped one near them
            plain = gaps.min(axis=1) <= ell / 2 - ell / 10
            # the centers array is the float view of exact rationals; flush
            # boxes need an epsilon for the representation roundoff
            eps = 1e-9 * L2
            for idx in np.flatnonzero(~plain)[:5]:
                y = pts[idx]
                lo = np.maximum(y - ell / 10, np.asarray(x0) - L2 / 2)
                hi = np.minimum(y + ell / 10, np.asarray(x0) + L2 / 2)
                fits = np.all(cov.centers - ell / 2 <= lo[None, :] + eps, axis=1) \
                    & np.all(hi[None, :] <= cov.centers + ell / 2 + eps, axis=1)
                near_inner = np.max(np.abs(y - np.asarray(x0))) \
                    <= L1 / 2 + ell / 10
                assert fits.any() or near_inner
    elapsed = time.monotonic() - t0
    report(1, "covering identities", elapsed < 60.0,
           f"{n_box} box + {n_ann} annulus instances in {elapsed:.1f}s, all exact")


# ---------------------------------------------------------------------------
# 2. constants engine
# ---------------------------------------------------------------------------

def test_criterion_02_constants_engine():
    # n-hat = 3 across ]1/3, 3/8[
    ok_nhat = all(n_hat(1 / 3 + (3 / 8 - 1 / 3) * (i + 0.5) / 100) == 3
                  for i in range(100))
    # verdicts match a brute-force scan on 1e5 random tuples
    m = 100_000
    key = derive_key(0xACCE, 3)
    u = uniforms(key, np.arange(7 * m, dtype=np.uint64)).reshape(-1, 7)
    mismatches = 0
    for i in range(m):
        p = 0.05 + 0.9 * u[i, 0]
        p_tilde = p * u[i, 1]
        varsigma = 0.001 + 0.5 * u[i, 2]
        varsigma_p = 0.001 + 0.5 * u[i, 3]
        rho1 = 0.3 + 0.69 * u[i, 4]
        n1 = 1 + int(6 * u[i, 5])
        rho = 0.3 + 0.69 * u[i, 6]
        P = MsaParams(d=1, p=p, p_tilde=p_tilde, varsigma=varsigma,
                      varsigma_prime=varsigma_p, rho1=rho1, n1=n1, rho=rho)
        rho2 = rho1 ** n1
        beta = rho ** n1
        brute = {
            "rhos_lower": 1 / (1 + p) < rho1,
            "rhos_upper": rho1 < 0.75 * (1 - varsigma),
            "rhos_p": p < 0.5 * rho1 * (1 - varsigma_p) - rho2,
            "prho2n1_rho": 1 / (1 + p) < rho < 1,
            "prho2n1_beta": (n1 + 1) * beta < p - p_tilde,
        }
        for k, v in brute.items():
            if P.verdicts[k] != v:
                mismatches += 1
    # gamma window: nonempty exactly when gamma < (1 + sqrt(3))/2 (+- 1e-12)
    gammas = np.concatenate([np.linspace(1.0, 2.0, 101),
                             [GAMMA_CRITICAL - 1e-12, GAMMA_CRITICAL + 1e-12]])
    ok_gamma = all(
        MsaParams(d=1, p=0.35, gamma=float(g)).verdicts["gamma_window_nonempty"]
        == (g < GAMMA_CRITICAL) for g in gammas)
    report(2, "constants engine", ok_nhat and mismatches == 0 and ok_gamma,
           f"n-hat grid ok={ok_nhat}, verdict mismatches={mismatches}/5e5, "
           f"gamma window ok={ok_gamma}")


# ---------------------------------------------------------------------------
# 3. spectral core
# ---------------------------------------------------------------------------

def test_criterion_03_spectral_core():
    t0 = time.monotonic()
    # closed form, d = 1 and d = 2
    ok_closed = True
    for (d, L, n) in ((1, 6.0, 4), (1, 10.0, 2), (2, 4.0, 3)):
        H = assemble(make_box(d, L), n=n)
        got = la.eigvalsh(H.matrix.toarray())
        exact = free_dirichlet_eigenvalues(L, n, d)
        ok_closed &= bool(np.allclose(got, exact, rtol=1e-8))
    # block norms vs dense oracle on >= 50 random instances up to 2000 unknowns
    key = derive_key(0xACCE, 4)
    u = uniforms(key, np.arange(6 * 52, dtype=np.uint64)).reshape(-1, 6)
    worst = 0.0
    for i in range(52):
        if i < 44:
            L, n = 10.0 + 50.0 * u[i, 0], 4
        else:
            L, n = 150.0 + 340.0 * u[i, 0], 4   # up to ~1960 unknowns
        box = make_box(1, round(L))
        dist = Bernoulli(0.5) if u[i, 1] < 0.5 else Uniform01()
        cfg = sample_configuration(dist, box, None, 1000 + i, 0)
        H = assemble(box, n=n, config=cfg)
        E = -2.0 + 1.8 * u[i, 2]
        span = round(L) / 2 - 1
        x = float(np.floor((2 * u[i, 3] - 1) * span))
        y = float(np.floor((2 * u[i, 4] - 1) * span))
        src = unit_box_mask(H.grid, (x,))
        tgt = unit_box_mask(H.grid, (y,))
        norm = ResolventFactorization(H, E).block_norms(np.flatnonzero(src),
                                                        [np.flatnonzero(tgt)])[0]
        lu = la.lu_factor(H.matrix.toarray() - E * np.eye(H.size))
        rhs = np.zeros((H.size, int(src.sum())))
        rhs[np.flatnonzero(src), np.arange(int(src.sum()))] = 1.0
        cols = la.lu_solve(lu, rhs)
        oracle = la.svdvals(cols[np.flatnonzero(tgt), :])[0]
        rel = abs(norm - oracle) / max(oracle, 1e-300)
        worst = max(worst, rel)
    elapsed = time.monotonic() - t0
    report(3, "spectral core", ok_closed and worst <= 1e-6 and elapsed < 120.0,
           f"closed form ok={ok_closed}, worst block-norm rel err={worst:.2e}, "
           f"{elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 4. Combes-Thomas regime
# ---------------------------------------------------------------------------

def test_criterion_04_combes_thomas():
    box = make_box(1, 40.0)
    centers = lattice_sites(box).astype(float)
    pairs = [(i, j) for i in range(len(centers)) for j in range(i + 1, len(centers))
             if abs(centers[i, 0] - centers[j, 0]) >= 20.0 * math.sqrt(1)]
    violations = 0
    total = 0
    for seed in range(12):
        dist = Bernoulli(0.5) if seed % 2 == 0 else Uniform01()
        cfg = sample_configuration(dist, box, None, 4000 + seed, 0)
        H = assemble(box, n=4, config=cfg)
        lam = lowest_eigenvalue(H)
        for E in (0.0, lam / 4.0, lam / 2.0):
            if not lam >= 2.0 * E:
                continue
            gap = lam - E
            fac = ResolventFactorization(H, E)
            for i, j in pairs:
                total += 1
                norm = fac.block_norms(np.flatnonzero(unit_box_mask(H.grid, centers[i])),
                                       [np.flatnonzero(unit_box_mask(H.grid, centers[j]))])[0]
                r = abs(centers[i, 0] - centers[j, 0])
                bound = (2.0 / gap) * math.exp(-(2.0 / 3.0) * math.sqrt(gap) * r)
                if norm > bound:
                    violations += 1
    report(4, "Combes-Thomas regime", violations == 0,
           f"{total} probed pairs, {violations} violations")


# ---------------------------------------------------------------------------
# 5. initial-scale probability
# ---------------------------------------------------------------------------

def test_criterion_05_initial_scale_probability():
    t0 = time.monotonic()
    L, p = 50.0, 0.35
    E_L, _ = initial_scale_values(L, p, 1, 1.0, 1.0, 1)
    box = make_box(1, L)
    hits = 0
    n_samples = 500
    for trial in range(n_samples):
        cfg = sample_configuration(Bernoulli(0.5), box, None, 2024, trial)
        H = assemble(box, n=4, config=cfg)
        hits += int(lowest_eigenvalue(H) >= 2.0 * E_L)
    p_hat = hits / n_samples
    target = 1.0 - L ** (-p)
    elapsed = time.monotonic() - t0
    report(5, "initial-scale probability",
           p_hat >= target and elapsed < 600.0,
           f"p-hat={p_hat:.3f} vs target={target:.3f} (E_L={E_L:.3e}), "
           f"{elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 6. eigenvalue monotonicity and derivative sandwich
# ---------------------------------------------------------------------------

def test_criterion_06_derivative_sandwich():
    dt, tol = 1e-4, 1e-3
    key = derive_key(0xACCE, 6)
    u = uniforms(key, np.arange(3 * 400, dtype=np.uint64)).reshape(-1, 3)
    checks, failures = 0, 0
    row = 0
    for seed in range(20):
        box = make_box(1, 10.0)
        cfg = sample_configuration(Uniform01(), box, None, 5000 + seed, 0)
        H = assemble(box, n=4, config=cfg)
        dense = H.matrix.toarray()
        vals, vecs = la.eigh(dense)
        w = H.grid.weight()
        attempts = 0
        while checks < 100 and attempts < 12:
            attempts += 1
            k = int(u[row, 0] * min(10, len(vals)))
            zeta = int(u[row, 1] * len(cfg.sites))
            row += 1
            simple = (k == 0 or vals[k] - vals[k - 1] > 1e-4) and \
                     (k + 1 >= len(vals) or vals[k + 1] - vals[k] > 1e-4)
            if not simple or cfg.values[zeta] + dt > 1.0:
                continue
            bumped = cfg.values.copy()
            bumped[zeta] += dt
            cfg2 = Configuration(cfg.region, bumped)
            vals2 = la.eigvalsh(assemble(box, n=4, config=cfg2).matrix.toarray())
            if np.any(vals2 < vals - 1e-12):       # monotonicity
                failures += 1
            slope = (vals2[k] - vals[k]) / dt
            psi = vecs[:, k] / (np.sqrt(w) * np.linalg.norm(vecs[:, k]))
            mask = unit_box_mask(H.grid, cfg.sites[zeta].astype(float))
            mass = w * float(np.sum(psi[mask] ** 2))   # u_- = u_+ = 1 here
            if not (mass - tol <= slope <= mass + tol):
                failures += 1
            checks += 1
        if checks >= 100:
            break
    report(6, "derivative sandwich", checks >= 100 and failures == 0,
           f"{checks} increments, {failures} failures (dt={dt}, tol={tol})")


# ---------------------------------------------------------------------------
# 7. W-functional caps and chain inequality
# ---------------------------------------------------------------------------

def test_criterion_07_w_functionals():
    nus = (0.8, 1.0, 1.5)
    L_ann = 4.0
    rel = 1e-10
    lib_rel = 1e-12
    failures = 0
    lib_mismatches = 0
    pairs_checked = 0
    for seed in range(50):
        box = make_box(1, 12.0)
        cfg = sample_configuration(Bernoulli(0.5) if seed % 2 else Uniform01(),
                                   box, None, 6000 + seed, 0)
        H = assemble(box, n=4, config=cfg)
        dense = H.matrix.toarray()
        vals, vecs = la.eigh(dense)
        w = H.grid.weight()
        vecs = vecs / (np.sqrt(w) * np.linalg.norm(vecs, axis=0))
        pts = H.grid.points()[:, 0]
        x = 0.0
        sup_x = np.abs(pts - x)
        chi_x = sup_x < 0.5
        shell = (sup_x > (L_ann - 1.0) / 2.0) & (sup_x < (2.0 * L_ann + 1.0) / 2.0)
        prev_wx = np.zeros(len(vals))
        prev_wxl = np.zeros(len(vals))
        for nu in nus:
            T = (1.0 + sup_x**2) ** (nu / 2.0)
            denom = np.linalg.norm(vecs / T[:, None], axis=0)
            wx = np.linalg.norm(vecs[chi_x, :], axis=0) / denom
            wxl = np.linalg.norm(vecs[shell, :], axis=0) / denom
            cap_x = (5.0 / 4.0) ** (nu / 2.0)
            cap_xl = 2.0 ** (nu / 2.0) * L_ann**nu
            failures += int(np.any(wx > cap_x * (1 + rel)))
            failures += int(np.any(wxl > cap_xl * (1 + rel)))
            # the library's W-functionals and caps reproduce the inline values
            profiles = [w_profile(H.grid, vals[k], vecs[:, k], (x,), nu, annulus_scale=L_ann)
                        for k in range(len(vals))]
            for lib, inline in ((np.array([p.w_x for p in profiles]), wx),
                                (np.array([p.w_x_L for p in profiles]), wxl),
                                (np.array(w_caps(nu, L_ann)), np.array([cap_x, cap_xl]))):
                lib_mismatches += int(np.count_nonzero(np.abs(lib - inline)
                                                       > lib_rel * np.abs(inline)))
            failures += int(np.any(wx < prev_wx * (1 - rel)))    # nu-monotone
            failures += int(np.any(wxl < prev_wxl * (1 - rel)))
            prev_wx, prev_wxl = wx, wxl
            # chain inequality at y in the closed (L, 2L) annulus around x
            for y in (2.0, -3.0, 4.0):
                sup_y = np.abs(pts - y)
                T_y = (1.0 + sup_y**2) ** (nu / 2.0)
                wy = np.linalg.norm(vecs[sup_y < 0.5, :], axis=0) / \
                    np.linalg.norm(vecs / T_y[:, None], axis=0)
                bracket = (1.0 + abs(y - x) ** 2) ** (nu / 2.0)
                bound = 2.0 ** (nu / 2.0) * bracket * wxl
                failures += int(np.any(wy > bound * (1 + rel)))
                pairs_checked += len(vals)
    report(7, "W caps and chain inequality", failures == 0 and lib_mismatches == 0,
           f"50 instances, {pairs_checked} chain checks, {failures} violations, "
           f"{lib_mismatches} w_profile/w_caps mismatches")


# ---------------------------------------------------------------------------
# 8. reduced spectrum
# ---------------------------------------------------------------------------

def test_criterion_08_reduced_spectrum():
    mismatches = 0
    for seed in range(20):
        box = make_box(1, 12.0)
        cfg = sample_configuration(Uniform01(), box, None, 7000 + seed, 0)
        rho, m_hat = 0.75, 0.6
        window = (0.0, 2.0)
        results = {}
        for n1 in (0, 1, 2):
            red = reduced_spectrum(ensemble(), cfg, window, rho, n1, m_hat)
            results[n1] = set(np.round(red, 12))
            # brute-force filter oracle
            full = eigs_window(assemble(box, config=cfg), window).energies
            expected = []
            for E in full:
                ok = True
                for n in range(1, n1 + 1):
                    side = round(12.0 ** (rho ** n) * 4) / 4
                    sub_box = make_box(1, side)
                    sub = eigs_window(
                        assemble(sub_box, config=restrict_configuration(cfg, sub_box)),
                        window).energies
                    if len(sub) == 0 or \
                            np.min(np.abs(sub - E)) > 2 * math.exp(-m_hat * side):
                        ok = False
                        break
                if ok:
                    expected.append(round(float(E), 12))
            if results[n1] != set(expected):
                mismatches += 1
        if not (results[2] <= results[1] <= results[0]):   # antitone in n1
            mismatches += 1
    report(8, "reduced spectrum", mismatches == 0,
           f"20 instances x 3 depths vs brute-force filter, {mismatches} mismatches")


# ---------------------------------------------------------------------------
# 9. bad-cluster extraction
# ---------------------------------------------------------------------------

def test_criterion_09_bad_cluster():
    mismatches = 0
    total_vertices = 0
    for trial in range(100):
        if trial % 10 == 0:
            d, window = 2, 49        # 99^2 = 9801 vertices
        elif trial % 3 == 0:
            d, window = 3, 6         # 13^3 = 2197
        else:
            d, window = 2, 12        # 625
        g = random_graph(d, window, 2, 0.35 + 0.4 * ((trial * 7919) % 97) / 97.0,
                         key=trial)
        total_vertices += (2 * window + 1) ** d
        if bad_cluster(g) != union_find_oracle(g):
            mismatches += 1
    report(9, "bad-cluster extraction", mismatches == 0,
           f"100 labelings ({total_vertices} vertices total), {mismatches} mismatches")


# ---------------------------------------------------------------------------
# 10. Helffer-Sjostrand reconstruction
# ---------------------------------------------------------------------------

def test_criterion_10_hs_reconstruction():
    rng = np.random.default_rng(42)
    A = rng.standard_normal((50, 50))
    K = (A + A.T) / 4.0
    ext = QuasiAnalyticExtension(GaussianBump(0.0, 1.0), 3, 1.0)
    coarse_spec = QuadratureSpec(24, 6)
    _, coarse = hs_reconstruct(ext, K, coarse_spec)
    _, fine = hs_reconstruct(ext, K, QuadratureSpec(4 * coarse_spec.n_u, 4 * coarse_spec.n_v))
    ok = (coarse >= 4.0 * fine) and (fine <= 1e-3)
    report(10, "Helffer-Sjostrand reconstruction", ok,
           f"coarse err={coarse:.2e}, 4x-refined err={fine:.2e} "
           f"(gain {coarse / fine:.0f}x)")


# ---------------------------------------------------------------------------
# 11. IDS sanity
# ---------------------------------------------------------------------------

def test_criterion_11_ids():
    free_ens = Ensemble(Atoms(((0.0, 1.0),)), GridSpec(8), SiteProfile())
    grid = np.array([1.0])
    free = ids_curve(grid, [ids_counts(free_ens, make_box(1, 100.0), grid, 0)], 100.0)
    weyl = free_ids_weyl(1.0, 1)
    ok_weyl = abs(free.values[0] - weyl) / weyl <= 0.05
    ens = Ensemble(Bernoulli(0.5), GridSpec(4), SiteProfile(), root_seed=5)
    grid = np.array([0.05, 0.1, 0.2, 0.35, 0.55])
    curve = ids_curve(grid, [ids_counts(ens, make_box(1, 40.0), grid, t) for t in range(60)],
                      40.0)
    ok_monotone = bool(np.all(np.diff(curve.values) >= 0.0))
    mask = curve.values > 0
    slope = np.polyfit(curve.energies[mask] ** -0.5,
                       np.log(curve.values[mask]), 1)[0] if mask.sum() >= 3 else 0.0
    ok_lifshitz = slope < 0.0
    report(11, "IDS sanity", ok_weyl and ok_monotone and ok_lifshitz,
           f"free N(1)={free.values[0]:.4f} vs 1/pi={weyl:.4f}, "
           f"Lifshitz slope={slope:.2f}")


# ---------------------------------------------------------------------------
# 12. QUCP package
# ---------------------------------------------------------------------------

def test_criterion_12_qucp():
    # constant against the series oracle
    series = sum((-1) ** (k + 1) / (k * math.factorial(k)) for k in range(1, 40))
    c1 = carleman_constant()
    ok_c1 = math.exp(0.75) < c1 < math.e and abs(c1 - math.exp(series)) <= 1e-6
    # weight sandwich at 1e3 points, tolerance 1e-12
    key = derive_key(0xACCE, 12)
    uu = uniforms(key, np.arange(3000, dtype=np.uint64)).reshape(-1, 3)
    rho = 2.7
    pts = (uu - 0.5) * (2.0 * rho / math.sqrt(3.0))
    r = np.linalg.norm(pts, axis=1)
    w_vals = carleman_phi(r / rho)
    ok_sandwich = bool(np.all(w_vals >= r / (c1 * rho) - 1e-12)
                       and np.all(w_vals <= r / rho + 1e-12))
    # kappa-hat on the shipped 1-d benchmark
    box = make_box(1, 40.0)
    sites = lattice_sites(box)
    cfg = Configuration(box, np.zeros(len(sites)))
    v_per = PeriodicField(lambda p: 1.0 + np.cos(
        2.0 * np.pi * np.atleast_2d(p)[:, 0]), 1)
    H = assemble_hamiltonian(box, GridSpec(8), SiteProfile(), cfg, v_per)
    res = eigs_window(H, (0.0, 1.0), max_count=2)
    fit = qucp_verify(H, res.vectors[:, 0], float(res.energies[0]),
                      make_box(1, 2.0), 1.0,
                      [(x,) for x in (3.0, 5.0, 7.0, 9.0, 11.0, 13.0)])
    ok_kappa = fit.kappa_hat is not None and fit.kappa_hat <= 4.0 / 3.0 + 0.3
    # periodic projection gaps on the shipped benchmarks, vs a dense oracle
    benchmarks = [
        (None, 8.0, 4, (0.0, 0.5), 0.5),
        (None, 6.0, 3, (0.0, 0.5), 1.0),
        (PeriodicField(lambda p: 0.5 + 0.5 * np.cos(
            np.pi * np.atleast_2d(p)[:, 0]), 2), 8.0, 4, (0.0, 1.2), 1.0),
    ]
    ok_gap = True
    worst_gap_err = 0.0
    for v, L, nn, interval, delta in benchmarks:
        res_gap = periodic_projection_gap(v, L, GridSpec(nn, "periodic"),
                                          interval, delta, 1)
        assert res_gap.count > 0
        ok_gap &= res_gap.gap is not None and res_gap.gap > 0.0
        box_b = make_box(1, L)
        Hb = assemble_hamiltonian(box_b, GridSpec(nn, "periodic"), SiteProfile(),
                                  empty_configuration(box_b), v)
        vals, vecs = la.eigh(Hb.matrix.toarray())
        inside = (vals >= interval[0]) & (vals <= interval[1])
        P = vecs[:, inside] @ vecs[:, inside].T
        q = 1 if v is None else v.period
        W = np.diag(periodized_ball_indicator(Hb.grid.points(), q, delta))
        oracle = la.eigvalsh(P @ W @ P + 100.0 * (np.eye(Hb.size) - P))[0]
        worst_gap_err = max(worst_gap_err, abs(res_gap.gap - oracle))
    ok_gap &= worst_gap_err <= 1e-8
    report(12, "QUCP package", ok_c1 and ok_sandwich and ok_kappa and ok_gap,
           f"C1={c1:.8f}, sandwich ok={ok_sandwich}, kappa-hat="
           f"{fit.kappa_hat:.3f} <= {4/3 + 0.3:.3f}, gap oracle err="
           f"{worst_gap_err:.1e}")


# ---------------------------------------------------------------------------
# 13. determinism of shipped and benchmark configs
# ---------------------------------------------------------------------------

BENCH_CONFIG_DIR = CONFIG_DIR.parent / "perfbench" / "configs"


def _file_digests(out) -> dict:
    return json.loads((out / "manifest.json").read_text())["files"]


def test_criterion_13_determinism(tmp_path):
    mc_kinds = {"initial-scale", "goodness-ladder", "ids", "dichotomy",
                "dynamical", "qucp"}
    problems, compared = [], 0
    shipped = sorted(CONFIG_DIR.glob("*.json"))
    benchmark = sorted(BENCH_CONFIG_DIR.glob("*/*.json"))
    # shipped configs are rerun; worker-count independence is checked on
    # the benchmark's heavier configs too
    for config_path in shipped + benchmark:
        cfg = load_config(config_path)
        name = f"{config_path.parent.name}/{config_path.name}"
        m1 = _file_digests(run_experiment(cfg, str(tmp_path / "a"), workers_override=1))
        if config_path in shipped and \
                m1 != _file_digests(run_experiment(cfg, str(tmp_path / "b"),
                                                   workers_override=1)):
            problems.append(f"{name}: rerun mismatch")
        if cfg.kind in mc_kinds:
            compared += 1
            if m1 != _file_digests(run_experiment(cfg, str(tmp_path / "c"),
                                                  workers_override=4)):
                problems.append(f"{name}: 1-vs-4 workers mismatch")
    report(13, "determinism", not problems,
           f"{len(shipped)} shipped configs byte-stable, "
           f"{compared} Monte Carlo configs equal at 1 and 4 workers"
           + (f"; problems: {problems}" if problems else ""))
