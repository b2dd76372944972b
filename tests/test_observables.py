import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg as la
from hypothesis import example, given, settings
from hypothesis import strategies as st

from andlab.discretize import unit_box_mask
from andlab.errors import GeometryError, ValidationError
from andlab.model import (Bernoulli, Configuration, SiteProfile,
                          Uniform01, lattice_sites, sample_configuration)
from andlab.observables import (bracket_weights, dichotomy_check, dynamical_moment,
                                fermi_kernel_decay, localization_center, w_caps,
                                w_profile)
from andlab.spectral import eigs_window

from conftest import assemble, make_box, random_hamiltonian

ROOT = Path(__file__).resolve().parent.parent


def normalized_delta(H, index=None):
    w = H.grid.weight()
    psi = np.zeros(H.size)
    psi[H.size // 2 if index is None else index] = 1.0
    return psi / (np.sqrt(w) * np.linalg.norm(psi))


class TestWProfile:
    def test_uniform_direct_sum_oracle(self):
        H = assemble(make_box(1, 20.0), n=4)
        g = H.grid
        psi = np.ones(g.size)
        psi /= np.sqrt(g.weight()) * np.linalg.norm(psi)
        [prof] = w_profile(g, [0.0], psi[:, None], (0.0,), 1.0, annulus_scale=4.0)
        pts = g.points()[:, 0]
        T = np.sqrt(1.0 + np.abs(pts) ** 2)
        denom = np.linalg.norm(psi / T)
        assert prof.w_x == pytest.approx(
            np.linalg.norm(psi[np.abs(pts) < 0.5]) / denom)
        shell = (np.abs(pts) > 1.5) & (np.abs(pts) < 4.5)
        assert prof.w_x_L == pytest.approx(np.linalg.norm(psi[shell]) / denom)

    def test_support_confinement_cap(self):
        H = assemble(make_box(1, 10.0), n=4)
        g = H.grid
        mask = unit_box_mask(g, (2.0,))
        psi = np.where(mask, 1.0, 0.0)
        psi /= np.sqrt(g.weight()) * np.linalg.norm(psi)
        [prof] = w_profile(g, [0.0], psi[:, None], (2.0,), 1.5)
        cap_x, _ = w_caps(1.5)
        assert prof.w_x <= cap_x

    def test_vanishing_on_annulus(self):
        H = assemble(make_box(1, 20.0), n=4)
        g = H.grid
        psi = np.where(unit_box_mask(g, (0.0,)), 1.0, 0.0)
        psi /= np.sqrt(g.weight()) * np.linalg.norm(psi)
        [prof] = w_profile(g, [0.0], psi[:, None], (0.0,), 1.0, annulus_scale=4.0)
        assert prof.w_x_L == 0.0

    def test_caps_and_chain_random_eigenpairs(self):
        nu = 1.0
        for seed in range(5):
            H, _ = random_hamiltonian(1, 16.0, 4, Uniform01(), seed=70 + seed)
            res = eigs_window(H, (0.0, 2.0))
            L = 4.0
            cap_x, cap_xl = w_caps(nu, L)
            x = (0.0,)
            profiles = w_profile(H.grid, res.energies, res.vectors, x, nu, annulus_scale=L)
            for idx, prof in enumerate(profiles):
                assert 0.0 <= prof.w_x <= cap_x * (1 + 1e-10)
                assert 0.0 <= prof.w_x_L <= cap_xl * (1 + 1e-10)
                # chain inequality for y in the closed (L, 2L) annulus
                for y in ((2.5,), (-3.0,), (4.0,)):
                    dist = abs(y[0] - x[0])
                    assert L / 2 <= dist <= L
                    [prof_y] = w_profile(H.grid, res.energies[idx:idx + 1],
                                         res.vectors[:, idx:idx + 1], y, nu)
                    bracket = (1.0 + dist**2) ** (nu / 2.0)
                    bound = 2.0 ** (nu / 2.0) * bracket * prof.w_x_L
                    assert prof_y.w_x <= bound * (1 + 1e-10)

    def test_monotone_in_nu(self):
        H, _ = random_hamiltonian(1, 12.0, 4, Uniform01(), seed=77)
        res = eigs_window(H, (0.0, 1.0))
        values = [w_profile(H.grid, [0.0], res.vectors[:, :1], (1.0,), nu, annulus_scale=3.0)[0]
                  for nu in (0.7, 1.0, 1.5)]
        assert values[0].w_x <= values[1].w_x <= values[2].w_x
        assert values[0].w_x_L <= values[1].w_x_L <= values[2].w_x_L

    def test_nu_validation(self):
        H = assemble(make_box(2, 4.0), n=2)
        psi = normalized_delta(H)
        with pytest.raises(ValidationError):
            w_profile(H.grid, [0.0], psi[:, None], (0.0, 0.0), 0.9)  # d/2 = 1

    def test_sudec_product_consistency(self):
        # |chi_x psi| |chi_y psi| / |T^-1 psi|^2 equals the W product by
        # definition when both quotients use the same bracket center
        H, _ = random_hamiltonian(1, 12.0, 4, Uniform01(), seed=78)
        res = eigs_window(H, (0.0, 1.5))
        psi = res.vectors[:, 0]
        g = H.grid
        x, nu = (2.0,), 1.0
        wx = w_profile(g, [0.0], psi[:, None], x, nu)[0].w_x
        weights = bracket_weights(g, x, nu)
        direct = g.norm(psi[unit_box_mask(g, x)]) / g.norm(psi / weights)
        assert wx == pytest.approx(direct, rel=1e-12)


class TestLocalizationCenter:
    def test_single_deep_well(self):
        box = make_box(1, 20.0)
        sites = lattice_sites(box)
        vals = np.ones(len(sites))
        vals[sites[:, 0] == 4] = 0.0
        cfg = Configuration(box, vals)
        H = assemble(box, n=4, config=cfg)
        res = eigs_window(H, (0.0, 0.9))
        lc = localization_center(H.grid, res.vectors[:, 0])
        assert lc.center == (4,)
        assert lc.reliable and lc.decay_rate > 0.1

    def test_symmetric_double_bump_tie(self):
        H = assemble(make_box(1, 10.0), n=4)
        g = H.grid
        psi = np.zeros(g.size)
        psi[unit_box_mask(g, (-3.0,))] = 1.0
        psi[unit_box_mask(g, (3.0,))] = 1.0
        psi /= np.sqrt(g.weight()) * np.linalg.norm(psi)
        lc = localization_center(g, psi)
        assert lc.center == (-3,)          # lexicographic winner
        assert (3,) in lc.tie_centers

    def test_center_mass_floor(self):
        # the maximizer carries at least the average mass
        H, _ = random_hamiltonian(1, 14.0, 4, Bernoulli(0.5), seed=80)
        res = eigs_window(H, (0.0, 1.0))
        g = H.grid
        psi = res.vectors[:, 0]
        lc = localization_center(g, psi)
        mass = g.norm(psi[unit_box_mask(g, np.asarray(lc.center, float))])
        n_boxes = len(lattice_sites(g.box))
        assert mass >= 1.0 / math.sqrt(2.0 * n_boxes)

    def test_matches_per_site_loop(self):
        # the unit-box masses summed at once against one mask per site
        H, _ = random_hamiltonian(2, 6.0, 4, Bernoulli(0.5), seed=81)
        g = H.grid
        psi = eigs_window(H, (0.0, 3.0)).vectors[:, 0]
        sites = lattice_sites(g.box)
        masses = np.array([g.norm(psi[unit_box_mask(g, c)]) for c in sites])
        lc = localization_center(g, psi)
        assert lc.center == tuple(sites[np.argmax(masses)])
        dists = np.max(np.abs(sites - np.asarray(lc.center)), axis=1)
        slope = np.polyfit(dists[dists > 0], np.log(masses[dists > 0]), 1)[0]
        assert lc.reliable and lc.decay_rate == pytest.approx(-slope, rel=1e-9)

    def test_flat_profile_unreliable(self):
        H = assemble(make_box(1, 10.0), n=4)
        g = H.grid
        psi = np.ones(g.size)
        psi /= np.sqrt(g.weight()) * np.linalg.norm(psi)
        lc = localization_center(g, psi)
        assert not lc.reliable


class TestDichotomy:
    def test_no_energy_is_vacuous(self):
        box = make_box(1, 24.0)
        cfg = sample_configuration(Bernoulli(0.5), box, None, 90, 0)
        records = dichotomy_check(assemble(box, config=cfg), (0.0,),
                                  8.0, (-2.0, -1.0), 0.05, 0.5, 1.0)
        assert records == []

    def test_outer_box_too_small(self):
        box = make_box(1, 10.0)
        cfg = sample_configuration(Bernoulli(0.5), box, None, 91, 0)
        with pytest.raises(GeometryError):
            dichotomy_check(assemble(box, config=cfg), (0.0,), 8.0, (0.0, 1.0), 0.05, 0.5, 1.0)

    def test_product_bound_implication(self):
        # either branch plus the a priori caps forces the product bound,
        # provided exp(-ML) * cap factors stay below exp(-M L^theta / 2)
        box = make_box(1, 30.0)
        cfg = sample_configuration(Bernoulli(0.5), box, None, 92, 0)
        L, M, theta, nu = 10.0, 0.05, 0.5, 1.0
        records = dichotomy_check(assemble(box, config=cfg), (0.0,), L, (0.0, 0.4), M, theta, nu)
        cap_x, cap_xl = w_caps(nu, L)
        for rec in records:
            if rec.branch_point and rec.w_x_L <= cap_xl:
                implied = math.exp(-M * L**theta) * cap_xl
                if implied <= math.exp(-0.5 * M * L**theta):
                    assert rec.product_ok
            if rec.branch_annulus and rec.w_x <= cap_x:
                implied = math.exp(-M * L) * cap_x
                if implied <= math.exp(-0.5 * M * L**theta):
                    assert rec.product_ok

    def test_deep_well_annulus_branch(self):
        # a strongly localized state near x0 fails the point branch and passes
        # the annulus branch; the threshold M is calibrated from the fitted
        # eigenfunction decay rate (exponential-fit oracle)
        box = make_box(1, 36.0)
        sites = lattice_sites(box)
        vals = np.ones(len(sites))
        vals[sites[:, 0] == 0] = 0.0
        cfg = Configuration(box, vals)
        deep = SiteProfile(u_plus=4.0, delta_plus=1.0)
        L, nu = 10.0, 1.0
        H = assemble(box, n=4, config=cfg, profile=deep)
        res = eigs_window(H, (0.0, 3.2))
        lc = localization_center(H.grid, res.vectors[:, 0])
        # oracle: annulus mass ~ exp(-m_fit * (L-1)/2), so exp(-M L) with
        # M = 0.8 m_fit (L-1)/(2L) leaves headroom for the prefactor
        m_fit = lc.decay_rate
        assert m_fit > 0.8
        M = 0.8 * m_fit * (L - 1.0) / (2.0 * L)
        records = dichotomy_check(H, (0.0,), L, (0.0, 3.2), M, 0.5, nu)
        ground = min(records, key=lambda r: r.energy)
        predicted = math.exp(-m_fit * (L - 1.0) / 2.0)
        assert ground.w_x_L <= 3.0 * predicted     # fitted-rate oracle
        assert not ground.branch_point              # mass sits at x0
        assert ground.branch_annulus                # annulus mass decayed
        assert ground.product_ok


def reference_samples(H, interval, b, x0, t_grid):
    """Evolved trace norms from the n x m block W_b e^{-itH} P(I) chi_{x0};
    None for an empty window or mask."""
    res = eigs_window(H, interval)
    mask = unit_box_mask(H.grid, np.atleast_1d(x0))
    if len(res.energies) == 0 or not mask.any():
        return None
    left = bracket_weights(H.grid, x0, b * H.grid.box.dimension)[:, None] * res.vectors
    right = H.grid.weight() * res.vectors[mask, :].T
    return [(t, float(np.sum(la.svdvals(left @ (np.exp(-1j * t * res.energies)[:, None]
                                                 * right)))))
            for t in t_grid]


class TestDynamicalMoment:
    def test_window_below_spectrum(self):
        H, _ = random_hamiltonian(1, 10.0, 4, Uniform01(), seed=95)
        dm = dynamical_moment(H, (-3.0, -1.0), 1.0, (0.0,))
        assert dm.empty_window and dm.proxy == 0.0

    def test_b_zero_counts(self):
        H, _ = random_hamiltonian(1, 10.0, 4, Uniform01(), seed=96)
        dm = dynamical_moment(H, (0.0, 1.5), 0.0, (0.0,))
        assert dm.proxy <= dm.window_count + 1e-10

    def test_samples_below_proxy(self):
        H, _ = random_hamiltonian(1, 12.0, 4, Uniform01(), seed=97)
        dm = dynamical_moment(H, (0.0, 1.2), 1.0, (1.0,),
                              t_grid=(0.0, 0.7, 1.9, 4.2))
        assert not dm.empty_window
        for _, val in dm.samples:
            assert val <= dm.proxy + 1e-10

    @settings(max_examples=40, deadline=None)
    @example(L=6, n=4, seed=1, first=0.2, k=0, b=1.0, x0=0.0, t_grid=[1.0])
    @example(L=6, n=4, seed=1, first=0.2, k=5, b=1.0, x0=9.0, t_grid=[1.0])
    @given(L=st.integers(3, 14), n=st.sampled_from([2, 4, 8]), seed=st.integers(0, 10**6),
           first=st.floats(0.0, 1.0), k=st.integers(0, 24), b=st.sampled_from([0.0, 0.5, 1.0]),
           x0=st.floats(-9.0, 9.0), t_grid=st.lists(st.floats(0.0, 10.0), max_size=4))
    def test_matches_the_block_svd(self, L, n, seed, first, k, b, x0, t_grid):
        # the window holds exactly k pairs, fewer or more than the m mask nodes;
        # k = 0 is an empty window, and x0 outside the box an empty mask
        H, _ = random_hamiltonian(1, float(L), n, Bernoulli(0.5), seed=seed)
        vals = la.eigvalsh(H.matrix.toarray())
        i = int(first * (H.size - 1))
        k = min(k, H.size - i)
        gaps = np.concatenate(([vals[0] - 1.0], 0.5 * (vals[:-1] + vals[1:]), [vals[-1] + 1.0]))
        window = (gaps[i], gaps[i + k])
        dm = dynamical_moment(H, window, b, (x0,), t_grid=t_grid)
        expected = reference_samples(H, window, b, (x0,), t_grid)
        empty = k == 0 or not unit_box_mask(H.grid, np.array([x0])).any()
        assert dm.empty_window == empty == (expected is None)
        if empty:
            assert (dm.proxy, dm.samples, dm.window_count) == (0.0, [], 0)
            return
        assert dm.window_count == k and len(dm.samples) == len(expected)
        for (t, tn), (t_ref, tn_ref) in zip(dm.samples, expected):
            assert t == t_ref and tn == pytest.approx(tn_ref, rel=1e-12)

    @pytest.mark.parametrize("case", ["two-site", "dirichlet", "periodic", "2d"])
    def test_whole_spectrum_matches_expm(self, case):
        # with P(I) = 1 the samples are trace norms of W_b exp(-itH) chi_{x0},
        # here from scipy.linalg.expm rather than from an eigendecomposition
        if case == "two-site":
            # H = [[a, b], [b, a]]:
            # exp(-itH) = e^{-iat} [[cos(bt), -i sin(bt)], [-i sin(bt), cos(bt)]]
            H, x0 = assemble(make_box(1, 1.5), n=2), (0.3,)   # mask: the node at 0.25
            a, b = H.matrix.toarray()[0]
            t = 0.37
            closed = np.exp(-1j * a * t) * np.array([[np.cos(b * t), -1j * np.sin(b * t)],
                                                     [-1j * np.sin(b * t), np.cos(b * t)]])
            assert np.allclose(la.expm(-1j * t * H.matrix.toarray()), closed, atol=1e-12)
        elif case == "periodic":
            box = make_box(1, 8.0)
            H = assemble(box, n=4, boundary="periodic",
                         config=sample_configuration(Uniform01(), box, None, 3, 0))
            x0 = (1.0,)
        else:
            d = 2 if case == "2d" else 1
            H, _ = random_hamiltonian(d, 8.0 if d == 1 else 4.0, 4, Uniform01(), seed=12)
            x0 = (1.0,) * d
        t_grid = (0.0, 0.37, 2.7)
        bound = H.norm_bound() + 1.0
        dm = dynamical_moment(H, (-bound, bound), 1.0, x0, t_grid=t_grid)
        assert dm.window_count == H.size
        A = H.matrix.toarray()
        mask = unit_box_mask(H.grid, np.array(x0))
        weight = bracket_weights(H.grid, x0, H.grid.box.dimension)
        for (t, tn), t_ref in zip(dm.samples, t_grid):
            block = weight[:, None] * la.expm(-1j * t_ref * A)[:, mask]
            assert t == t_ref and tn == pytest.approx(np.sum(la.svdvals(block)), rel=1e-10)

    def test_bytes_independent_of_blas_threads(self, tmp_path):
        config = ROOT / "perfbench" / "configs" / "spectra" / "dynamical.json"
        data = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                       PYTHONPATH=str(ROOT / "src"))
            out = subprocess.run([sys.executable, "-m", "andlab.cli", "dynamical",
                                  "--config", str(config), "--out", str(tmp_path / threads)],
                                 env=env, check=True, capture_output=True, text=True)
            data.append((Path(out.stdout.strip()) / "dynamical.csv").read_bytes())
        assert data[0] == data[1]


class TestFermiKernel:
    def test_below_spectrum_zero(self):
        H, _ = random_hamiltonian(1, 10.0, 4, Uniform01(), seed=98)
        table = fermi_kernel_decay(H, -0.5, (0.0,))
        assert all(r.trace_norm == 0.0 for r in table.rows)

    def test_onsite_dense_projection_oracle(self):
        import scipy.linalg as la

        H, _ = random_hamiltonian(1, 10.0, 4, Uniform01(), seed=99)
        E = 1.0
        table = fermi_kernel_decay(H, E, (0.0,), targets=np.array([[0.0]]))
        dense = H.matrix.toarray()
        vals, vecs = la.eigh(dense)
        keep = vals <= E
        # projection matrix in the nodal basis (idempotent: plain outer product
        # of l2-orthonormal eigenvector columns)
        P = vecs[:, keep] @ vecs[:, keep].T
        assert np.allclose(P @ P, P, atol=1e-12)
        mask = unit_box_mask(H.grid, (0.0,))
        block = P[np.ix_(np.flatnonzero(mask), np.flatnonzero(mask))]
        assert table.rows[0].trace_norm == pytest.approx(
            np.sum(la.svdvals(block)), rel=1e-10)

    def test_symmetry(self):
        H, _ = random_hamiltonian(1, 12.0, 4, Bernoulli(0.5), seed=101)
        a = fermi_kernel_decay(H, 0.9, (-4.0,), targets=np.array([[4.0]]))
        b = fermi_kernel_decay(H, 0.9, (4.0,), targets=np.array([[-4.0]]))
        assert a.rows[0].trace_norm == pytest.approx(b.rows[0].trace_norm, abs=1e-8)


class TestEigenvalueCountGrowth:
    def test_count_linear_in_volume(self):
        counts = {}
        for L in (10, 20, 40):
            H, _ = random_hamiltonian(1, float(L), 4, Bernoulli(0.5), seed=L + 1)
            counts[L] = len(eigs_window(H, (0.0, 1.5)).energies)
        c = max(counts[L] / L for L in counts)
        assert all(counts[L] <= c * L for L in counts)
        assert c <= 2.0 * min(max(counts[L] / L, 1e-9) for L in counts)
