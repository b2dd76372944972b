from functools import partial

import numpy as np
import pytest
import scipy.linalg as la
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st

from andlab.discretize import (GridSpec, PeriodicField, _laplacian, _site_potential, annulus_shell_mask,
                               assemble_hamiltonian, bloch_blocks, cosine_potential,
                               empty_configuration, unit_box_mask, Grid)
from andlab.errors import GridError, ValidationError
from andlab.model import (Bernoulli, BoxSpec, Configuration, SiteProfile,
                          Uniform01, lattice_sites, sample_configuration)
from andlab.spectral import ResolventFactorization

from conftest import assemble, make_box


def free_dirichlet_eigenvalues(L, n, d=1):
    """Closed form for the tensor free Laplacian: sums of
    (2/h^2)(1 - cos(k pi h / L)) over axes."""
    h = 1.0 / n
    m = int(L * n) - 1
    one_axis = (2.0 / h**2) * (1.0 - np.cos(np.arange(1, m + 1) * np.pi * h / L))
    vals = one_axis
    for _ in range(d - 1):
        vals = (vals[:, None] + one_axis[None, :]).ravel()
    return np.sort(vals)


class TestAssembly:
    def test_tridiagonal_example(self):
        # d=1, L=2, h=1/2: size 3, diag 2/h^2, offdiag -1/h^2
        box = make_box(1, 2.0)
        H = assemble(box, n=2)
        dense = H.matrix.toarray()
        assert dense.shape == (3, 3)
        assert np.allclose(np.diag(dense), 8.0)
        assert np.allclose(np.diag(dense, 1), -4.0)
        expected = free_dirichlet_eigenvalues(2.0, 2)
        assert np.allclose(la.eigvalsh(dense), expected, rtol=1e-12)

    def test_symmetry_and_positivity(self):
        H, _ = _random_H(seed=3)
        dense = H.matrix.toarray()
        assert np.array_equal(dense, dense.T)
        assert la.eigvalsh(dense)[0] >= -1e-10  # Dirichlet with potentials >= 0

    def test_zero_coupling_equals_free(self):
        box = make_box(1, 6.0)
        sites = lattice_sites(box)
        cfg = Configuration(box, np.zeros(len(sites)))
        H0 = assemble(box, n=4)
        H1 = assemble(box, n=4, config=cfg)
        assert (H0.matrix != H1.matrix).nnz == 0

    def test_free_values_equal_omega_substitution(self):
        # assigning t_S = 1 on S equals the configuration with omega = 1 there
        box = make_box(1, 8.0)
        sites = lattice_sites(box)
        free = sites[:2]
        cfg = sample_configuration(Bernoulli(0.5), box, free, 12, 0)
        cfg_assigned = cfg.with_free_values(np.ones(2))
        direct = Configuration(box, np.concatenate([np.ones(2), cfg.values[2:]]))
        A = assemble(box, n=4, config=cfg_assigned)
        B = assemble(box, n=4, config=direct)
        assert np.allclose(A.matrix.toarray(), B.matrix.toarray())

    def test_region_mismatch_rejected(self):
        big = make_box(1, 10.0)
        small = make_box(1, 4.0)
        cfg = empty_configuration(big)
        with pytest.raises(ValidationError):
            assemble_hamiltonian(small, GridSpec(4), SiteProfile(), cfg)

    def test_grid_fit_errors(self):
        with pytest.raises(GridError):
            Grid(make_box(1, 2.3), GridSpec(2))
        with pytest.raises(ValidationError):
            GridSpec(1)

    def test_h_weighted_norm(self):
        H = assemble(make_box(1, 4.0), n=4)
        v = np.ones(H.size)
        # integral of 1 over the interior approximates the volume
        assert H.grid.norm(v) == pytest.approx(np.sqrt(0.25 * H.size))


class TestMasks:
    def test_identity_mask(self):
        box = make_box(1, 6.0)
        H = assemble(box, n=4)
        flat, counts = H.grid.cube_nodes(box.center, box.side)
        assert np.array_equal(flat, np.arange(H.size)) and list(counts) == [H.size]

    def test_outside_region_warns(self):
        box = make_box(1, 6.0)
        H = assemble(box, n=4)
        flat, counts = H.grid.cube_nodes((100.0,), 1.0)
        assert flat.size == 0 and list(counts) == [0]

    def test_shell_mask_membership_oracle(self):
        # chi_{0,4} on Lambda_20: grid points with 1.5 < |y| < 4.5
        box = make_box(1, 20.0)
        H = assemble(box, n=4)
        mask = annulus_shell_mask(H.grid, (0.0,), 4.0)
        pts = H.grid.points()[:, 0]
        oracle = (np.abs(pts) > 1.5) & (np.abs(pts) < 4.5)
        assert np.array_equal(mask, oracle)


# cube centres: integers, half-integers, quarter-integers and arbitrary floats,
# inside the box, across its faces and outside it
cube_centres = st.one_of(st.integers(-6, 6).map(float),
                         st.integers(-12, 12).map(lambda k: k / 2.0),
                         st.integers(-24, 24).map(lambda k: k / 4.0),
                         st.floats(-6.0, 6.0, allow_nan=False))


@st.composite
def cube_cases(draw):
    """A grid and some cubes on it: ``(d, boundary, n, L, shift, side, centres)``."""
    d = draw(st.sampled_from([1, 2]))
    return (d, draw(st.sampled_from(["dirichlet", "periodic"])), draw(st.integers(2, 8)),
            draw(st.integers(2, 6)), draw(st.sampled_from([0.0, 0.5])),
            draw(st.sampled_from([0.5, 1.0, 1.5, 2.0])),
            draw(st.lists(st.tuples(*[cube_centres] * d), max_size=6)))


class TestCubeNodes:
    @settings(max_examples=150, deadline=None)
    @given(case=cube_cases())
    @example(case=(1, "dirichlet", 4, 4, 0.0, 1.0, [(0.25,), (-1.5,)]))  # faces on nodes
    @example(case=(1, "periodic", 3, 2, 0.5, 1.0,
                   [(1.0 / 3.0,), (2.0 / 3.0,)]))                        # faces on rounded nodes
    @example(case=(2, "dirichlet", 3, 2, 0.5, 2.0,
                   [(5.0, 0.0), (1.5, 0.5)]))                            # outside, across a face
    @example(case=(2, "periodic", 2, 2, 0.0, 0.5, []))                   # no centres
    def test_matches_the_contains_scan(self, case):
        d, boundary, n, L, shift, side, centres = case
        grid = Grid(BoxSpec(d, (shift,) * d, float(L)), GridSpec(n, boundary))
        flat, counts = grid.cube_nodes(np.reshape(centres, (-1, d)), side)
        scan = [np.flatnonzero(BoxSpec(d, c, side).contains(grid.points())) for c in centres]
        assert counts.tolist() == [len(nodes) for nodes in scan]
        assert flat.tolist() == [k for nodes in scan for k in nodes]


class TestConvergence:
    def test_smallest_eigenvalue_rate(self):
        # smallest free Dirichlet eigenvalue -> d pi^2 / L^2 at O(h^2)
        L, d = 4.0, 1
        exact = d * np.pi**2 / L**2
        errs = []
        for n in (2, 4, 8):
            H = assemble(make_box(d, L), n=n)
            lam = la.eigvalsh(H.matrix.toarray())[0]
            errs.append(abs(lam - exact))
        assert errs[0] > errs[1] > errs[2]
        # O(h^2): each halving of h cuts the error by about 4
        assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.2)
        assert errs[1] / errs[2] == pytest.approx(4.0, rel=0.2)

    def test_2d_smallest_eigenvalue(self):
        L = 3.0
        exact = 2 * np.pi**2 / L**2
        H = assemble(make_box(2, L), n=8)
        lam = la.eigvalsh(H.matrix.toarray())[0]
        assert lam == pytest.approx(exact, rel=2e-2)


def _random_H(seed, L=8.0, n=4):
    box = make_box(1, L)
    cfg = sample_configuration(Uniform01(), box, None, seed, 0)
    return assemble(box, n=n, config=cfg), cfg


class TestEigenvalueMonotonicity:
    def test_monotone_in_single_site_increment(self):
        H, cfg = _random_H(seed=21)
        vals = la.eigvalsh(H.matrix.toarray())
        bumped = Configuration(cfg.region,
                               np.minimum(cfg.values + 0.3 * (np.arange(len(cfg.values)) == 2), 1.0))
        vals2 = la.eigvalsh(assemble(cfg.region, n=4, config=bumped).matrix.toarray())
        assert np.all(vals2 >= vals - 1e-12)

    def test_derivative_sandwich(self):
        # (E_n(t + eps e_zeta) - E_n(t))/eps within [u_- |1_{d-} psi|^2, u_+ |1_{d+} psi|^2]
        eps, tol = 1e-4, 1e-3
        rng = np.random.default_rng(8)
        checks = 0
        for seed in range(6):
            H, cfg = _random_H(seed=100 + seed, L=8.0)
            dense = H.matrix.toarray()
            vals, vecs = la.eigh(dense)
            w = H.grid.weight()
            for _ in range(6):
                k = int(rng.integers(0, min(8, len(vals))))
                gap_ok = (k == 0 or vals[k] - vals[k - 1] > 1e-4) and \
                         (k + 1 >= len(vals) or vals[k + 1] - vals[k] > 1e-4)
                if not gap_ok:
                    continue
                zeta = int(rng.integers(0, len(cfg.sites)))
                if cfg.values[zeta] + eps > 1.0:
                    continue
                bump = cfg.values.copy()
                bump[zeta] += eps
                cfg2 = Configuration(cfg.region, bump)
                vals2 = la.eigvalsh(assemble(cfg.region, n=4, config=cfg2).matrix.toarray())
                slope = (vals2[k] - vals[k]) / eps
                psi = vecs[:, k] / (np.sqrt(w) * np.linalg.norm(vecs[:, k]))
                site = cfg.sites[zeta].astype(float)
                mask = unit_box_mask(H.grid, site)  # delta_± = 1 here
                mass = w * float(np.sum(psi[mask] ** 2))
                assert mass - tol <= slope <= mass + tol
                checks += 1
        assert checks >= 10


class TestExternalInterfaces:
    def test_two_node_periodic_ring(self):
        # both neighbours of each node are the other node: spectrum {0, 4/h^2}
        from andlab.discretize import _laplacian_1d

        T = _laplacian_1d(2, 0.5, True).toarray()
        assert T[0, 1] == T[1, 0] == -8.0
        assert la.eigvalsh(T) == pytest.approx([0.0, 16.0], abs=1e-12)

    def test_periodic_period_fit_error(self):
        from andlab.discretize import PeriodicField

        box = make_box(1, 7.0)
        field = PeriodicField(lambda pts: np.zeros(len(np.atleast_2d(pts))), 2)
        with pytest.raises(GridError):
            assemble(box, n=2, boundary="periodic", v_per=field)


# ---------------------------------------------------------------------------
# loop-free assembly against reference copies of the loop and lil builds
# ---------------------------------------------------------------------------

def _reference_laplacian_1d(m, h, periodic):
    off = np.full(m - 1, -1.0 / h**2)
    T = sp.diags([off, np.full(m, 2.0 / h**2), off], [-1, 0, 1], format="lil")
    if periodic:
        T[0, m - 1] += -1.0 / h**2
        T[m - 1, 0] += -1.0 / h**2
    return T.tocsr()


def _reference_laplacian(shape, h, periodic):
    lap = None
    for a, m in enumerate(shape):
        left = int(np.prod(shape[:a], dtype=int))
        right = int(np.prod(shape[a + 1:], dtype=int))
        term = sp.kron(sp.identity(left, format="csr"),
                       sp.kron(_reference_laplacian_1d(m, h, periodic),
                               sp.identity(right, format="csr"), format="csr"),
                       format="csr")
        lap = term if lap is None else lap + term
    return lap.tocsr()


def _reference_site_potential(grid, profile, sites, couplings):
    out = np.zeros(grid.shape, dtype=float)
    if len(sites) == 0:
        return out
    half = profile.delta_plus / 2.0
    for site, coupling in zip(np.atleast_2d(sites), couplings):
        if coupling == 0.0:
            continue
        sub = []
        for a, axis in enumerate(grid.axes):
            lo = np.searchsorted(axis, site[a] - half, side="right")
            hi = np.searchsorted(axis, site[a] + half, side="left")
            while lo < len(axis) and axis[lo] <= site[a] - half:
                lo += 1
            while hi > lo and axis[hi - 1] >= site[a] + half:
                hi -= 1
            sub.append((lo, hi))
        if any(hi <= lo for lo, hi in sub):
            continue
        block = tuple(slice(lo, hi) for lo, hi in sub)
        if profile.shape is None:
            out[block] += coupling * profile.u_plus
        else:
            local_axes = [grid.axes[a][s] - site[a] for a, s in enumerate(block)]
            mesh = np.meshgrid(*local_axes, indexing="ij")
            offsets = np.stack([g.ravel() for g in mesh], axis=1)
            out[block] += coupling * profile.evaluate(offsets).reshape(
                tuple(hi - lo for lo, hi in sub))
    return out


def _reference_hamiltonian(grid, potential):
    H = _reference_laplacian(grid.shape, grid.h, grid.spec.boundary == "periodic") \
        + sp.diags(potential.ravel(), format="csr")
    return ((H + H.T) * 0.5).tocsr()


def _same_csr(A, B):
    return (A.dtype == B.dtype and A.indices.dtype == B.indices.dtype
            and A.data.tobytes() == B.data.tobytes()
            and A.indices.tobytes() == B.indices.tobytes()
            and A.indptr.tobytes() == B.indptr.tobytes())


def _tent(offsets):
    # 1 on the inner quarter box, falling linearly to 1/2 at sup-radius 1/2
    sup = np.max(np.abs(offsets), axis=1)
    return np.where(sup < 0.25, 1.0, np.where(sup < 0.5, 1.5 - 2.0 * sup, 0.0))


def _too_tall(offsets):
    return np.where(np.max(np.abs(offsets), axis=1) < 0.5, 1.5, 0.0)


PROFILES = {"box": SiteProfile(), "wide": SiteProfile(u_plus=1.5, delta_plus=2.5),
            "tent": SiteProfile(u_minus=1.0, delta_minus=0.5, shape=_tent),
            "too-tall": SiteProfile(delta_minus=0.5, shape=_too_tall)}


class TestLoopFreeAssembly:
    @settings(max_examples=80, deadline=None)
    @given(d=st.sampled_from([1, 2]), boundary=st.sampled_from(["dirichlet", "periodic"]),
           n=st.integers(2, 5), side=st.integers(1, 4), shift=st.sampled_from([0.0, 0.25, 0.5]),
           profile=st.sampled_from(sorted(PROFILES)),
           couplings=st.lists(st.sampled_from([0.0, 0.0, 1.0, 0.375]) | st.floats(0.0, 1.0),
                              min_size=1, max_size=64))
    @example(d=2, boundary="periodic", n=2, side=1, shift=0.0, profile="wide",
             couplings=[1.0])                                  # 2-node rings
    @example(d=1, boundary="dirichlet", n=4, side=3, shift=0.0, profile="box",
             couplings=[0.0, 1.0, 0.5])                        # edges on nodes
    @example(d=2, boundary="periodic", n=3, side=3, shift=0.25, profile="wide",
             couplings=[0.2, 0.7, 0.0, 1.0])                   # overlaps
    @example(d=1, boundary="periodic", n=2, side=2, shift=0.5, profile="too-tall",
             couplings=[0.0, 0.3])                             # sandwich violated
    def test_matches_loop_and_lil_builds(self, d, boundary, n, side, shift, profile,
                                         couplings):
        # side 1 at n = 2 is the 2-node periodic ring (one node per axis under
        # Dirichlet); at shift 0 and even n a delta_+ = 1 support edge lies on
        # a grid node
        L = float(side if d == 2 else 2 * side)
        box = BoxSpec(d, tuple([shift] * d), L)
        prof = PROFILES[profile]
        sites = lattice_sites(box)
        values = np.resize(np.asarray(couplings), len(sites))
        cfg = Configuration(box, values)
        grid = Grid(box, GridSpec(n, boundary))
        periodic = boundary == "periodic"

        lap = _laplacian(grid.shape, grid.h, periodic)
        assert _same_csr(lap, _reference_laplacian(grid.shape, grid.h, periodic))

        try:
            expected = _reference_site_potential(grid, prof, sites, values)
        except ValidationError:
            with pytest.raises(ValidationError, match="sandwich"):
                _site_potential(grid, prof, sites, values)
            with pytest.raises(ValidationError, match="sandwich"):
                assemble_hamiltonian(box, GridSpec(n, boundary), prof, cfg)
            return
        potential = _site_potential(grid, prof, sites, values)
        assert potential.tobytes() == expected.tobytes()
        H = assemble_hamiltonian(box, GridSpec(n, boundary), prof, cfg)
        assert _same_csr(H.matrix, _reference_hamiltonian(grid, expected))

    def test_support_edge_on_a_node_is_outside(self):
        # nodes every 1/2 from -1.5 to 1.5; the unit support of the site at 0
        # has its edges on the nodes -1/2 and 1/2, which stay outside
        box = make_box(1, 4.0)
        grid = Grid(box, GridSpec(2))
        pot = _site_potential(grid, SiteProfile(), np.array([[0]]), np.array([1.0]))
        assert grid.axes[0].tolist() == [-1.5, -1.0, -0.5, 0.0, 0.5, 1.0, 1.5]
        assert pot.tolist() == [0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0]

    def test_diagonal_that_cancels_is_dropped(self):
        # a background of -2/h^2 cancels the 1-d Laplacian's diagonal exactly;
        # the sparse sum H = lap + diag(V) stores no entry there
        cancel = PeriodicField(lambda pts: np.full(len(pts), -32.0))
        H = assemble(make_box(1, 3.0), n=4, v_per=cancel)
        assert not H.matrix.diagonal().any() and H.matrix.nnz == 2 * (H.size - 1)
        assert _same_csr(H.matrix, _reference_hamiltonian(H.grid, H.potential))

    def test_no_sites_and_all_zero_couplings(self):
        grid = Grid(make_box(2, 3.0), GridSpec(3))
        for sites, values in [(np.zeros((0, 2), dtype=int), np.zeros(0)),
                              (lattice_sites(grid.box), np.zeros(9))]:
            for prof in PROFILES.values():
                pot = _site_potential(grid, prof, sites, values)
                assert pot.shape == grid.shape and not pot.any()


class TestLaplacianCache:
    def test_cached_matrix_survives_its_uses(self):
        box = make_box(2, 3.0)
        cfg = sample_configuration(Uniform01(), box, None, 5, 0)
        spec = GridSpec(4)
        first = assemble_hamiltonian(box, spec, SiteProfile(), cfg)
        shifted = first.shifted(0.7)
        shifted.matrix.data *= 1.0          # results are the caller's to write
        ResolventFactorization(shifted, -0.3).block_norms(
            np.flatnonzero(unit_box_mask(first.grid, (-1.0, -1.0))),
            [np.flatnonzero(unit_box_mask(first.grid, (1.0, 1.0)))])
        again = assemble_hamiltonian(box, spec, SiteProfile(), cfg)
        _laplacian.cache_clear()
        uncached = assemble_hamiltonian(box, spec, SiteProfile(), cfg)
        assert _same_csr(again.matrix, uncached.matrix)
        assert _same_csr(again.matrix, _reference_hamiltonian(again.grid, again.potential))

    def test_boundaries_do_not_share_an_entry(self):
        # both grids are 12 x 12 at h = 1/4: Dirichlet drops the face nodes
        dirichlet = Grid(make_box(2, 3.25), GridSpec(4, "dirichlet"))
        periodic = Grid(make_box(2, 3.0), GridSpec(4, "periodic"))
        assert dirichlet.shape == periodic.shape == (12, 12)
        assert dirichlet.h == periodic.h
        for grid in (dirichlet, periodic):
            H = assemble(grid.box, n=4, boundary=grid.spec.boundary)
            assert _same_csr(H.matrix, _reference_hamiltonian(grid, H.potential))
        assert _laplacian((12, 12), 0.25, True).nnz > _laplacian((12, 12), 0.25, False).nnz

    def test_cached_arrays_are_read_only(self):
        lap = _laplacian((6,), 0.5, True)
        for arr in (lap.data, lap.indices, lap.indptr):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = arr[0]


class TestBlochBlocks:
    @settings(max_examples=60, deadline=None)
    @given(d=st.sampled_from([1, 2]), periods=st.integers(1, 6), data=st.data())
    def test_stacks_hold_the_box_spectrum(self, d, periods, data):
        # cells of 2-4 nodes per axis: the two-node ring is q = 1 at h = 1/2
        q = data.draw(st.sampled_from([None, 1, 2]), label="cosine period")
        period = q or 1
        n = data.draw(st.integers(2, 4 // period), label="points_per_unit")
        v_per = None if q is None else PeriodicField(
            partial(cosine_potential, 0.5, q, 0.5, 0.0), q)
        side = float(period * periods)
        # the box's first period, as periodic_projection_gap takes it
        cell_box = BoxSpec(d, tuple([(period - side) / 2.0] * d), float(period))
        cell = assemble_hamiltonian(cell_box, GridSpec(n, "periodic"), SiteProfile(),
                                    empty_configuration(cell_box), v_per)
        stacks = list(bloch_blocks(cell, periods))
        assert len(stacks) == periods ** (d - 1)
        assert all(s.shape == (periods, cell.size, cell.size) for s in stacks)
        assert np.array_equal(stacks[0][0], cell.matrix.toarray())
        H = assemble(make_box(d, side), n=n, boundary="periodic", v_per=v_per)
        union = np.sort(np.linalg.eigvalsh(np.concatenate(stacks)).ravel())
        np.testing.assert_allclose(union, la.eigvalsh(H.matrix.toarray()),
                                   rtol=0.0, atol=1e-12 * H.norm_bound())
