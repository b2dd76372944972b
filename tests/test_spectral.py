import numpy as np
import pytest
import scipy.linalg as la
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from andlab import spectral
from andlab.discretize import unit_box_mask
from andlab.errors import SolverError, ValidationError
from andlab.model import (Bernoulli, Configuration, Uniform01, lattice_sites,
                          sample_configuration)
from andlab.msa import check_goodness
from andlab.spectral import (ResolventFactorization, eigenvalue_count, eigs_window,
                             evolve, full_spectrum, lowest_eigenvalue)

from conftest import assemble, ensemble, make_box, random_hamiltonian
from test_discretize import free_dirichlet_eigenvalues


# the same window roles on every path; the periodic spectrum starts at 0.296
WINDOWS = [
    ((-5.0, -1.0), 10**6),     # below the spectrum
    ((-1.0, 0.8), 10**6),      # touching its bottom
    ((0.4, 1.2), 10**6),       # interior
    ((60.0, 100.0), 10**6),    # touching its top
    ((-1.0, 6.0), 4),          # bottom window, truncated to its lowest pairs
]
WINDOW_IDS = ["below", "bottom", "interior", "top", "truncated"]


def periodic_hamiltonian(L, seed):
    """A 1-d periodic box: not tridiagonal, so windows take the dense/ARPACK path."""
    box = make_box(1, L)
    H = assemble(box, n=4, boundary="periodic",
                 config=sample_configuration(Uniform01(), box, None, seed, 0))
    assert not spectral.is_tridiagonal(H)
    return H


class TestEigsWindow:
    def test_free_closed_form(self):
        H = assemble(make_box(1, 6.0), n=4)
        exact = free_dirichlet_eigenvalues(6.0, 4)
        res = eigs_window(H, (0.0, float(exact[-1]) + 1.0))
        assert np.allclose(res.energies, exact, rtol=1e-8)
        assert np.all(res.residuals <= 1e-8)
        assert res.orthogonality_defect <= 1e-8

    def test_shift_covariance(self):
        H, _ = random_hamiltonian(1, 8.0, 4, Uniform01(), seed=2)
        res = eigs_window(H, (0.0, 2.0))
        shifted = H.shifted(0.7)
        res2 = eigs_window(shifted, (0.7, 2.7))
        assert np.allclose(res2.energies, res.energies + 0.7, atol=1e-10)

    def test_empty_window_below_spectrum(self):
        H = assemble(make_box(1, 6.0), n=4)
        res = eigs_window(H, (-5.0, -1.0))
        assert len(res.energies) == 0

    def test_truncation_flag(self):
        H = assemble(make_box(1, 6.0), n=4)
        res = eigs_window(H, (0.0, 1e5), max_count=3)
        assert res.truncated and len(res.energies) == 3

    def test_unbounded_window_rejected(self):
        H = assemble(make_box(1, 6.0), n=4)
        with pytest.raises(ValidationError):
            eigs_window(H, (0.0, np.inf))

    def test_empty_cap_rejected(self):
        H = assemble(make_box(1, 6.0), n=4)
        with pytest.raises(ValidationError):
            eigs_window(H, (0.0, 1.0), max_count=0)

    @pytest.mark.parametrize("window, max_count", WINDOWS, ids=WINDOW_IDS)
    def test_tridiagonal_path_matches_dense(self, window, max_count):
        H, _ = random_hamiltonian(1, 30.0, 4, Uniform01(), seed=5)
        tri = eigs_window(H, window, max_count)
        assert tri.solver == "tridiagonal"
        lo, hi = window
        vals, vecs = la.eigh(H.matrix.toarray(),
                             subset_by_value=(np.nextafter(lo, -np.inf), hi))
        assert tri.truncated == (len(vals) > max_count) == (max_count == 4)
        vals, vecs = vals[:max_count], vecs[:, :max_count]
        assert np.allclose(tri.energies, vals, rtol=0.0, atol=1e-12)
        overlap = np.sqrt(H.grid.weight()) * np.abs(tri.vectors.T @ vecs)
        assert np.allclose(overlap, np.eye(len(vals)), atol=1e-8)
        assert np.all(tri.residuals <= 1e-8)

    @pytest.mark.parametrize("window, max_count", WINDOWS, ids=WINDOW_IDS)
    def test_sparse_path_matches_dense(self, window, max_count, monkeypatch):
        H = periodic_hamiltonian(30.0, seed=5)
        dense = eigs_window(H, window, max_count)
        monkeypatch.setattr(spectral, "DENSE_MAX_VECTORS", 0)
        sparse = eigs_window(H, window, max_count)
        assert (dense.solver, sparse.solver) == ("dense", "arpack")
        assert np.allclose(sparse.energies, dense.energies, atol=1e-9)
        assert sparse.truncated == dense.truncated == (max_count == 4)
        overlap = H.grid.weight() * np.abs(sparse.vectors.T @ dense.vectors)
        assert np.allclose(overlap, np.eye(len(dense.energies)), atol=1e-6)
        assert np.all(sparse.residuals <= 1e-8)

    def test_sparse_truncation_counts_the_window_not_the_shift(self, monkeypatch):
        # eigenvalue 5 lies between ARPACK's shift and the window, which holds
        # eigenvalues 6 to 9: it takes none of the four slots
        H = periodic_hamiltonian(12.0, seed=3)
        vals = la.eigvalsh(H.matrix.toarray())
        window = (vals[5] + 1e-10, 0.5 * (vals[9] + vals[10]))
        dense = eigs_window(H, window, max_count=4)
        monkeypatch.setattr(spectral, "DENSE_MAX_VECTORS", 0)
        sparse = eigs_window(H, window, max_count=4)
        assert (dense.solver, sparse.solver) == ("dense", "arpack")
        assert len(sparse.energies) == len(dense.energies) == 4
        assert not sparse.truncated and not dense.truncated
        assert np.allclose(sparse.energies, dense.energies, rtol=0.0, atol=1e-9)

    def test_lapack_selections_are_the_scipy_calls_bitwise(self):
        # the output digests of 1-d runs rest on every selection being exactly
        # one scipy call, with its select value and bounds
        H, _ = random_hamiltonian(1, 30.0, 4, Uniform01(), seed=5)
        d, e = H.matrix.diagonal(), H.matrix.diagonal(1)
        assert np.array_equal(full_spectrum(H), la.eigvalsh_tridiagonal(d, e))
        assert lowest_eigenvalue(H) == \
            la.eigvalsh_tridiagonal(d, e, select="i", select_range=(0, 0))[0]
        lo, hi = 0.4, 1.2
        window = eigs_window(H, (lo, hi))
        assert len(window.energies) and not window.truncated
        assert np.array_equal(window.energies, la.eigh_tridiagonal(
            d, e, select="v", select_range=(np.nextafter(lo, -np.inf), hi))[0])
        capped = eigs_window(H, (-1.0, 6.0), max_count=4)
        below = int(eigenvalue_count(H, [-1.0])[0])
        assert capped.truncated and np.array_equal(capped.energies, la.eigh_tridiagonal(
            d, e, select="i", select_range=(below, below + 3))[0])
        E = 0.5 * sum(full_spectrum(H)[7:9])
        near = la.eigvalsh_tridiagonal(d, e, select="i", select_range=(7, 8))
        assert ResolventFactorization(H, E).gap == np.min(np.abs(near - E))
        # every other H: dense LAPACK
        H = periodic_hamiltonian(30.0, seed=5)
        A = H.matrix.toarray()
        assert not spectral.is_tridiagonal(H) and H.size <= spectral.DENSE_MAX_VALUES
        assert np.array_equal(full_spectrum(H), la.eigvalsh(A))
        assert lowest_eigenvalue(H) == la.eigvalsh(A, subset_by_index=(0, 0))[0]
        window = eigs_window(H, (lo, hi))
        assert len(window.energies) and window.solver == "dense"
        assert np.array_equal(window.energies,
                              la.eigh(A, subset_by_value=(np.nextafter(lo, -np.inf), hi))[0])

    def test_sparse_window_beyond_arpack_raises(self, monkeypatch):
        H = periodic_hamiltonian(3.0, seed=0)
        monkeypatch.setattr(spectral, "DENSE_MAX_VECTORS", 0)
        with pytest.raises(SolverError):
            eigs_window(H, (-1.0, 1e5))
        psi0 = np.ones(H.size) / np.sqrt(H.grid.weight() * H.size)
        with pytest.raises(SolverError):  # full evolution is a whole-spectrum window
            evolve(H, psi0, 1.0)

    def test_capped_window_stays_inside_at_a_tied_edge(self):
        # at an edge that is an eigenvalue to roundoff, the inertia count and
        # bisection can disagree; the pairs returned still lie in the window
        H, _ = random_hamiltonian(1, 30.0, 4, Uniform01(), seed=6)
        lo = float(la.eigvalsh_tridiagonal(H.matrix.diagonal(), H.matrix.diagonal(1))[35])
        res = eigs_window(H, (lo, lo + 50.0), max_count=2)
        assert res.truncated and res.solver == "tridiagonal"
        assert len(res.energies) and np.all(res.energies >= lo)

    @pytest.mark.parametrize("L", [16.0, 60.0, 200.0])
    @pytest.mark.parametrize("points", [2, 4, 8])
    @pytest.mark.parametrize("dist", [Bernoulli(0.5), Uniform01()], ids=["bernoulli", "uniform"])
    def test_one_pair_is_the_first_of_four(self, L, points, dist):
        # the qucp trial's window, capped at its ground pair and at four pairs
        H, _ = random_hamiltonian(1, L, points, dist, seed=int(L) + points)
        upper = 4.0 * (np.pi / L) ** 2 + float(np.max(H.potential)) + 1.0
        one, four = (eigs_window(H, (-0.1, upper), max_count=k) for k in (1, 4))
        assert len(one.energies) == 1 and one.truncated and len(four.energies) == 4
        assert abs(one.energies[0] - four.energies[0]) <= \
            4.0 * np.finfo(float).eps * H.norm_bound()
        overlap = H.grid.weight() * abs(one.vectors[:, 0] @ four.vectors[:, 0])
        assert overlap >= 1.0 - 1e-10

    def test_tridiagonal_never_densifies_or_calls_arpack(self, monkeypatch):
        H, _ = random_hamiltonian(1, 30.0, 4, Uniform01(), seed=5)

        def refuse(*args, **kwargs):
            raise AssertionError("dense or ARPACK solve on a tridiagonal H")

        monkeypatch.setattr(type(H.matrix), "toarray", refuse)
        monkeypatch.setattr(spectral.la, "eigh", refuse)
        monkeypatch.setattr(spla, "eigsh", refuse)
        for dense_max in (10**9, 0):
            monkeypatch.setattr(spectral, "DENSE_MAX_VECTORS", dense_max)
            monkeypatch.setattr(spectral, "DENSE_MAX_VALUES", dense_max)
            for window, max_count in WINDOWS:
                assert eigs_window(H, window, max_count).solver == "tridiagonal"
            assert lowest_eigenvalue(H) > 0.0


class TestEigenvalueCount:
    @settings(max_examples=40, deadline=None)
    @given(d=st.sampled_from([1, 2, 3]), boundary=st.sampled_from(["dirichlet", "periodic"]),
           seed=st.integers(0, 10**6), side=st.integers(2, 6),
           fractions=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=4))
    def test_matches_dense_count(self, d, boundary, seed, side, fractions):
        L = {1: 3 * side, 2: side, 3: min(side, 3)}[d]
        box = make_box(d, L)
        cfg = sample_configuration(Bernoulli(0.5), box, None, seed, 0)
        H = assemble(box, n=2, boundary=boundary, config=cfg)
        vals = la.eigvalsh(H.matrix.toarray())
        scale = H.norm_bound()
        energies = vals[0] - 1.0 + np.asarray(fractions) * (vals[-1] - vals[0] + 2.0)
        assume(np.min(np.abs(energies[:, None] - vals[None, :])) >= 1e-8 * scale)
        expected = np.searchsorted(vals, energies)
        assert eigenvalue_count(H, energies).tolist() == expected.tolist()

    def test_energy_on_an_eigenvalue(self):
        # E is 2 ulps above a computed eigenvalue, where the symmetric-mode LU
        # of H - E has an exactly zero pivot; the Sturm count reads #{< E}
        H, _ = random_hamiltonian(1, 30.0, 4, Uniform01(), seed=6)
        E = 14.136049715622182
        vals = la.eigvalsh(H.matrix.toarray())
        slack = 1e-12 * np.max(np.abs(vals))
        count = int(eigenvalue_count(H, [E])[0])
        assert np.count_nonzero(vals < E - slack) <= count <= np.count_nonzero(vals <= E + slack)

    def test_singular_factor_is_retried_one_ulp_below(self, monkeypatch):
        # an exactly singular SuperLU factor is rare on a periodic H, so the
        # first factorization is made to fail as one would
        H = periodic_hamiltonian(6.0, seed=3)
        E = 0.5 * sum(la.eigvalsh(H.matrix.toarray())[4:6])
        splu, factored = spla.splu, []

        def singular_once(M, **kwargs):
            factored.append(M)
            if len(factored) == 1:
                raise RuntimeError("Factor is exactly singular")
            return splu(M, **kwargs)

        monkeypatch.setattr(spla, "splu", singular_once)
        assert eigenvalue_count(H, [E]).tolist() == [5]
        eye = sp.identity(H.size, format="csc")
        shifts = [E, np.nextafter(E, -np.inf)]
        assert len(factored) == 2
        for M, shift in zip(factored, shifts):
            assert (M != H.matrix.tocsc() - shift * eye).nnz == 0

    def test_singular_twice_raises(self, monkeypatch):
        # both SuperLU attempts fail: a dense Bunch-Kaufman factor gives the
        # count, and beyond DENSE_MAX_VECTORS nodes the count raises
        def singular(M, **kwargs):
            raise RuntimeError("Factor is exactly singular")

        H = periodic_hamiltonian(6.0, seed=3)
        dense = int(np.searchsorted(la.eigvalsh(H.matrix.toarray()), 0.5))
        monkeypatch.setattr(spla, "splu", singular)
        assert eigenvalue_count(H, [0.5]).tolist() == [dense]
        monkeypatch.setattr(spectral, "DENSE_MAX_VECTORS", 0)
        with pytest.raises(SolverError):
            eigenvalue_count(H, [0.5])

    @pytest.mark.parametrize("d, L, boundary, E, count", [
        (1, 6.0, "periodic", 32.0, 11),    # SuperLU: exactly singular, at E and below
        (2, 3.0, "dirichlet", 64.0, 55),   # SuperLU: pivots off the diagonal
    ])
    def test_degenerate_eigenvalue(self, d, L, boundary, E, count):
        # E is the common diagonal value of a free operator and a multiple
        # eigenvalue; dense eigvalsh puts some copies below it by rounding
        H = assemble(make_box(d, L), n=4, boundary=boundary)
        assert np.all(H.matrix.diagonal() == E)
        assert eigenvalue_count(H, [E]).tolist() == [count]
        vals = la.eigvalsh(H.matrix.toarray())
        assert np.count_nonzero(vals < E - 1e-9 * E) == count

    @pytest.mark.parametrize("boundary", ["dirichlet", "periodic"])
    def test_nan_energy_rejected(self, boundary):
        H = assemble(make_box(1, 6.0), n=4, boundary=boundary)
        assert spectral.is_tridiagonal(H) == (boundary == "dirichlet")
        with pytest.raises(ValidationError):
            eigenvalue_count(H, [0.5, np.nan])


def superlu_count(H, E):
    """#{eigenvalues < E} from the inertia of a symmetric-mode SuperLU factor
    of H - E; one ulp below E when that factor is exactly singular or meets
    a zero diagonal pivot, which SuperLU replaces by an off-diagonal one (E
    equal to both diagonal entries of a 2-node box).  When SuperLU pivots off
    the diagonal at both shifts (E on an eigenvalue), the inertia of a dense
    Bunch-Kaufman ``L D L^T`` of H - E: the negative eigenvalues of D."""
    A, eye = H.matrix.tocsc(), sp.identity(H.size, format="csc")
    for shift in (E, np.nextafter(E, -np.inf)):
        try:
            lu = spla.splu(A - shift * eye, diag_pivot_thresh=0.0,
                           options={"SymmetricMode": True})
        except RuntimeError:
            continue
        if np.array_equal(lu.perm_r, lu.perm_c):
            return int(np.count_nonzero(lu.U.diagonal() < 0.0))
    _, D, _ = la.ldl(H.matrix.toarray() - E * np.eye(H.size))
    return int(np.count_nonzero(np.linalg.eigvalsh(D) < 0.0))


class TestSturmCount:
    @settings(max_examples=60, deadline=None)
    @given(nodes=st.integers(1, 120), n=st.sampled_from([2, 4, 8]),
           law=st.sampled_from([Bernoulli(0.5), Uniform01()]), seed=st.integers(0, 10**6),
           fractions=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=4),
           near=st.lists(st.tuples(st.floats(0.0, 1.0), st.integers(-4, 4)), max_size=4))
    # E = 46.79765962705338 on eigenvalue index 8: SuperLU pivots off the
    # diagonal at E and one ulp below, so the reference takes the dense count
    @example(nodes=31, n=8, law=Bernoulli(0.5), seed=0, fractions=[0.0], near=[(0.28125, 0)])
    def test_matches_superlu_and_dense(self, nodes, n, law, seed, fractions, near):
        # a box of (nodes + 1) / n has `nodes` interior nodes, down to n = 1 and 2
        box = make_box(1, (nodes + 1) / n)
        H = assemble(box, n=n, config=sample_configuration(law, box, None, seed, 0))
        assert spectral.is_tridiagonal(H) and H.size == nodes
        vals = la.eigvalsh(H.matrix.toarray())
        d, e = H.matrix.diagonal(), np.abs(H.matrix.diagonal(1))
        gershgorin = np.min(d - np.concatenate(([0.0], e)) - np.concatenate((e, [0.0])))
        far = vals[0] - 1.0 + np.asarray(fractions) * (vals[-1] - vals[0] + 2.0)
        far = far[np.min(np.abs(far[:, None] - vals[None, :]), axis=1) >= 1e-8 * H.norm_bound()]
        # the Gershgorin bound itself can be an eigenvalue (2 equal diagonals)
        edges = np.array([gershgorin - 1e-6 * H.norm_bound(), gershgorin - 1.0, vals[-1] + 1.0,
                          -np.inf, np.inf])
        close = np.array([vals[int(f * (nodes - 1))] + k * np.spacing(vals[int(f * (nodes - 1))])
                          for f, k in near])
        energies = np.concatenate((far, edges, close))
        counts = eigenvalue_count(H, energies)
        reference = [superlu_count(H, E) for E in energies]
        # away from the spectrum the three counts agree exactly
        exact = len(far) + len(edges)
        assert counts[:exact].tolist() == reference[:exact]
        assert counts[:exact].tolist() == np.searchsorted(vals, energies[:exact]).tolist()
        assert counts[len(far):exact].tolist() == [0, 0, nodes, 0, nodes]
        # within a few ulps of an eigenvalue, each count lies in the rounding bracket
        slack = 1e-12 * np.max(np.abs(vals))
        for E, count, ref in zip(close, counts[exact:], reference[exact:]):
            bracket = np.count_nonzero(vals < E - slack), np.count_nonzero(vals <= E + slack)
            assert bracket[0] <= count <= bracket[1] and bracket[0] <= ref <= bracket[1]

    def test_never_factors_a_tridiagonal_h(self, monkeypatch):
        H, _ = random_hamiltonian(1, 30.0, 4, Uniform01(), seed=5)
        vals = la.eigvalsh_tridiagonal(H.matrix.diagonal(), H.matrix.diagonal(1))
        energies = 0.5 * (vals[:-1] + vals[1:])

        def refuse(*args, **kwargs):
            raise AssertionError("SuperLU factorization on a tridiagonal H")

        monkeypatch.setattr(spla, "splu", refuse)
        assert eigenvalue_count(H, energies).tolist() == list(range(1, H.size))
        res = eigs_window(H, (-1.0, 6.0), max_count=4)  # capped: counted first
        assert res.truncated and np.allclose(res.energies, vals[:4], rtol=0.0, atol=1e-12)
        # resolvent probes take a banded solve: a goodness check, and the
        # per-source path at a zero Schur complement
        box = make_box(1, 12.0)
        cfg = sample_configuration(Bernoulli(0.5), box, None, 3, 0)
        assert check_goodness(ensemble(), cfg, -0.5, 0.4, 0.1).is_good
        fac = ResolventFactorization(H, H.matrix.diagonal()[0])
        nodes = _unit_box_nodes(H)
        first, second = np.triu_indices(len(nodes), k=1)
        norms = fac.pair_norms(nodes, first, second, np.ones(len(first)))
        assert norms.fallback == "zero or non-finite Schur complement"
        assert not norms.indeterminate and np.isfinite(norms.measured).all()


class TestLowestEigenvalue:
    def test_free_closed_form(self):
        H = assemble(make_box(1, 10.0), n=4)
        exact = free_dirichlet_eigenvalues(10.0, 4)[0]
        assert lowest_eigenvalue(H) == pytest.approx(exact, rel=1e-8)

    def test_constant_shift(self):
        H, _ = random_hamiltonian(1, 10.0, 4, Uniform01(), seed=3)
        lam = lowest_eigenvalue(H)
        assert lowest_eigenvalue(H.shifted(2.5)) == pytest.approx(lam + 2.5, rel=1e-10)

    def test_monotone_in_couplings(self):
        box = make_box(1, 10.0)
        sites = lattice_sites(box)
        ones = Configuration(box, np.ones(len(sites)))
        zero = Configuration(box, np.zeros(len(sites)))
        assert lowest_eigenvalue(assemble(box, config=ones)) >= \
            lowest_eigenvalue(assemble(box, config=zero))

    def test_sparse_path(self, monkeypatch):
        H = periodic_hamiltonian(40.0, seed=4)
        dense = lowest_eigenvalue(H)
        calls = []
        shift_invert = spectral._shift_invert

        def counted(*args, **kwargs):
            calls.append(args)
            return shift_invert(*args, **kwargs)

        monkeypatch.setattr(spectral, "_shift_invert", counted)
        monkeypatch.setattr(spectral, "DENSE_MAX_VALUES", 0)
        sparse = lowest_eigenvalue(H)
        assert len(calls) == 1
        assert sparse == pytest.approx(dense, rel=1e-9)

    def test_tridiagonal_matches_dense(self):
        H, _ = random_hamiltonian(1, 40.0, 8, Uniform01(), seed=4)
        dense = la.eigvalsh(H.matrix.toarray(), subset_by_index=(0, 0))[0]
        assert lowest_eigenvalue(H) == pytest.approx(dense, rel=1e-12)


class TestResolventProbes:
    def test_spectral_bound_whole_box(self):
        H, _ = random_hamiltonian(1, 10.0, 4, Uniform01(), seed=6)
        lam = lowest_eigenvalue(H)
        fac = ResolventFactorization(H, -1.0)
        assert not fac.divergent
        assert fac.resolvent_norm <= 1.0 / (lam + 1.0) + 1e-8

    @pytest.mark.parametrize("d, L, energy", [(1, 30.0, -0.5), (1, 30.0, 0.9),
                                              (2, 6.0, 0.3)])
    def test_whole_box_norm_is_exact(self, d, L, energy):
        H, _ = random_hamiltonian(d, L, 4, Uniform01(), seed=14)
        vals = la.eigvalsh(H.matrix.toarray())
        fac = ResolventFactorization(H, energy)
        # 1-d: the neighbouring eigenvalues by index; 2-d: one Lanczos call
        assert not fac.divergent and (fac.gap_solves == 0 if d == 1 else fac.gap_solves > 0)
        assert fac.resolvent_norm == pytest.approx(
            1.0 / np.min(np.abs(vals - energy)), rel=1e-8)

    @pytest.mark.parametrize("nodes, where", [
        (1, "below"), (2, "below"), (2, "between"), (3, "between"), (3, "above"),
        (300, "below"), (300, "between"),
    ])
    def test_banded_solve_matches_dense(self, nodes, where):
        # a box of (nodes + 1) / 4 has `nodes` interior nodes at 4 points per unit
        H, _ = random_hamiltonian(1, (nodes + 1) / 4, 4, Uniform01(), seed=nodes)
        assert spectral.is_tridiagonal(H) and H.size == nodes
        vals = la.eigvalsh(H.matrix.toarray())
        E = {"below": vals[0] - 0.5, "above": vals[-1] + 0.5,
             "between": 0.5 * (vals[nodes // 2 - 1] + vals[nodes // 2])}[where]
        rhs = np.random.default_rng(nodes).standard_normal((nodes, 3))
        fac = ResolventFactorization(H, E)
        dense = np.linalg.solve(H.matrix.toarray() - E * np.eye(nodes), rhs)
        assert not fac.divergent
        assert np.linalg.norm(fac.solve(rhs) - dense) <= 1e-12 * np.linalg.norm(dense)

    @pytest.mark.parametrize("nodes, E", [(1, 32.0), (2, 16.0), (3, 32.0), (301, 32.0)])
    def test_banded_solve_on_an_eigenvalue_raises(self, nodes, E):
        # the free box has diagonal 32 and off-diagonal -16, so its eigenvalues
        # 32 - 32 cos(k pi / (nodes + 1)) include E exactly: H - E is singular
        H = assemble(make_box(1, (nodes + 1) / 4), n=4)
        assert np.all(H.matrix.diagonal() == 32.0) and np.all(H.matrix.diagonal(1) == -16.0)
        fac = ResolventFactorization(H, E)
        assert fac.divergent
        with pytest.raises(FloatingPointError):
            fac.solve(np.eye(nodes)[:, :2])

    def test_singular_superlu_solve_raises(self):
        # the free periodic ring's diagonal 32 is one of its eigenvalues, so
        # SuperLU finds H - E exactly singular and keeps no factor
        H = assemble(make_box(1, 6.0), n=4, boundary="periodic")
        assert not spectral.is_tridiagonal(H) and np.all(H.matrix.diagonal() == 32.0)
        fac = ResolventFactorization(H, 32.0)
        assert fac.divergent and fac._lu is None
        with pytest.raises(FloatingPointError):
            fac.solve(np.eye(H.size)[:, :2])

    def test_divergent_at_eigenvalue(self):
        H, _ = random_hamiltonian(1, 8.0, 4, Uniform01(), seed=7)
        lam = lowest_eigenvalue(H)
        fac = ResolventFactorization(H, lam)
        assert fac.divergent and fac.resolvent_norm > 1e10 / H.norm_bound()

    @pytest.mark.parametrize("offset, divergent", [(1e-12, True), (5e-11, True),
                                                   (2e-10, False), (1e-8, False)])
    def test_divergence_tolerance_is_fixed(self, offset, divergent):
        # divergent within 1e-10 * norm_bound() of the spectrum, exact beyond it
        H, _ = random_hamiltonian(1, 8.0, 4, Uniform01(), seed=7)
        lam = lowest_eigenvalue(H)
        E = lam - offset * H.norm_bound()
        fac = ResolventFactorization(H, E)
        assert fac.divergent == divergent
        if not divergent:
            assert fac.resolvent_norm * (lam - E) == pytest.approx(1.0, rel=1e-6)

    def test_block_norm_against_dense_inverse(self):
        rng = np.random.default_rng(11)
        for seed in range(10):
            H, _ = random_hamiltonian(1, 12.0, 4, Uniform01(), seed=200 + seed)
            E = float(rng.uniform(-2.0, -0.1))
            x = float(rng.integers(-4, 0))
            y = float(rng.integers(1, 5))
            src = unit_box_mask(H.grid, (x,))
            tgt = unit_box_mask(H.grid, (y,))
            fac = ResolventFactorization(H, E)
            norm = fac.block_norms(np.flatnonzero(src), [np.flatnonzero(tgt)])[0]
            dense = np.linalg.inv(H.matrix.toarray() - E * np.eye(H.size))
            oracle = la.svdvals(dense[np.ix_(np.flatnonzero(tgt),
                                             np.flatnonzero(src))])[0]
            assert not fac.divergent
            assert norm == pytest.approx(oracle, rel=1e-6)

    def test_probe_symmetry(self):
        H, _ = random_hamiltonian(1, 12.0, 4, Bernoulli(0.5), seed=8)
        src = unit_box_mask(H.grid, (-3.0,))
        tgt = unit_box_mask(H.grid, (3.0,))
        fac = ResolventFactorization(H, -0.4)
        a = fac.block_norms(np.flatnonzero(src), [np.flatnonzero(tgt)])[0]
        b = fac.block_norms(np.flatnonzero(tgt), [np.flatnonzero(src)])[0]
        assert a == pytest.approx(b, abs=1e-8)

    @pytest.mark.parametrize("d, L, n, centers", [
        (1, 30.0, 8, None),                         # half-box masks, 119 and 79 nodes
        (2, 6.0, 12, ((-2.0, -2.0), (2.0, 1.0))),   # 121-node unit boxes
    ], ids=["1d-half-boxes", "2d-unit-boxes"])
    def test_large_masks_match_dense_inverse(self, d, L, n, centers):
        H, _ = random_hamiltonian(d, L, n, Uniform01(), seed=10)
        E = -0.5
        if centers is None:
            x = H.grid.points()[:, 0]
            src, tgt = x < 0.0, x > 5.0
        else:
            src, tgt = (unit_box_mask(H.grid, c) for c in centers)
        assert min(np.count_nonzero(src), np.count_nonzero(tgt)) > 64
        fac = ResolventFactorization(H, E)
        norm = fac.block_norms(np.flatnonzero(src), [np.flatnonzero(tgt)])[0]
        # dense columns R e_j, j in the source mask (an n x n inverse restricted)
        shifted = H.matrix.toarray()
        shifted[np.diag_indices(H.size)] -= E
        rhs = np.zeros((H.size, np.count_nonzero(src)))
        rhs[np.flatnonzero(src), np.arange(rhs.shape[1])] = 1.0
        cols = la.lu_solve(la.lu_factor(shifted, overwrite_a=True), rhs)
        oracle = la.svdvals(cols[np.flatnonzero(tgt), :])[0]
        assert not fac.divergent
        assert norm == pytest.approx(oracle, rel=1e-10)

    def test_block_norms_of_unequal_targets(self):
        # unit boxes clipped by the box edge hold 9, 6 or 4 nodes; the
        # batched SVDs per node count equal one SVD per target, bit for bit
        H, _ = random_hamiltonian(2, 6.0, 4, Uniform01(), seed=12)
        fac = ResolventFactorization(H, -0.5)
        source = unit_box_mask(H.grid, (0.0, 0.0))
        centers = [(2.0, 1.0), (-2.8, 0.0), (0.0, 2.9), (2.9, 2.9), (-1.0, 2.0),
                   (-2.9, -2.8), (1.0, -2.9), (2.0, -2.0), (-2.8, 2.0)]
        targets = [unit_box_mask(H.grid, c) for c in centers]
        counts = [int(t.sum()) for t in targets]
        assert sorted(set(counts)) == [4, 6, 9]
        norms = fac.block_norms(np.flatnonzero(source), [np.flatnonzero(t) for t in targets])
        rhs = np.zeros((H.size, int(source.sum())))
        rhs[np.flatnonzero(source), np.arange(rhs.shape[1])] = 1.0
        sol = fac.solve(rhs)
        one_by_one = np.array([np.linalg.svd(sol[np.flatnonzero(t), :], compute_uv=False)[0]
                               for t in targets])
        assert norms.tobytes() == one_by_one.tobytes()
        dense = np.linalg.inv(H.matrix.toarray() + 0.5 * np.eye(H.size))
        oracle = [la.svdvals(dense[np.ix_(np.flatnonzero(t), np.flatnonzero(source))])[0]
                  for t in targets]
        assert norms == pytest.approx(oracle, rel=1e-12)


def _unit_box_nodes(H):
    """Sorted node indices of the unit box around each lattice site."""
    return [np.flatnonzero(unit_box_mask(H.grid, c))
            for c in lattice_sites(H.grid.box).astype(float)]


def _svd_norms(fac, source, targets):
    """The solved source columns and one SVD per target block."""
    rhs = np.zeros((fac.n, len(source)))
    rhs[source, np.arange(len(source))] = 1.0
    sol = fac.solve(rhs)
    return np.array([np.linalg.svd(sol[t], compute_uv=False)[0] for t in targets])


class TestBlockNorms:
    # one solve and one SVD per target, bit for bit, whatever the structure:
    # targets on one side of the source, straddling it and overlapping it,
    # at energies below, inside, far below and above the spectrum
    @settings(max_examples=30, deadline=None)
    @given(structure=st.sampled_from(["dirichlet", "periodic", "2-d"]),
           L=st.integers(10, 60), n=st.integers(4, 8), seed=st.integers(0, 2**16),
           where=st.sampled_from(["below", "deep", "between", "near", "above"]),
           rank=st.floats(0.0, 1.0))
    @example(structure="dirichlet", L=60, n=8, seed=1, where="deep", rank=0.5)
    @example(structure="periodic", L=12, n=4, seed=32, where="between", rank=0.5)
    @example(structure="2-d", L=13, n=4, seed=3, where="near", rank=0.1)
    def test_one_solve_and_one_svd_per_target(self, structure, L, n, seed, where, rank):
        d, boundary = (2, "dirichlet") if structure == "2-d" else (1, structure)
        if d == 2:
            L, n = 4 + L % 5, 4             # at most 961 nodes
        box = make_box(d, L)
        H = assemble(box, n=n, boundary=boundary,
                     config=sample_configuration(Uniform01(), box, None, seed, 0))
        assert spectral.is_tridiagonal(H) == (structure == "dirichlet")
        vals = la.eigvalsh(H.matrix.toarray())
        k = int(rank * (len(vals) - 2))
        energy = {"below": vals[0] - 0.5,
                  "deep": -150.0,             # 1-d norms down to 1e-290 and below
                  "between": 0.5 * (vals[k] + vals[k + 1]),
                  "near": vals[k] + 1e-9,
                  "above": vals[-1] + 1.0}[where]
        fac = ResolventFactorization(H, energy)
        boxes = _unit_box_nodes(H)
        m = len(boxes)
        for a in range(0, m, 3):
            around = np.union1d(boxes[a - 1], boxes[(a + 1) % m])  # one on each side
            holding = np.union1d(around, boxes[a])                  # holds the source
            overlapping = np.union1d(boxes[a], boxes[(a + 1) % m])[len(boxes[a]) // 2:]
            targets = boxes[:a] + boxes[a + 1:] + [around, holding, overlapping]
            norms = fac.block_norms(boxes[a], targets)
            assert norms.tobytes() == _svd_norms(fac, boxes[a], targets).tobytes()
        # a source with no target is still solved, as check_goodness expects
        solves = []
        fac.solve = lambda rhs: solves.append(rhs) or np.zeros_like(rhs)
        assert fac.block_norms(boxes[0], []).shape == (0,) and len(solves) == 1


class TestRankOneBlockNorms:
    # in 1-d Dirichlet boxes R between separated unit boxes is a rank-one
    # block: block_norms there, and at straddling or periodic targets, is
    # still its largest singular value
    @settings(max_examples=25, deadline=None)
    @given(L=st.integers(10, 60), n=st.integers(4, 8), seed=st.integers(0, 2**16),
           where=st.sampled_from(["below", "deep", "between", "near", "above"]),
           rank=st.floats(0.0, 1.0))
    def test_separated_targets_match_svd(self, L, n, seed, where, rank):
        H, _ = random_hamiltonian(1, float(L), n, Uniform01(), seed=seed)
        vals = la.eigvalsh_tridiagonal(H.matrix.diagonal(), H.matrix.diagonal(1))
        k = int(rank * (len(vals) - 2))
        energy = {"below": vals[0] - 0.5,
                  "deep": -150.0,             # norms down to 1e-290 and below
                  "between": 0.5 * (vals[k] + vals[k + 1]),
                  "near": vals[k] + 1e-9,
                  "above": vals[-1] + 1.0}[where]
        fac = ResolventFactorization(H, energy)
        boxes = _unit_box_nodes(H)
        for a in range(0, len(boxes), 3):
            targets = boxes[:a] + boxes[a + 1:]
            norms = fac.block_norms(boxes[a], targets)
            svd = _svd_norms(fac, boxes[a], targets)
            big = svd > 1e-290
            assert np.all(np.abs(norms[big] - svd[big]) <= 1e-12 * svd[big])

    def test_straddling_and_non_tridiagonal_targets_keep_the_svd(self, monkeypatch):
        H, _ = random_hamiltonian(1, 20.0, 6, Uniform01(), seed=31)
        fac = ResolventFactorization(H, -0.5)
        boxes = _unit_box_nodes(H)          # 19 boxes; box 9 is centered at 0
        source = boxes[9]
        straddling = [np.concatenate(boxes[8:11]),            # holds the source
                      np.concatenate([boxes[3], boxes[15]]),  # one box on each side
                      np.concatenate(boxes[9:11])[3:]]        # overlaps its right end
        targets = [boxes[0], straddling[0], boxes[18], straddling[1], straddling[2]]
        norms = fac.block_norms(source, targets)
        svd = _svd_norms(fac, source, targets)
        assert norms[[1, 3, 4]].tobytes() == svd[[1, 3, 4]].tobytes()
        assert norms[[0, 2]] == pytest.approx(svd[[0, 2]], rel=1e-12)
        # a source with no target is still solved, as check_goodness expects
        solves = []
        monkeypatch.setattr(ResolventFactorization, "solve",
                            lambda self, rhs: solves.append(rhs) or np.zeros_like(rhs))
        assert fac.block_norms(source, []).shape == (0,) and len(solves) == 1
        monkeypatch.undo()
        # periodic boundaries wrap the stencil: no target is one-sided there
        H = periodic_hamiltonian(12.0, seed=32)
        fac = ResolventFactorization(H, -0.5)
        boxes = _unit_box_nodes(H)
        norms = fac.block_norms(boxes[0], boxes[2:])
        assert norms.tobytes() == _svd_norms(fac, boxes[0], boxes[2:]).tobytes()


def _dense_pair_norms(H, energy, nodes, first, second):
    """Largest singular value of each block of a dense inverse of H - E."""
    G = np.linalg.inv(H.matrix.toarray() - energy * np.eye(H.size))
    return np.array([la.svdvals(G[np.ix_(nodes[b], nodes[a])])[0]
                     for a, b in zip(first, second)])


class TestSemiseparableNorms:
    # every unit-box pair of a 1-d Dirichlet box from the generators of R:
    # below the spectrum, inside it and far below it
    @settings(max_examples=40, deadline=None)
    @given(L=st.integers(5, 60), n=st.sampled_from([2, 4, 8]),
           law=st.sampled_from([Bernoulli(0.5), Uniform01()]), seed=st.integers(0, 10**6),
           where=st.sampled_from(["below", "between", "far"]), rank=st.floats(0.0, 1.0))
    def test_matches_dense_inverse(self, L, n, law, seed, where, rank):
        H, _ = random_hamiltonian(1, float(L), n, law, seed=seed)
        vals = la.eigvalsh_tridiagonal(H.matrix.diagonal(), H.matrix.diagonal(1))
        k = int(rank * (len(vals) - 2))
        if where == "between":
            assume(vals[k + 1] - vals[k] >= 2e-6 * H.norm_bound())
        energy = {"below": vals[0] - 1e-3 - rank,
                  "between": 0.5 * (vals[k] + vals[k + 1]),
                  "far": -50.0}[where]
        fac = ResolventFactorization(H, energy)
        nodes = _unit_box_nodes(H)
        first, second = np.triu_indices(len(nodes), k=1)
        norms = fac.pair_norms(nodes, first, second, np.ones(len(first)))
        assert norms.fallback is None and not norms.indeterminate
        dense = _dense_pair_norms(H, energy, nodes, first, second)
        big = dense > 1e-280
        assert np.all(np.abs(norms.measured[big] - dense[big]) <= 1e-10 * dense[big])

    def test_fallbacks_take_the_per_source_path(self, monkeypatch):
        H, _ = random_hamiltonian(1, 20.0, 4, Uniform01(), seed=41)
        nodes = _unit_box_nodes(H)
        first, second = np.triu_indices(len(nodes), k=1)
        bound = np.ones(len(first))

        def per_source(fac):
            with monkeypatch.context() as patch:
                patch.setattr(spectral, "_semiseparable_logs", lambda a, b: None)
                return fac.pair_norms(nodes, first, second, bound).measured

        # E on the first diagonal entry: the first forward Schur complement is 0
        fac = ResolventFactorization(H, H.matrix.diagonal()[0])
        assert not fac.divergent
        norms = fac.pair_norms(nodes, first, second, bound)
        assert norms.fallback == "zero or non-finite Schur complement"
        assert norms.measured.tobytes() == per_source(fac).tobytes()
        dense = _dense_pair_norms(H, fac.energy, nodes, first, second)
        assert norms.measured == pytest.approx(dense, rel=1e-8)
        # generators off by 2e-6: the certifying solve disagrees
        logs = spectral._semiseparable_logs
        monkeypatch.setattr(spectral, "_semiseparable_logs",
                            lambda a, b: tuple(g + 1e-6 for g in logs(a, b)))
        fac = ResolventFactorization(H, -0.5)
        norms = fac.pair_norms(nodes, first, second, bound)
        assert norms.fallback.startswith("certifying solve differs")
        assert norms.measured.tobytes() == per_source(fac).tobytes()

    def test_one_certifying_solve_and_empty_boxes(self, monkeypatch):
        H, _ = random_hamiltonian(1, 20.0, 4, Bernoulli(0.5), seed=42)
        fac = ResolventFactorization(H, -0.5)
        nodes = _unit_box_nodes(H)
        nodes[3] = nodes[3][:0]                  # a box with no nodes is not probed
        first, second = np.triu_indices(len(nodes), k=1)
        bound = np.exp(-0.4 * (second - first))
        solves = []
        solve = ResolventFactorization.solve
        monkeypatch.setattr(ResolventFactorization, "solve",
                            lambda self, rhs: solves.append(rhs.shape) or solve(self, rhs))
        norms = fac.pair_norms(nodes, first, second, bound)
        probed = (first != 3) & (second != 3)
        assert norms.fallback is None and np.isnan(norms.measured[~probed]).all()
        # the pair nearest its bound is solved directly, and its value is kept
        top = np.flatnonzero(probed)[np.argmax(norms.measured[probed] / bound[probed])]
        assert solves == [(H.size, len(nodes[first[top]]))]
        direct = fac.block_norms(nodes[first[top]], [nodes[second[top]]])[0]
        assert norms.measured[top] == direct
        dense = _dense_pair_norms(H, -0.5, nodes, first[probed], second[probed])
        assert norms.measured[probed] == pytest.approx(dense, rel=1e-10)


class TestWeylCounting:
    def test_window_count_bound_stable(self):
        # #{eigenvalues <= E} <= C (1+E)^(d/2) L^d with one fitted C, stable
        # within a factor 2 across L in {10, 20, 40}
        E = 2.0
        cs = []
        for L in (10, 20, 40):
            H, _ = random_hamiltonian(1, float(L), 4, Bernoulli(0.5), seed=int(L))
            count = len(eigs_window(H, (-0.1, E)).energies)
            cs.append(count / ((1 + E) ** 0.5 * L))
        c_fit = max(cs)
        assert all(c_fit <= 2.0 * c or c == 0 for c in cs)
        assert all(c <= c_fit for c in cs)


class TestEvolve:
    def test_t0_identity_and_unitarity(self):
        H, _ = random_hamiltonian(1, 8.0, 4, Uniform01(), seed=12)
        w = H.grid.weight()
        psi0 = np.zeros(H.size)
        psi0[H.size // 2] = 1.0
        psi0 /= np.sqrt(w) * np.linalg.norm(psi0)
        psi_t, deficit = evolve(H, psi0, 0.0)
        assert np.allclose(psi_t, psi0)
        psi_t, deficit = evolve(H, psi0, 2.7)
        assert abs(np.sqrt(w) * np.linalg.norm(psi_t) - 1.0) <= 1e-10
        assert deficit <= 1e-10

    def test_tridiagonal_whole_spectrum_at_any_size(self, monkeypatch):
        # the whole-spectrum window needs k = n pairs, beyond ARPACK; a
        # tridiagonal H never reaches the size decision
        monkeypatch.setattr(spectral, "DENSE_MAX_VECTORS", 0)
        H, _ = random_hamiltonian(1, 8.0, 4, Uniform01(), seed=12)
        w = H.grid.weight()
        psi0 = np.zeros(H.size)
        psi0[H.size // 3] = 1.0
        psi0 /= np.sqrt(w) * np.linalg.norm(psi0)
        psi_t, deficit = evolve(H, psi0, 2.7)
        assert abs(np.sqrt(w) * np.linalg.norm(psi_t) - 1.0) <= 1e-10
        assert deficit < 1e-10

    def test_two_site_closed_form(self):
        # two interior nodes: H = [[a, b], [b, a]];
        # exp(-itH) = e^{-iat} [[cos(bt), -i sin(bt)], [-i sin(bt), cos(bt)]]
        H = assemble(make_box(1, 1.5), n=2)
        dense = H.matrix.toarray()
        assert dense.shape == (2, 2)
        a, b = dense[0, 0], dense[0, 1]
        w = H.grid.weight()
        psi0 = np.array([1.0, 0.0]) / np.sqrt(w)
        t = 0.37
        psi_t, _ = evolve(H, psi0, t)
        expected = np.exp(-1j * a * t) * np.array(
            [np.cos(b * t), -1j * np.sin(b * t)]) / np.sqrt(w)
        assert np.allclose(psi_t, expected, atol=1e-12)

    def test_windowed_deficit_flagged(self):
        H, _ = random_hamiltonian(1, 8.0, 4, Uniform01(), seed=13)
        w = H.grid.weight()
        psi0 = np.zeros(H.size)
        psi0[2] = 1.0
        psi0 /= np.sqrt(w) * np.linalg.norm(psi0)
        _, deficit = evolve(H, psi0, 1.0, window=(0.0, 1.0))
        assert deficit > 1e-6  # a narrow window cannot carry a point mass
