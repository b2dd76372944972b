import math
from functools import partial

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import andlab.ids
import andlab.spectral
from andlab.discretize import Ensemble, GridSpec
from andlab.errors import ValidationError
from andlab.ids import (IdsCurve, checked_energy_grid, free_ids_weyl, ids_counts, ids_curve,
                        log_holder_modulus)
from andlab.model import Atoms, Bernoulli, SiteProfile

from conftest import make_box


def free_curve(L, n, energies, d=1):
    grid = np.asarray(energies, dtype=float)
    ens = Ensemble(Atoms(((0.0, 1.0),)), GridSpec(n), SiteProfile())
    return ids_curve(grid, [ids_counts(ens, make_box(d, L), grid, 0)], L ** d)


class TestIdsEstimate:
    def test_free_weyl_oracle(self):
        curve = free_curve(100.0, 8, [1.0])
        assert curve.values[0] == pytest.approx(1.0 / math.pi, rel=0.05)

    def test_nondecreasing_and_nonnegative(self):
        ens = Ensemble(Bernoulli(0.5), GridSpec(4), SiteProfile(), root_seed=3)
        grid = np.linspace(0.05, 2.0, 12)
        curve = ids_curve(grid, [ids_counts(ens, make_box(1, 30.0), grid, t) for t in range(8)],
                          30.0)
        assert np.all(np.diff(curve.values) >= 0.0)
        assert np.all(curve.values >= 0.0)

    def test_zero_below_spectrum(self):
        ens = Ensemble(Bernoulli(0.5), GridSpec(4), SiteProfile(), root_seed=1)
        grid = np.array([-1.0, -0.5])
        curve = ids_curve(grid, [ids_counts(ens, make_box(1, 20.0), grid, t) for t in range(4)],
                          20.0)
        assert np.all(curve.values == 0.0)

    def test_reproducible(self):
        ens = Ensemble(Bernoulli(0.5), GridSpec(4), SiteProfile(), root_seed=77)
        grid = np.array([0.5, 1.0])
        a, b = (ids_curve(grid, [ids_counts(ens, make_box(1, 16.0), grid, t) for t in range(5)],
                          16.0) for _ in range(2))
        assert np.array_equal(a.values, b.values)

    def test_zero_trials_refused(self):
        with pytest.raises(ValidationError, match="at least one trial"):
            ids_curve(np.array([0.5]), [], 10.0)

    def test_2d_matches_1d_free_structure(self):
        # tensor structure sanity: the 2-d free IDS at E is bounded by the
        # Weyl value with the usual finite-size deficit
        curve = free_curve(16.0, 4, [2.0], d=2)
        assert 0.0 < curve.values[0] <= free_ids_weyl(2.0, 2) * 1.2


class TestEnergyGrid:
    # on the model of configs/ids.json, a running maximum over [1.5, 0.1, 0.6]
    # would read N(0.1) = 0.319, the value at 1.5, where the sorted grid reads 0.0069
    @pytest.mark.parametrize("grid", [[1.5, 0.1, 0.6], [0.1, 0.6, 0.6, 1.5],
                                      {"start": 1.5, "stop": 0.1, "num": 4},
                                      [1.7976931348623157e308, -9.9792015476736e291]])
    def test_unsorted_or_repeated_grid_refused(self, grid):
        with pytest.raises(ValidationError, match="strictly increasing"):
            checked_energy_grid(grid)

    @pytest.mark.parametrize("grid", [[], [0.1, float("nan")], [0.1, float("inf")],
                                      np.array([[0.1, 0.2]]), [0.1, True], ["0.5"], 0.5,
                                      {"start": 0.1, "stop": 1.0, "num": 0},
                                      {"start": 0.1, "stop": 1.0, "num": 2.5},
                                      {"start": 0.1, "stop": 1.0, "num": True},
                                      {"start": False, "stop": 1.0, "num": 3},
                                      {"start": 0.1, "stop": 1.0},
                                      {"start": 0.1, "stop": 1.0, "num": 3, "count": 3}])
    def test_malformed_grid_refused(self, grid):
        with pytest.raises(ValidationError, match="energy_grid"):
            checked_energy_grid(grid)

    @pytest.mark.parametrize("grid", [
        {"start": -1.7976931348623157e308, "stop": 1.7976931348623157e308, "num": 3},
        {"start": float("-inf"), "stop": 1.0, "num": 3}])
    def test_object_grid_span_must_be_finite(self, grid):
        # np.linspace would overflow on stop - start
        with pytest.raises(ValidationError, match="stop - start must be finite"):
            checked_energy_grid(grid)

    def test_accepted_grids(self):
        assert checked_energy_grid({"start": 0.1, "stop": 1.5, "num": 8}).tolist() == \
            np.linspace(0.1, 1.5, 8).tolist()
        assert checked_energy_grid({"start": 0.1, "stop": 0.1, "num": 1}).tolist() == [0.1]
        assert checked_energy_grid([0, 0.5, np.float64(2)]).tolist() == [0.0, 0.5, 2.0]
        # finite extremes, whose difference overflows
        extremes = [-1.7976931348623157e308, 1.7976931348623157e308]
        assert checked_energy_grid(extremes).tolist() == extremes

    @settings(max_examples=40, deadline=None)
    @given(grid=st.lists(st.floats(-1.0, 6.0), min_size=1, max_size=12, unique=True)
           .map(sorted), n_samples=st.integers(1, 4))
    def test_values_are_the_measured_mean(self, grid, n_samples):
        energies = checked_energy_grid(grid)
        trial = partial(ids_counts, Ensemble(Bernoulli(0.5), GridSpec(4), SiteProfile(),
                                             root_seed=7), make_box(1, 10.0), energies)
        counts = np.array([trial(t) for t in range(n_samples)])
        curve = ids_curve(energies, counts, 10.0)
        assert np.array_equal(curve.values, counts.mean(axis=0) / 10.0)
        assert np.all(np.diff(curve.values) >= 0.0)

    def test_spectra_come_from_spectral(self):
        # the benchmark traces andlab.ids.full_spectrum; ids chooses no solver
        assert andlab.ids.full_spectrum is andlab.spectral.full_spectrum
        held = [id(value) for value in vars(andlab.ids).values()]
        assert id(andlab.spectral.is_tridiagonal) not in held
        assert id(scipy.linalg) not in held


class TestLogHolder:
    def test_fit_recovers_planted_slope(self):
        # plant N(E) = exp(intercept) |log dE|^slope increments on a geometric
        # grid and recover the slope
        energies = np.array([1e-4, 1e-3, 1e-2, 1e-1, 0.3])
        slope_true = -2.0
        values = np.cumsum([0.0] + [abs(math.log(de)) ** slope_true
                                    for de in np.diff(energies)])
        curve = IdsCurve(energies, values, np.zeros_like(values), 1, 1.0)
        fit = log_holder_modulus(curve)
        assert fit.slope == pytest.approx(slope_true, rel=1e-6)
        assert fit.constant == pytest.approx(1.0, rel=1e-6)

    def test_uniform_grid_rejected(self):
        energies = np.linspace(0.1, 0.5, 5)
        values = np.linspace(0.0, 0.1, 5)
        curve = IdsCurve(energies, values, np.zeros_like(values), 1, 1.0)
        with pytest.raises(ValidationError):
            log_holder_modulus(curve)

    def test_lifshitz_tail_slope_negative(self):
        # log N vs E^{-1/2}: super-polynomial smallness at the bottom makes the
        # fitted slope negative for the Bernoulli model
        ens = Ensemble(Bernoulli(0.5), GridSpec(4), SiteProfile(), root_seed=5)
        grid = np.array([0.05, 0.1, 0.2, 0.35, 0.55])
        curve = ids_curve(grid, [ids_counts(ens, make_box(1, 40.0), grid, t) for t in range(60)],
                          40.0)
        mask = curve.values > 0
        assert mask.sum() >= 3
        x = curve.energies[mask] ** -0.5
        y = np.log(curve.values[mask])
        slope = np.polyfit(x, y, 1)[0]
        assert slope < 0.0


class TestFullSpectrum:
    def test_periodic_1d_not_treated_as_tridiagonal(self):
        # periodic corner entries break tridiagonality; the helper must fall
        # back to the dense path
        import scipy.linalg as la

        from andlab.ids import full_spectrum
        from conftest import assemble

        H = assemble(make_box(1, 8.0), n=4, boundary="periodic")
        got = np.sort(full_spectrum(H))
        oracle = np.sort(la.eigvalsh(H.matrix.toarray()))
        assert np.allclose(got, oracle, atol=1e-12)
        # periodic free Laplacian has the doubly degenerate cosine spectrum
        assert got[0] == pytest.approx(0.0, abs=1e-12)
        assert got[1] == pytest.approx(got[2], rel=1e-12)

    def test_dirichlet_1d_tridiagonal_matches_dense(self):
        import scipy.linalg as la

        from andlab.ids import full_spectrum
        from conftest import random_hamiltonian

        H, _ = random_hamiltonian(1, 12.0, 4, Bernoulli(0.5), seed=4)
        got = full_spectrum(H)
        assert np.all(np.diff(got) >= 0.0)
        assert np.allclose(got, la.eigvalsh(H.matrix.toarray()), atol=1e-10)


@pytest.mark.parametrize("d, L", [(1, 20.0), (2, 5.0)])
class TestTieConvention:
    """``ids_counts`` counts #{lambda <= E}; ``eigenvalue_count`` counts
    #{lambda < E}.  The two agree wherever E is not an eigenvalue."""

    @staticmethod
    def _setup(d, L):
        from andlab.discretize import assemble_hamiltonian
        from andlab.ids import full_spectrum, ids_counts
        from andlab.model import sample_configuration

        dist, box, grid = Bernoulli(0.5), make_box(d, L), GridSpec(4)
        H = assemble_hamiltonian(box, grid, SiteProfile(),
                                 sample_configuration(dist, box, None, 3, 0))
        vals = full_spectrum(H)
        # indices of eigenvalues well apart from both neighbours
        apart = np.diff(vals) > 1e-9 * H.norm_bound()
        simple = np.flatnonzero(np.r_[True, apart] & np.r_[apart, True])[::7]
        ensemble = Ensemble(dist, grid, SiteProfile(), root_seed=3)
        return H, vals, simple, lambda energies: ids_counts(ensemble, box, energies, 0)

    def test_an_eigenvalue_on_the_grid_is_counted(self, d, L):
        _, vals, simple, counts = self._setup(d, L)
        assert len(simple) >= 10
        assert counts(vals[simple]).tolist() == (simple + 1).tolist()

    def test_midway_counts_equal_eigenvalue_count(self, d, L):
        from andlab.spectral import eigenvalue_count

        H, vals, simple, counts = self._setup(d, L)
        simple = simple[simple < len(vals) - 1]
        mid = (vals[simple] + vals[simple + 1]) / 2.0
        assert counts(mid).tolist() == (simple + 1).tolist()
        assert counts(mid).tolist() == eigenvalue_count(H, mid).tolist()
