import math

import numpy as np
import pytest

from andlab.errors import ValidationError
from andlab.hs import (GaussianBump, QuadratureSpec, QuasiAnalyticExtension,
                       hnorm, hs_moment, hs_reconstruct, xi_cutoff, xi_cutoff_prime)


class TestCutoff:
    def test_plateau_and_support(self):
        s = np.array([-2.5, -2.0, -1.0, 0.0, 0.5, 1.0, 2.0, 3.0])
        vals = xi_cutoff(s)
        assert np.all(vals[np.abs(s) <= 1.0] == 1.0)
        assert np.all(vals[np.abs(s) >= 2.0] == 0.0)
        assert np.all((vals >= 0.0) & (vals <= 1.0))

    def test_smooth_transition_monotone(self):
        s = np.linspace(1.0, 2.0, 100)
        vals = xi_cutoff(s)
        assert np.all(np.diff(vals) <= 1e-12)

    def test_derivative_against_mpmath(self):
        import mpmath

        def glue(x):
            return mpmath.exp(-1 / x) if x > 0 else mpmath.mpf(0)

        def bump(s):
            x = abs(s) - 1
            return 1 - glue(x) / (glue(x) + glue(1 - x))

        # both transitions, their ends, the plateau and the zero tail
        s = np.concatenate([np.linspace(-2.5, 2.5, 201), [1.0005, 1.01, 1.99, -1.999]])
        with mpmath.workdps(40):
            oracle = np.array([float(mpmath.diff(bump, mpmath.mpf(v))) for v in s])
        assert np.max(np.abs(xi_cutoff_prime(s) - oracle)) <= 1e-12


class TestGaussianDerivatives:
    def test_against_finite_differences(self):
        g = GaussianBump(0.3, 0.8)
        u = np.linspace(-2.0, 2.5, 7)
        # step sizes balance truncation against roundoff per derivative order
        fd1 = (g(u + 1e-6) - g(u - 1e-6)) / 2e-6
        assert np.allclose(g.derivative(1, u), fd1, rtol=1e-8, atol=1e-8)
        h = 1e-4
        fd2 = (g(u + h) - 2 * g(u) + g(u - h)) / h**2
        assert np.allclose(g.derivative(2, u), fd2, rtol=1e-6, atol=1e-6)
        h = 1e-3
        fd3 = (g(u + 2 * h) - 2 * g(u + h) + 2 * g(u - h) - g(u - 2 * h)) / (2 * h**3)
        assert np.allclose(g.derivative(3, u), fd3, rtol=1e-5, atol=1e-5)


class TestExtension:
    def test_real_axis_value(self):
        ext = QuasiAnalyticExtension(GaussianBump(0.0, 1.0), 3, 1.0)
        for u in (-1.3, 0.0, 0.4, 2.0):
            assert complex(ext.value(u, 0.0)) == pytest.approx(ext.g(u))

    def test_support_strip_scaling(self):
        # doubling a halves the strip height (exact support predicate)
        g = GaussianBump(0.0, 1.0)
        for a in (1.0, 2.0, 4.0):
            ext = QuasiAnalyticExtension(g, 2, a)
            u = 0.7
            vmax = ext.support_vmax(u)
            assert vmax == pytest.approx(2.0 * math.sqrt(1 + u**2) / a)
            assert complex(ext.value(u, vmax * 1.01)) == 0.0
            assert complex(ext.value(u, vmax * 0.9)) != 0.0     # inside the strip
        half = QuasiAnalyticExtension(g, 2, 2.0).support_vmax(0.7)
        full = QuasiAnalyticExtension(g, 2, 1.0).support_vmax(0.7)
        assert half == pytest.approx(full / 2.0)

    def test_dbar_vanishes_on_plateau_of_xi_for_analytic_part(self):
        # inside |a v| <= <u>, dbar reduces to the top Taylor term ~ v^n
        ext = QuasiAnalyticExtension(GaussianBump(0.0, 1.0), 3, 1.0)
        val = complex(ext.dbar(0.2, 1e-4))
        assert abs(val) < 1e-10  # order-3 zero at the real axis

    def test_validation(self):
        with pytest.raises(ValidationError):
            QuasiAnalyticExtension(GaussianBump(), 0, 1.0)
        with pytest.raises(ValidationError):
            QuasiAnalyticExtension(GaussianBump(), 2, -1.0)


class TestReconstruction:
    def test_scalar_matrix(self):
        g = GaussianBump(0.5, 0.7)
        ext = QuasiAnalyticExtension(g, 3, 1.0)
        approx, err = hs_reconstruct(ext, 0.3 * np.eye(3), QuadratureSpec(64, 16))
        assert err <= 1e-3
        assert approx[0, 0] == pytest.approx(g(0.3), abs=1e-3)

    def test_refinement_gain(self):
        rng = np.random.default_rng(2)
        A = rng.standard_normal((10, 10))
        K = (A + A.T) / 4
        ext = QuasiAnalyticExtension(GaussianBump(0.0, 1.0), 3, 1.0)
        _, coarse = hs_reconstruct(ext, K, QuadratureSpec(12, 3))
        _, fine = hs_reconstruct(ext, K, QuadratureSpec(48, 12))
        assert fine <= coarse / 4.0

    def test_rejects_nonsymmetric(self):
        ext = QuasiAnalyticExtension(GaussianBump(), 2, 1.0)
        with pytest.raises(ValidationError):
            hs_reconstruct(ext, np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestMomentBound:
    def test_scaling_in_a(self):
        # integral of |dbar| |Im z|^{-(s+1)} <= C max(a^{s+1}, a^{s-n}) hnorm(g, n)
        g = GaussianBump(0.0, 1.0)
        n, s = 3, 1.0
        base = hnorm(g, n)
        cs = []
        for a in (0.5, 1.0, 2.0, 4.0):
            ext = QuasiAnalyticExtension(g, n, a)
            moment = hs_moment(ext, s, QuadratureSpec(48, 10))
            bound_factor = max(a ** (s + 1), a ** (s - n))
            cs.append(moment / (bound_factor * base))
        c_fit = max(cs)
        assert c_fit < 10.0  # a single modest constant covers the family
        # stability of the fitted constant under refinement
        ext = QuasiAnalyticExtension(g, n, 2.0)
        refined = hs_moment(ext, s, QuadratureSpec(96, 20))
        crude = hs_moment(ext, s, QuadratureSpec(48, 10))
        assert refined == pytest.approx(crude, rel=0.05)

    def test_hnorm_finite_and_monotone_in_n(self):
        g = GaussianBump(0.0, 1.0)
        values = [hnorm(g, n) for n in (1, 2, 3)]
        assert all(np.isfinite(values))
        assert values[0] < values[1] < values[2]
