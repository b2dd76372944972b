import math

import numpy as np
import pytest
import scipy.linalg as la

from andlab.discretize import GridSpec, PeriodicField, assemble_hamiltonian
from andlab.errors import GeometryError, ValidationError
from andlab.model import BoxSpec, Configuration, SiteProfile, Uniform01, \
    lattice_sites, sample_configuration
from andlab.qucp import (BallSpec, RadialBump, carleman_constant,
                         carleman_exponent_integral, carleman_phi, carleman_ratio,
                         euclidean_diameter, euclidean_distance,
                         periodic_projection_gap, periodized_ball_indicator,
                         qucp_verify)
from andlab.spectral import eigs_window

from conftest import assemble, make_box


def series_exponent(s, terms=60):
    """Oracle: alternating series sum_k (-1)^(k+1) s^k / (k k!)."""
    total, term = 0.0, 1.0
    for k in range(1, terms):
        term = term * s / k
        total += (-1) ** (k + 1) * term / k
    return total


class TestCarlemanWeight:
    def test_constant_against_series(self):
        c1 = carleman_constant()
        assert c1 == pytest.approx(math.exp(series_exponent(1.0)), abs=1e-12)
        assert math.exp(0.75) < c1 < math.e
        assert c1 == pytest.approx(2.2179860496, abs=1e-6)
        assert series_exponent(1.0) == pytest.approx(0.796600, abs=1e-6)

    def test_integral_series_identity_crossover(self):
        for s in (0.1, 0.5, 0.74, 0.76, 1.0, 2.0, 5.0):
            assert carleman_exponent_integral(s) == pytest.approx(
                series_exponent(s), rel=1e-12)

    def test_phi_monotone_zero(self):
        s = np.linspace(0.0, 3.0, 200)
        phi = carleman_phi(s)
        assert phi[0] == 0.0
        assert np.all(np.diff(phi) > 0.0)

    def test_weight_sandwich(self):
        rng = np.random.default_rng(6)
        rho = 2.3
        c1 = carleman_constant()
        pts = rng.uniform(-rho / math.sqrt(3), rho / math.sqrt(3), size=(1000, 3))
        r = np.linalg.norm(pts, axis=1)
        w = carleman_phi(r / rho)
        assert np.all(w >= r / (c1 * rho) - 1e-12)
        assert np.all(w <= r / rho + 1e-12)

    def test_origin(self):
        assert carleman_phi(np.linalg.norm(np.zeros((1, 2)), axis=1) / 1.0)[0] == 0.0


class TestCarlemanRatio:
    def test_stable_under_refinement(self):
        sample = RadialBump(1.5, 0.8)
        a = carleman_ratio(sample, 6.0, 4.0, 2, quad_points=300)
        b = carleman_ratio(sample, 6.0, 4.0, 2, quad_points=900)
        assert a == pytest.approx(b, rel=0.02)

    def test_scale_invariance_of_f(self):
        # the ratio is homogeneous of degree zero in f; scaling f by c is
        # invisible (b is fixed, so compare two widths instead)
        sample = RadialBump(1.5, 0.8)
        a = carleman_ratio(sample, 6.0, 4.0, 2)
        # multiplying f by a constant rescales both integrals identically; the
        # implementation works in logs, so this is the numerical no-op check
        assert a == pytest.approx(carleman_ratio(sample, 6.0, 4.0, 2), rel=1e-12)

    def test_alpha_scan_bounded(self):
        sample = RadialBump(1.5, 0.7)
        base = 4.0
        ratios = [carleman_ratio(sample, a, 4.0, 2) for a in (base, 2 * base, 4 * base)]
        c3 = max(ratios)
        assert np.isfinite(c3) and c3 > 0.0

    def test_support_violation(self):
        with pytest.raises(ValidationError):
            carleman_ratio(RadialBump(3.8, 0.5), 6.0, 4.0, 2)   # pokes past rho
        with pytest.raises(ValidationError):
            carleman_ratio(RadialBump(0.3, 0.5), 6.0, 4.0, 2)   # covers the origin


class TestQucpVerify:
    def _eigenpair(self, seed=0, L=16.0):
        box = make_box(1, L)
        cfg = sample_configuration(Uniform01(), box, None, seed, 0)
        H = assemble(box, n=4, config=cfg)
        res = eigs_window(H, (0.0, 1.0))
        return H, res.vectors[:, 0], float(res.energies[0])

    def test_exact_eigenfunction_residual_negligible(self):
        H, psi, E = self._eigenpair()
        theta = make_box(1, 2.0)
        fit = qucp_verify(H, psi, E, theta, 1.0, [(6.0,)])
        rec = fit.records[0]
        assert rec.skipped is None
        # zeta = H psi - E psi vanishes at solver tolerance, so lhs is pure
        # local mass (up to the 1+K factor)
        local = (1.0 + rec.K) * H.grid.norm(
            psi[BallSpec(1, (6.0,), 0.5).contains(H.grid.points())]) ** 2
        assert rec.lhs == pytest.approx(local, rel=1e-6)

    def test_probe_below_D_skipped(self):
        H, psi, E = self._eigenpair()
        theta = make_box(1, 2.0)
        fit = qucp_verify(H, psi, E, theta, 1.0, [(1.5,)], D=2.0)
        assert fit.records[0].skipped is not None

    def test_ball_outside_box_skipped(self):
        H, psi, E = self._eigenpair()
        theta = make_box(1, 2.0)
        fit = qucp_verify(H, psi, E, theta, 1.0, [(7.9,)])
        assert fit.records[0].skipped is not None

    def test_unique_continuation_floor(self):
        # every admissible probe ball carries mass above 1e-13 |psi|
        for seed in range(4):
            H, psi, E = self._eigenpair(seed=seed, L=16.0)
            theta = make_box(1, 2.0)
            probes = [(x,) for x in (-6.0, -4.0, 4.0, 6.0)]
            fit = qucp_verify(H, psi, E, theta, 1.0, probes)
            for rec in fit.records:
                if rec.skipped is None:
                    assert math.sqrt(rec.lhs / (1.0 + rec.K)) > 1e-13

    def test_kappa_fit_on_periodic_benchmark(self):
        # 1D Dirichlet ground state with V_per = cos: kappa-hat <= 4/3 + 0.3
        box = make_box(1, 40.0)
        sites = lattice_sites(box)
        cfg = Configuration(box, np.zeros(len(sites)))
        v_per = PeriodicField(lambda pts: 1.0 + np.cos(
            2.0 * np.pi * np.atleast_2d(pts)[:, 0]), 1)
        H = assemble_hamiltonian(box, GridSpec(8), SiteProfile(), cfg, v_per)
        res = eigs_window(H, (0.0, 1.0), max_count=2)
        psi, E = res.vectors[:, 0], float(res.energies[0])
        theta = make_box(1, 2.0)
        # bulk probes: the Dirichlet envelope zero near the box edge is a
        # boundary artifact, not unique-continuation physics
        probes = [(x,) for x in (3.0, 5.0, 7.0, 9.0, 11.0, 13.0)]
        fit = qucp_verify(H, psi, E, theta, 1.0, probes)
        assert fit.kappa_hat is not None
        assert fit.kappa_hat <= 4.0 / 3.0 + 0.3


COSINE_1D = PeriodicField(lambda pts: 0.5 + 0.5 * np.cos(
    np.pi * np.atleast_2d(pts)[:, 0]), 2)
COSINE_2D = PeriodicField(lambda pts: 0.5 + 0.25 * np.sum(
    np.cos(np.pi * np.atleast_2d(pts)), axis=1), 2)


class TestPeriodicGap:
    @pytest.mark.parametrize("v_per, d, L, n, interval, delta, count", [
        (None, 1, 8.0, 4, (0.0, 0.5), 0.5, 1),
        (COSINE_1D, 1, 8.0, 4, (0.0, 1.2), 1.0, 3),
        (None, 1, 8.0, 2, (0.0, 1.0), 0.5, 3),
        (None, 2, 8.0, 4, (0.0, 0.8), 0.5, 5),
        (COSINE_2D, 2, 8.0, 3, (0.0, 1.2), 1.0, 5),
    ], ids=["d1-free", "d1-cosine-q2", "d1-two-node-cells", "d2-free-zero-mode-on-edge",
            "d2-cosine-q2"])
    def test_free_benchmark_against_dense_oracle(self, v_per, d, L, n, interval, delta,
                                                 count):
        res = periodic_projection_gap(v_per, L, GridSpec(n, "periodic"), interval, delta, d)
        # independent oracle: dense eigh of the whole box, same edge convention
        H = assemble(make_box(d, L), n=n, boundary="periodic", v_per=v_per)
        vals, vecs = la.eigh(H.matrix.toarray())
        tol = 1e-12 * H.norm_bound()
        inside = (vals >= interval[0] - tol) & (vals <= interval[1] + tol)
        q = 1 if v_per is None else v_per.period
        W = periodized_ball_indicator(H.grid.points(), q, delta)
        P = vecs[:, inside]
        oracle = la.eigvalsh(P.T @ (W[:, None] * P))[0]
        assert res.count == int(inside.sum()) == count
        assert res.gap == pytest.approx(oracle, rel=1e-12)

    def test_2d_beyond_dense_reach(self):
        # n = 160^2 = 25600 nodes: a dense solve would need 5 GB
        res = periodic_projection_gap(None, 40.0, GridSpec(4, "periodic"),
                                      (0.0, 0.5), 0.5, 2)
        mu = 64.0 * np.sin(np.pi * np.arange(160) / 160) ** 2
        assert res.count == int(np.sum(mu[:, None] + mu[None, :] <= 0.5)) == 69
        assert 0.0 < res.gap <= 1.0

    def test_covering_delta_gap_at_least_one(self):
        # h = 1/3 grid never meets the half-integer boundary, so delta = q
        # covers every node and W >= 1 pointwise
        res = periodic_projection_gap(None, 6.0, GridSpec(3, "periodic"),
                                      (0.0, 0.5), 1.0, 1)
        assert res.gap >= 1.0 - 1e-12

    def test_empty_window(self):
        res = periodic_projection_gap(None, 8.0, GridSpec(4, "periodic"),
                                      (-2.0, -1.0), 0.5, 1)
        assert res.empty and res.gap is None

    def test_gap_monotone_in_delta(self):
        gaps = [periodic_projection_gap(None, 8.0, GridSpec(4, "periodic"),
                                        (0.0, 0.8), dl, 1).gap
                for dl in (0.25, 0.5, 0.75, 1.0)]
        assert all(a <= b + 1e-12 for a, b in zip(gaps, gaps[1:]))

    def test_positive_with_cosine_potential(self):
        res = periodic_projection_gap(COSINE_1D, 8.0, GridSpec(4, "periodic"),
                                      (0.0, 1.2), 1.0, 1)
        assert res.count > 0 and res.gap > 0.0

    def test_preconditions(self):
        with pytest.raises(ValidationError):
            periodic_projection_gap(None, 8.0, GridSpec(4), (0.0, 0.5), 0.5, 1)
        field = PeriodicField(lambda pts: np.zeros(len(np.atleast_2d(pts))), 3)
        with pytest.raises(GeometryError):
            periodic_projection_gap(field, 8.0, GridSpec(4, "periodic"),
                                    (0.0, 0.5), 0.5, 1)


class TestEuclideanGeometry:
    def test_distances_and_diameters(self):
        ball = BallSpec(2, (0.0, 0.0), 1.0)
        assert euclidean_diameter(ball) == 2.0
        assert euclidean_distance(ball, (3.0, 4.0)) == pytest.approx(4.0)
        box = BoxSpec(2, (0.0, 0.0), 2.0)
        assert euclidean_diameter(box) == pytest.approx(2.0 * math.sqrt(2.0))
        assert euclidean_distance(box, (4.0, 0.0)) == pytest.approx(3.0)
        assert euclidean_distance(box, (0.5, 0.5)) == 0.0

    @pytest.mark.parametrize("make", [lambda: BallSpec(2, (0.0,), 1.0),
                                      lambda: BallSpec(0, (), 1.0)])
    def test_ball_center_must_match_its_dimension(self, make):
        with pytest.raises(ValidationError):
            make()
