import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from andlab import msa, spectral
from andlab.discretize import Ensemble, Grid, GridSpec, empty_configuration, unit_box_mask
from andlab.errors import ScaleError, ValidationError
from andlab.model import (Atoms, Bernoulli, BoxSpec, Configuration, SiteProfile,
                          Uniform01, lattice_sites, sample_configuration)
from andlab.msa import (PAIR_CAP, FreeSitePolicy, GAMMA_CRITICAL, MsaParams, _candidate_pairs,
                        _unit_box_nodes, check_goodness, goodness_trial, initial_scale_values,
                        ladder_row, n_hat, reduced_spectrum, restrict_configuration,
                        wilson_interval)
from andlab.rng import derive_key, uniforms
from andlab.spectral import ResolventFactorization, eigs_window, lowest_eigenvalue

from conftest import assemble, ensemble, make_box


class TestConstants:
    def test_nhat_3_in_paper_window(self):
        # 2^(1/3) - 1 < p < 2^(1/2) - 1 holds across ]1/3, 3/8[
        for i in range(100):
            p = 1 / 3 + (3 / 8 - 1 / 3) * (i + 0.5) / 100
            assert n_hat(p) == 3

    def test_nhat_edges(self):
        assert n_hat(1.5) == 1        # 2^1 - 1 = 1 < 1.5
        assert n_hat(0.9) == 2        # 1 > 0.9 but sqrt(2) - 1 < 0.9
        assert n_hat(0.45) == 2
        assert n_hat(0.25) == 4       # 2^(1/3) - 1 = 0.2599 > 0.25

    def test_M_and_mhat(self):
        P = MsaParams(d=1, p=0.35, m=1.0)
        assert P.nhat == 3
        assert P.M == pytest.approx(1.0 / 30**5)
        assert P.m_hat == pytest.approx(30.0 * P.M)

    def test_rho1_window_example(self):
        # p=0.35, varsigma=0.005: window (1/1.35, 0.74625)
        P = MsaParams(d=1, p=0.35, varsigma=0.005, varsigma_prime=0.001,
                      rho1=0.745, n1=13)
        assert P.verdicts["rhos_lower"] and P.verdicts["rhos_upper"]
        assert P.verdicts["rhos_p"]

    def test_gamma_window(self):
        assert MsaParams(d=1, p=0.35, gamma=4 / 3).verdicts["gamma_window_nonempty"]
        assert not MsaParams(d=1, p=0.35, gamma=2.0).verdicts["gamma_window_nonempty"]
        assert 4 / 3 < GAMMA_CRITICAL < 2.0

    def test_infeasible_returns_verdicts(self):
        P = MsaParams(d=1, p=0.35, rho1=0.5, n1=2)  # rho1 below 1/(1+p)
        assert not P.verdicts["rhos_lower"]
        assert not P.feasible

    def test_L_plus_minus(self):
        P = MsaParams(d=1, p=0.35, L_ref=500.0)
        assert P.L_minus == pytest.approx(499.0)
        assert P.L_plus == pytest.approx(1001.0)


class TestInitialScale:
    def test_paper_example(self):
        E_L, m_L = initial_scale_values(100.0, 0.35, 1, 1.0, 1.0, 1)
        assert E_L == pytest.approx(2.041247501496677e-3, rel=1e-9)
        assert m_L == pytest.approx(2.25900835627974e-2, rel=1e-9)

    def test_decreasing_in_L(self):
        values = [initial_scale_values(L, 0.35, 1)[0] for L in (50, 100, 200, 400)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_mL_identity(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            L = float(rng.uniform(10, 1000))
            p = float(rng.uniform(0.05, 1.5))
            eps = float(rng.uniform(0.1, 1.0))
            E_L, m_L = initial_scale_values(L, p, 2, eps, 2.0, 3)
            assert m_L == pytest.approx(0.5 * math.sqrt(E_L))

    def test_preconditions(self):
        with pytest.raises(ValidationError):
            initial_scale_values(-1.0, 0.35, 1)
        with pytest.raises(ValidationError):
            initial_scale_values(10.0, 0.35, 1, eps=1.5)


class TestGoodness:
    def test_free_operator_combes_thomas_regime(self):
        box = make_box(1, 40.0)
        rep = check_goodness(ensemble(), empty_configuration(box), -1.0, 2.0 / 3.0, 0.1)
        assert rep.weg_pass and rep.decay_pass and rep.is_good
        # dense-probe oracle on the worst recorded pair
        import scipy.linalg as la
        from andlab.discretize import unit_box_mask

        H = assemble(box, n=4)
        dense = np.linalg.inv(H.matrix.toarray() + np.eye(H.size))
        wp = rep.worst_pair
        src = np.flatnonzero(unit_box_mask(H.grid, wp.x))
        tgt = np.flatnonzero(unit_box_mask(H.grid, wp.y))
        oracle = la.svdvals(dense[np.ix_(tgt, src)])[0]
        assert wp.measured == pytest.approx(oracle, rel=1e-6)

    @pytest.mark.parametrize("d, L, seed", [(1, 20.0, 21), (2, 6.0, 22)])
    def test_worst_pair_matches_dense_inverse(self, d, L, seed):
        import scipy.linalg as la
        from andlab.discretize import unit_box_mask

        box = make_box(d, L)
        cfg = sample_configuration(Bernoulli(0.5), box, None, seed, 0)
        rep = check_goodness(ensemble(), cfg, -0.5, 0.4, 0.1)
        H = assemble(box, n=4, config=cfg)
        dense = np.linalg.inv(H.matrix.toarray() + 0.5 * np.eye(H.size))
        wp = rep.worst_pair
        src = np.flatnonzero(unit_box_mask(H.grid, wp.x))
        tgt = np.flatnonzero(unit_box_mask(H.grid, wp.y))
        oracle = la.svdvals(dense[np.ix_(tgt, src)])[0]
        assert not rep.indeterminate
        assert wp.measured == pytest.approx(oracle, rel=1e-10)

    def test_non_finite_solve_is_indeterminate(self, monkeypatch):
        def blow_up(self, source_mask, target_masks):
            raise FloatingPointError("non-finite resolvent solve")

        monkeypatch.setattr(ResolventFactorization, "block_norms", blow_up)
        box = make_box(1, 12.0)
        rep = check_goodness(ensemble(), empty_configuration(box), -1.0, 0.4, 0.1)
        assert rep.indeterminate and not rep.is_good

    def test_divergent_energy_fails(self):
        box = make_box(1, 12.0)
        H = assemble(box, n=4)
        lam = lowest_eigenvalue(H)
        rep = check_goodness(ensemble(), empty_configuration(box), lam, 0.5, 0.1)
        assert not rep.weg_pass and not rep.is_good

    def test_wegner_threshold_beyond_float_range(self):
        # 2000^0.9 = 935 > log(DBL_MAX) = 709.78: exp overflows
        box = make_box(1, 2000.0)
        cfg = sample_configuration(Bernoulli(0.5), box, None, 3, 0)
        rep = check_goodness(ensemble(), cfg, -0.5, 0.4, 0.1)
        assert rep.weg_threshold == math.inf
        assert rep.weg_pass and rep.is_good

    def test_underflowed_bound_and_norm_rank_below_every_pair(self):
        # exp(-9 d) underflows beyond d = 82.8, and the resolvent at E = -400
        # (decay rate about 13 per unit) underflows sooner: such pairs read
        # 0 against 0 and must not be reported as the worst pair
        box = make_box(1, 100.0)
        cfg = sample_configuration(Bernoulli(0.5), box, None, 3, 0)
        assert math.exp(-9.0 * 97) == 0.0
        rep = check_goodness(ensemble(), cfg, -400.0, 9.0, 0.5)
        assert rep.decay_pass and rep.is_good
        wp = rep.worst_pair
        assert wp.bound > 0.0 and 0.0 < wp.measured <= wp.bound

    def test_reported_pair_is_the_certified_pair(self, monkeypatch):
        # pairs whose bound exp(-9 d) underflowed read 0 against 0: the pair
        # the semiseparable path certifies must be the pair the report names
        box = make_box(1, 100.0)
        cfg = sample_configuration(Bernoulli(0.5), box, None, 3, 0)
        solved = []
        block_norms = ResolventFactorization.block_norms
        monkeypatch.setattr(ResolventFactorization, "block_norms", lambda self, source, targets:
                            solved.append((source, targets)) or block_norms(self, source, targets))
        rep = check_goodness(ensemble(), cfg, -400.0, 9.0, 0.5)
        assert rep.fallbacks == []
        [(source, [target])] = solved
        wp, grid = rep.worst_pair, ensemble().assemble(cfg).grid
        assert np.array_equal(source, np.flatnonzero(unit_box_mask(grid, wp.x)))
        assert np.array_equal(target, np.flatnonzero(unit_box_mask(grid, wp.y)))
        fac = ResolventFactorization(ensemble().assemble(cfg), -400.0)
        assert wp.measured == pytest.approx(block_norms(fac, source, [target])[0], rel=1e-12)

    def test_empty_free_site_policy_identity(self):
        box = make_box(1, 12.0)
        cfg = sample_configuration(Bernoulli(0.5), box, None, 3, 0)
        rep = check_goodness(ensemble(), cfg, -0.5, 0.4, 0.1)
        assert rep.policy_record == ["no-free-sites"]
        assert rep.n_free_sites == 0

    def test_free_sites_probed(self):
        box = make_box(1, 12.0)
        sites = lattice_sites(box)
        cfg = sample_configuration(Bernoulli(0.5), box, sites[:3], 3, 0)
        policy = FreeSitePolicy(corners=2, draws=2, seed=1)
        rep = check_goodness(ensemble(), cfg, -0.5, 0.4, 0.1, policy=policy)
        assert rep.n_free_sites == 3
        assert rep.policy_record == ["zeros", "ones", "corner0", "corner1",
                                     "draw0", "draw1"]
        assert len(rep.weg_norms) == 6

    def test_jgood_implied_by_good(self):
        # the doubled criterion is weaker on the same configuration
        box = make_box(1, 16.0)
        for seed in range(5):
            cfg = sample_configuration(Bernoulli(0.5), box, None, 40 + seed, 0)
            good = check_goodness(ensemble(), cfg, -0.3, 0.5, 0.1)
            jgood = check_goodness(ensemble(), cfg, -0.3, 0.5, 0.1, variant="jgood")
            if good.is_good:
                assert jgood.is_good

    def test_jgood_energy_perturbation(self):
        # good at E with rate m >= L^-tau stays jgood at E' within exp(-2mL)
        box = make_box(1, 16.0)
        m, L = 0.5, 16.0
        for seed in range(4):
            cfg = sample_configuration(Bernoulli(0.5), box, None, 60 + seed, 0)
            good = check_goodness(ensemble(), cfg, -0.3, m, 0.1)
            if not good.is_good:
                continue
            shift = math.exp(-2 * m * L)
            jrep = check_goodness(ensemble(), cfg, -0.3 + shift, m, 0.1, variant="jgood")
            assert jrep.is_good


def _reference_candidate_pairs(centers, min_dist, pair_cap, seed):
    """The per-row loop and per-pair distance list the broadcast replaced."""
    m = len(centers)
    pairs = []
    for i in range(m):
        diff = np.max(np.abs(centers[i + 1:] - centers[i]), axis=1)
        for j in np.flatnonzero(diff >= min_dist):
            pairs.append((i, i + 1 + int(j)))
    if len(pairs) <= pair_cap:
        return pairs
    dist = np.array([np.max(np.abs(centers[a] - centers[b])) for a, b in pairs])
    order = np.argsort(dist)
    keep = set(order[-pair_cap // 4:].tolist())
    u = uniforms(derive_key(seed, 0xFA1), np.arange(len(pairs), dtype=np.uint64))
    for idx in np.argsort(u):
        if len(keep) >= pair_cap:
            break
        keep.add(int(idx))
    return [pairs[i] for i in sorted(keep)]


class TestWegnerCrossing:
    @pytest.mark.parametrize("energy", [5.10, 5.52, 5.99, 6.49])
    def test_crossing_is_not_good(self, energy):
        # N(E) falls by one from all-zeros to all-ones: some t_S puts an
        # eigenvalue on E, while every sampled |R| stays far below threshold
        box = BoxSpec(1, (0.0,), 30.0)
        cfg = sample_configuration(Bernoulli(0.5), box, np.array([[-10], [-5], [0], [5], [10]]),
                                   0, 0)
        rep = check_goodness(ensemble(), cfg, energy, 0.4, 0.1)
        assert max(v for _, v in rep.weg_norms[:-1]) < 1e3 < rep.weg_threshold
        assert rep.weg_norms[-1] == ("crossing", math.inf)
        assert not rep.weg_pass and not rep.is_good

    def test_no_free_sites_no_count(self, monkeypatch):
        def count(*args):
            raise AssertionError("counted without free sites")
        monkeypatch.setattr(msa, "eigenvalue_count", count)
        rep = check_goodness(ensemble(), empty_configuration(make_box(1, 12.0)), 5.1, 0.4, 0.1)
        assert [label for label, _ in rep.weg_norms] == ["no-free-sites"]

    @settings(max_examples=30, deadline=None)
    @example(case="2d", seed=222, n_free=1, k=0, f=0.03125, t=[0.0, 0.0, 0.0])  # |R| = 1810
    @given(case=st.sampled_from(["dirichlet", "periodic", "2d"]), seed=st.integers(0, 10**6),
           n_free=st.integers(1, 3), k=st.integers(0, 6), f=st.floats(0.0, 1.0),
           t=st.lists(st.floats(0.0, 1.0), min_size=3, max_size=3))
    def test_endpoints_decide_the_supremum(self, case, seed, n_free, k, f, t):
        # E runs from lambda_k(all-zeros) past lambda_k(all-ones), so that
        # both verdicts occur; dense counts decide which applies
        d = 2 if case == "2d" else 1
        box = make_box(d, 4.0 if d == 2 else 8.0)
        ens = Ensemble(Bernoulli(0.5), GridSpec(2, "periodic" if case == "periodic" else
                                                "dirichlet"), SiteProfile(), root_seed=seed)
        sites = lattice_sites(box)
        pick = uniforms(derive_key(seed, 1), np.arange(len(sites), dtype=np.uint64))
        cfg = sample_configuration(Bernoulli(0.5), box, sites[np.argsort(pick)[:n_free]], seed, 0)
        spectra = [np.linalg.eigvalsh(ens.assemble(cfg.with_free_values(np.full(n_free, v)))
                                      .matrix.toarray()) for v in (0.0, 1.0)]
        energy = spectra[0][k] + f * (spectra[1][k] - spectra[0][k] + 0.5)
        scale = 1.0 + np.max(np.abs(spectra))
        assume(all(np.min(np.abs(vals - energy)) > 1e-8 * scale for vals in spectra))
        rep = check_goodness(ens, cfg, energy, 0.4, 0.1, FreeSitePolicy(corners=2, draws=2))
        crossing = np.count_nonzero(spectra[0] < energy) != np.count_nonzero(spectra[1] < energy)
        assert (rep.weg_norms[-1] == ("crossing", math.inf)) == crossing
        if crossing:
            assert not rep.weg_pass
            return
        # in distances 1/|R| to the spectrum, to 1e-12 of its scale: an
        # eigenvalue is no more accurate than that, so near E neither is |R|
        gap = min(np.min(np.abs(vals - energy)) for vals in spectra)
        assert all(1.0 / v >= gap - 1e-12 * scale for _, v in rep.weg_norms)
        vals = np.linalg.eigvalsh(ens.assemble(cfg.with_free_values(np.array(t[:n_free])))
                                  .matrix.toarray())
        assert np.min(np.abs(vals - energy)) >= gap - 1e-12 * scale


class TestCandidatePairs:
    # 39 centers give 741 pairs in 1-d and 121 centers 7260 in 2-d; caps of
    # 3 and 201 are not multiples of 4
    @pytest.mark.parametrize("d, L, min_dist, pair_cap", [
        (1, 40.0, 0.4, 4000), (1, 40.0, 5.0, 4000), (1, 40.0, 0.4, 201), (1, 40.0, 0.4, 3),
        (2, 12.0, 0.12, 10**5), (2, 12.0, 0.12, 4000), (2, 12.0, 4.0, 500),
    ])
    def test_matches_double_loop(self, d, L, min_dist, pair_cap):
        centers = lattice_sites(make_box(d, L)).astype(float)
        expected = _reference_candidate_pairs(centers, min_dist, pair_cap, seed=7)
        first, second, dist = _candidate_pairs(centers, min_dist, pair_cap, seed=7)
        assert list(zip(first.tolist(), second.tolist())) == expected
        assert len(expected) == min(pair_cap, len(expected)) > 0
        assert dist.tolist() == [float(np.max(np.abs(centers[a] - centers[b])))
                                 for a, b in expected]


    @pytest.mark.parametrize("pair_cap", [0, -5])
    def test_cap_below_one_rejected(self, pair_cap):
        centers = lattice_sites(make_box(1, 40.0)).astype(float)
        with pytest.raises(ValidationError, match="pair_cap"):
            _candidate_pairs(centers, 0.4, pair_cap, seed=7)

    def test_computed_once_per_box(self, monkeypatch):
        # 199 centers give 19701 pairs at L = 200, so the seeded subsample runs
        calls = []
        monkeypatch.setattr(msa, "_candidate_pairs",
                            lambda *args: calls.append(args) or _candidate_pairs(*args))
        msa._box_pairs.cache_clear()
        box = make_box(1, 200.0)
        cfg = sample_configuration(Bernoulli(0.5), box, None, 0, 0)
        args = (ensemble(), cfg, -0.5, 0.4, 0.1, FreeSitePolicy(seed=3))
        first, second = check_goodness(*args), check_goodness(*args)
        assert len(calls) == 1
        assert first == second and first.worst_pair is not None
        centers, i, j, dist = msa._box_pairs(box, msa.PAIR_CAP, 3)
        assert len(calls) == 1 and len(dist) == msa.PAIR_CAP
        assert not any(arr.flags.writeable for arr in (centers, i, j, dist))
        expected = _candidate_pairs(lattice_sites(box).astype(float), 2.0, msa.PAIR_CAP, 3)
        assert all(np.array_equal(a, b) for a, b in zip((i, j, dist), expected))


def _without_generators(monkeypatch):
    """Switch the semiseparable generators off: every pair norm then comes
    from the per-source path."""
    monkeypatch.setattr(spectral, "_semiseparable_logs", lambda a, b: None)


class TestRankOneGoodness:
    # the benchmark ladder's model and rules (E = -0.5, m = 0.4), and a rate
    # of 3 that every box fails
    @pytest.mark.parametrize("L, trial, m", [(50.0, 0, 0.4), (50.0, 1, 3.0),
                                             (100.0, 0, 0.4), (100.0, 1, 3.0),
                                             (200.0, 0, 0.4), (200.0, 1, 3.0)])
    def test_same_report_as_svd_reference(self, L, trial, m, monkeypatch):
        box = make_box(1, L)
        cfg = sample_configuration(Bernoulli(0.5), box, None, 0, trial)
        args = (ensemble(8), cfg, -0.5, m, 0.1, FreeSitePolicy(seed=0))
        rep = check_goodness(*args)
        # the reference: no generators, so one solve per source
        _without_generators(monkeypatch)
        ref = check_goodness(*args)
        assert rep.fallbacks == [] and len(ref.fallbacks) == 1
        assert rep.is_good == (m < 1.0)
        for attr in ("weg_pass", "decay_pass", "indeterminate", "weg_norms"):
            assert getattr(rep, attr) == getattr(ref, attr)
        worst, expected = rep.worst_pair, ref.worst_pair
        assert (worst.x, worst.y, worst.distance, worst.bound) == \
            (expected.x, expected.y, expected.distance, expected.bound)
        assert worst.measured == pytest.approx(expected.measured, rel=1e-12)


class TestSemiseparableGoodness:
    def test_one_solve_per_assembly(self, monkeypatch):
        box = make_box(1, 20.0)
        cfg = sample_configuration(Bernoulli(0.5), box, lattice_sites(box)[:3], 5, 0)
        policy = FreeSitePolicy(corners=2, draws=1, seed=2)
        solves = []
        solve = ResolventFactorization.solve
        monkeypatch.setattr(ResolventFactorization, "solve",
                            lambda self, rhs: solves.append(rhs) or solve(self, rhs))
        rep = check_goodness(ensemble(), cfg, -0.5, 0.4, 0.1, policy)
        assert len(rep.weg_norms) == len(solves) == 5 and rep.fallbacks == []

    @pytest.mark.parametrize("case", ["zero-pivot", "disagreement"])
    def test_fallback_gives_the_per_source_report(self, case, monkeypatch):
        box = make_box(1, 30.0)
        cfg = sample_configuration(Uniform01(), box, None, 8, 0)
        energy, reason = -0.5, "certifying solve differs"
        if case == "zero-pivot":   # E on the first diagonal entry of H
            energy = assemble(box, n=4, config=cfg).matrix.diagonal()[0]
            reason = "zero or non-finite Schur complement"
        args = (ensemble(), cfg, energy, 0.4, 0.1)
        if case == "disagreement":
            logs = spectral._semiseparable_logs
            monkeypatch.setattr(spectral, "_semiseparable_logs",
                                lambda a, b: tuple(g + 1e-6 for g in logs(a, b)))
        rep = check_goodness(*args)
        _without_generators(monkeypatch)
        ref = check_goodness(*args)
        [(label, why)] = rep.fallbacks
        assert label == "no-free-sites" and why.startswith(reason)
        assert not rep.indeterminate and rep.weg_norms == ref.weg_norms
        assert (rep.is_good, rep.decay_pass, rep.worst_pair) == \
            (ref.is_good, ref.decay_pass, ref.worst_pair)


class TestUnitBoxNodes:
    @pytest.mark.parametrize("d, L", [(1, 9.0), (2, 5.0), (3, 3.0)])
    @pytest.mark.parametrize("boundary", ["dirichlet", "periodic"])
    def test_matches_the_contains_scan(self, d, L, boundary):
        for offset in (0.0, 0.25, 0.5):
            for n in (2, 3, 4):
                box = BoxSpec(d, (offset,) * d, L)
                points = Grid(box, GridSpec(n, boundary)).points()
                nodes = _unit_box_nodes(points, box)
                scan = [np.flatnonzero(BoxSpec(d, tuple(c), 1.0).contains(points))
                        for c in lattice_sites(box).astype(float)]
                assert len(nodes) == len(scan) > 0
                assert all(np.array_equal(a, b) for a, b in zip(nodes, scan))

    def test_no_centers(self):
        # (0, 1) holds no integer
        assert _unit_box_nodes(np.zeros((5, 1)), BoxSpec(1, (0.5,), 1.0)) == []


class TestRestrictConfiguration:
    box, sub_box = make_box(1, 12.0), make_box(1, 6.0)      # sites -5..5 and -2..2

    def _draw(self, free):
        return sample_configuration(Uniform01(), self.box, free, 4, 0)

    def test_assigned_free_sites_inside_fold_in(self):
        cfg = self._draw([[-4], [1], [2]]).with_free_values(np.array([0.1, 0.2, 0.3]))
        sub = restrict_configuration(cfg, self.sub_box)
        assert sub.region == self.sub_box and sub.free_sites is None
        assert np.array_equal(sub.sites, lattice_sites(self.sub_box))
        expected = self._draw(None).values[3:8].copy()
        expected[[3, 4]] = [0.2, 0.3]
        assert sub.values.tolist() == expected.tolist()

    def test_unassigned_free_site_inside_refused(self):
        with pytest.raises(ValidationError, match="no t_S assigned"):
            restrict_configuration(self._draw([[-4], [1]]), self.sub_box)

    def test_unassigned_free_sites_outside_dropped(self):
        sub = restrict_configuration(self._draw([[-4], [4]]), self.sub_box)
        assert sub.free_sites is None
        assert sub.values.tolist() == self._draw(None).values[3:8].tolist()

    def test_sub_box_past_the_region_refused(self):
        # the sub-box's site 6 lies outside the region (-6, 6)
        with pytest.raises(ValidationError, match="outside the box"):
            restrict_configuration(self._draw(None), BoxSpec(1, (5.0,), 4.0))


class TestGoodnessProbability:
    def test_deterministic_good(self):
        box = make_box(1, 12.0)
        ens = Ensemble(Atoms(((1.0, 1.0),)), GridSpec(4), SiteProfile(), root_seed=7)
        good = sum(goodness_trial(ens, box, -1.0, 0.5, 0.1, PAIR_CAP, t) for t in range(6))
        row = ladder_row(12.0, 1, 0.35, -1.0, 0.5, good, 6)
        assert row.p_hat == 1.0 and row.good_count == 6
        assert row.verdict

    def test_deterministic_failure(self):
        # an energy pinned to the spectrum of the (deterministic) operator
        box = make_box(1, 12.0)
        H = assemble(box, n=4, config=_ones_config(box))
        lam = lowest_eigenvalue(H)
        ens = Ensemble(Atoms(((1.0, 1.0),)), GridSpec(4), SiteProfile(), root_seed=7)
        good = sum(goodness_trial(ens, box, lam, 5.0, 0.1, PAIR_CAP, t) for t in range(4))
        row = ladder_row(12.0, 1, 0.35, lam, 5.0, good, 4)
        assert row.p_hat == 0.0

    def test_reproducible(self):
        box = make_box(1, 10.0)
        ensemble = Ensemble(Bernoulli(0.5), GridSpec(4), SiteProfile(), root_seed=123)
        a, b = (ladder_row(10.0, 1, 0.35, -0.5, 0.4,
                           sum(goodness_trial(ensemble, box, -0.5, 0.4, 0.1, PAIR_CAP, t)
                               for t in range(8)), 8) for _ in range(2))
        assert (a.good_count, a.p_hat) == (b.good_count, b.p_hat)

    def test_zero_trials_refused(self):
        with pytest.raises(ValidationError, match="at least one sample"):
            ladder_row(10.0, 1, 0.35, -0.5, 0.4, 0, 0)

    def test_wilson_halfwidth_bound(self):
        lo, hi = wilson_interval(7, 10)
        assert 0.0 <= lo <= 0.7 <= hi <= 1.0
        assert (hi - lo) / 2 <= 1.96 / (2 * math.sqrt(10)) + 0.05


def _ones_config(box):
    sites = lattice_sites(box)
    return Configuration(box, np.ones(len(sites)))


class TestReducedSpectrum:
    def _setup(self, seed=1, L=12.0):
        box = make_box(1, L)
        cfg = sample_configuration(Uniform01(), box, None, seed, 0)
        return box, cfg

    def test_n1_zero_unchanged(self):
        box, cfg = self._setup()
        red = reduced_spectrum(ensemble(), cfg, (0.0, 2.0), 0.7, 0, 0.5)
        full = eigs_window(assemble(box, config=cfg), (0.0, 2.0)).energies
        assert np.array_equal(red, full)

    def test_huge_threshold_keeps_everything(self):
        # m_hat = 0 makes the threshold 2, wider than the window
        box, cfg = self._setup()
        red = reduced_spectrum(ensemble(), cfg, (0.0, 1.5), 0.7, 1, 0.0)
        full = eigs_window(assemble(box, config=cfg), (0.0, 1.5)).energies
        assert np.array_equal(red, full)

    def test_brute_force_oracle(self):
        # independent filter: recompute every nested spectrum and distance
        for seed in range(6):
            box, cfg = self._setup(seed=seed + 10)
            rho, n1, m_hat = 0.75, 2, 0.6
            red = reduced_spectrum(ensemble(), cfg, (0.0, 2.0), rho, n1, m_hat)
            full = eigs_window(assemble(box, config=cfg), (0.0, 2.0)).energies
            expected = []
            for E in full:
                ok = True
                for n in range(1, n1 + 1):
                    side = round(12.0 ** (rho ** n) * 4) / 4
                    sub_box = make_box(1, side)
                    sub_cfg = restrict_configuration(cfg, sub_box)
                    sub = eigs_window(assemble(sub_box, config=sub_cfg),
                                      (0.0, 2.0)).energies
                    if len(sub) == 0 or np.min(np.abs(sub - E)) > 2 * math.exp(-m_hat * side):
                        ok = False
                        break
                if ok:
                    expected.append(E)
            assert np.array_equal(red, np.asarray(expected))

    def test_antitone_in_n1(self):
        box, cfg = self._setup(seed=30)
        sets = []
        for n1 in (0, 1, 2):
            red = reduced_spectrum(ensemble(), cfg, (0.0, 2.0), 0.75, n1, 0.6)
            sets.append(set(np.round(red, 12)))
        assert sets[2].issubset(sets[1]) and sets[1].issubset(sets[0])

    def test_monotone_in_threshold(self):
        box, cfg = self._setup(seed=31)
        small = reduced_spectrum(ensemble(), cfg, (0.0, 2.0), 0.75, 2, 1.5)
        large = reduced_spectrum(ensemble(), cfg, (0.0, 2.0), 0.75, 2, 0.1)
        assert set(np.round(small, 12)).issubset(set(np.round(large, 12)))

    def test_scale_error(self):
        # nested side -> ~1 as rho -> 0; on a 2-point mesh that is 2 cells < 3
        box = make_box(1, 12.0)
        cfg = sample_configuration(Uniform01(), box, None, 1, 0)
        with pytest.raises(ScaleError):
            reduced_spectrum(ensemble(2), cfg, (0.0, 2.0), 0.02, 1, 0.5)
