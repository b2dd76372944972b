import itertools
import math
from fractions import Fraction
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from andlab.errors import ValidationError
from andlab.model import (AnnulusSpec, Atoms, Bernoulli, BoxSpec, Configuration, Mixture,
                          SiteProfile, Uniform01, lattice_index, lattice_sites,
                          open_integer_range, sample_configuration)
from andlab.qucp import BallSpec

# interval endpoints: integers, half-integers and arbitrary floats
endpoints = st.one_of(st.integers(-40, 40).map(float),
                      st.integers(-80, 80).map(lambda k: k / 2.0),
                      st.floats(-40.0, 40.0, allow_nan=False))


def open_range_oracle(lo, hi):
    """Integers z with lo < z < hi, compared exactly as rationals."""
    return [z for z in range(math.floor(lo) - 1, math.ceil(hi) + 2)
            if Fraction(lo) < z < Fraction(hi)]


def brute_force_sites(box):
    """Oracle: scan a bounding integer range for strict membership."""
    lo = [int(np.floor(c - box.side / 2)) - 1 for c in box.center]
    hi = [int(np.ceil(c + box.side / 2)) + 1 for c in box.center]
    out = []
    ranges = [range(a, b + 1) for a, b in zip(lo, hi)]
    import itertools
    for z in itertools.product(*ranges):
        if all(abs(z[i] - box.center[i]) < box.side / 2 for i in range(box.dimension)):
            out.append(z)
    return sorted(out)


class TestLatticeSites:
    def test_interval_examples(self):
        assert lattice_sites(BoxSpec(1, (0.0,), 4.0)).ravel().tolist() == [-1, 0, 1]
        assert lattice_sites(BoxSpec(1, (0.5,), 4.0)).ravel().tolist() == [-1, 0, 1, 2]

    def test_single_interior_point(self):
        assert lattice_sites(BoxSpec(2, (0.0, 0.0), 2.0)).tolist() == [[0, 0]]

    def test_against_membership_scan(self):
        rng = np.random.default_rng(4)
        for _ in range(60):
            d = int(rng.integers(1, 4))
            box = BoxSpec(d, tuple(rng.uniform(-3, 3, d)), float(rng.uniform(1.2, 9.0)))
            got = [tuple(s) for s in lattice_sites(box)]
            assert got == brute_force_sites(box)

    def test_odd_side_count(self):
        # open box of odd integer side centered at 0 keeps L points per axis
        for L in (3, 5, 7):
            for d in (1, 2):
                box = BoxSpec(d, tuple([0.0] * d), float(L))
                assert len(lattice_sites(box)) == L**d == len(brute_force_sites(box))

    def test_lexicographic_order(self):
        sites = lattice_sites(BoxSpec(2, (0.0, 0.0), 4.0))
        assert sorted(map(tuple, sites)) == list(map(tuple, sites))

    @settings(max_examples=300, deadline=None)
    @given(lo=endpoints, hi=endpoints)
    def test_open_integer_range_against_fractions(self, lo, hi):
        first, last = open_integer_range(lo, hi)
        assert list(range(first, last + 1)) == open_range_oracle(lo, hi)

    @settings(max_examples=60, deadline=None)
    @given(d=st.integers(1, 3), side=st.integers(1, 9),
           shift=st.lists(st.integers(-6, 6), min_size=3, max_size=3))
    def test_sites_on_integer_faces(self, d, side, shift):
        # faces c -+ side/2 on integers: half-integer centers for odd sides
        center = tuple(k + (side % 2) / 2.0 for k in shift[:d])
        box = BoxSpec(d, center, float(side))
        axes = [open_range_oracle(c - side / 2.0, c + side / 2.0) for c in center]
        assert [tuple(s) for s in lattice_sites(box)] == list(itertools.product(*axes))
        assert len(lattice_sites(box)) == (side - 1) ** d


class TestDistributions:
    def test_bernoulli_cdf(self):
        assert Bernoulli(0.3).cdf(0.0) == pytest.approx(0.7)
        assert Bernoulli(0.3).cdf(1.0) == 1.0
        assert Bernoulli(0.3).cdf(-0.1) == 0.0

    def test_uniform_cdf(self):
        assert Uniform01().cdf(0.25) == pytest.approx(0.25)

    def test_mixture_cdf(self):
        # 0.5 * Bernoulli(1).cdf(0.5) + 0.5 * Uniform.cdf(0.5) = 0 + 0.25
        mix = Mixture(((0.5, Bernoulli(1.0)), (0.5, Uniform01())))
        assert mix.cdf(0.5) == pytest.approx(0.25)

    def test_support_validation(self):
        with pytest.raises(ValidationError):
            Atoms(((-0.1, 1.0),))
        with pytest.raises(ValidationError):
            Atoms(((0.5, 0.7), (0.6, 0.7)))  # weights sum to 1.4

    def test_degenerate_flag(self):
        assert Atoms(((0.0, 1.0),)).is_degenerate
        assert Bernoulli(1.0).is_degenerate
        assert not Bernoulli(0.5).is_degenerate
        assert not Uniform01().is_degenerate

    @pytest.mark.parametrize("dist, point", [
        (Mixture(((1.0, Mixture(((1.0, Bernoulli(1.0)),))),)), 1.0),
        (Mixture(((0.5, Mixture(((1.0, Atoms(((0.25, 1.0),))),))),
                  (0.5, Atoms(((0.25, 0.5), (0.25, 0.5)))))), 0.25),
        (Mixture(((0.0, Uniform01()), (1.0, Mixture(((0.5, Bernoulli(0.0)),
                                                      (0.5, Atoms(((0.0, 1.0),)))))))), 0.0),
    ])
    def test_nested_point_mass_is_degenerate(self, dist, point):
        assert dist.is_degenerate and dist.point_mass == point

    @pytest.mark.parametrize("dist", [
        Mixture(((1.0, Mixture(((0.5, Bernoulli(1.0)), (0.5, Atoms(((0.5, 1.0),)))))),)),
        Mixture(((0.5, Mixture(((1.0, Bernoulli(0.0)),))), (0.5, Bernoulli(1.0)))),
        Mixture(((1.0, Mixture(((1.0, Uniform01()),))),)),
    ])
    def test_nested_spread_law_is_not_degenerate(self, dist):
        assert not dist.is_degenerate and dist.point_mass is None

    def test_normalized_support_predicate(self):
        # {0,1} inside the support
        assert Bernoulli(0.5).normalized_support
        assert Atoms(((0.0, 0.5), (1.0, 0.5))).normalized_support
        assert not Atoms(((0.2, 0.5), (0.9, 0.5))).normalized_support

    @pytest.mark.parametrize("dist", [
        Uniform01(),
        Mixture(((1.0, Uniform01()),)),
        Mixture(((1.0, Mixture(((1.0, Uniform01()),))),)),
        Mixture(((0.5, Bernoulli(0.0)), (0.5, Atoms(((0.5, 0.5), (1.0, 0.5)))))),
    ])
    def test_mixture_support_reaches_both_ends(self, dist):
        # a uniform component holds 0 and 1 in its closed support
        assert dist.support() == (0.0, 1.0) and dist.normalized_support

    def test_support_of_a_live_component_only(self):
        dist = Mixture(((0.0, Uniform01()), (1.0, Atoms(((0.25, 0.5), (0.75, 0.5))))))
        assert dist.support() == (0.25, 0.75) and not dist.normalized_support

    @pytest.mark.parametrize("law", [Bernoulli, Uniform01, Atoms, Mixture])
    def test_each_law_states_its_support_only(self, law):
        for name in ("point_mass", "is_degenerate", "normalized_support"):
            assert name not in vars(law)


class TestSampling:
    def test_point_mass(self):
        box = BoxSpec(1, (0.0,), 10.0)
        cfg = sample_configuration(Atoms(((0.0, 1.0),)), box, None, 1, 0)
        assert np.all(cfg.values == 0.0)
        assert Atoms(((0.0, 1.0),)).is_degenerate

    def test_reproducible(self):
        box = BoxSpec(2, (0.0, 0.0), 8.0)
        a = sample_configuration(Bernoulli(0.5), box, None, 42, 3)
        b = sample_configuration(Bernoulli(0.5), box, None, 42, 3)
        assert np.array_equal(a.sites, b.sites) and np.array_equal(a.values, b.values)
        c = sample_configuration(Bernoulli(0.5), box, None, 42, 4)
        assert np.array_equal(c.sites, a.sites) and not np.array_equal(c.values, a.values)

    def test_empirical_mean_within_5_se(self):
        box = BoxSpec(2, (0.0, 0.0), 120.0)  # > 1e4 sites
        for dist in (Bernoulli(0.3), Uniform01(),
                     Mixture(((0.5, Bernoulli(1.0)), (0.5, Uniform01())))):
            cfg = sample_configuration(dist, box, None, 7, 0)
            n = len(cfg.values)
            assert n >= 10**4
            se = cfg.values.std(ddof=1) / np.sqrt(n)
            assert abs(cfg.values.mean() - dist.mean()) <= 5 * max(se, 1e-12)

    def test_free_sites_excluded_from_omega(self):
        box = BoxSpec(1, (0.0,), 10.0)
        free = np.array([[0], [2]])
        cfg = sample_configuration(Uniform01(), box, free, 5, 0)
        # the draws are those without free sites, at every site
        base = sample_configuration(Uniform01(), box, None, 5, 0)
        assert np.array_equal(cfg.sites, lattice_sites(box))
        assert np.array_equal(cfg.values, base.values)
        # t_S replaces omega at the free sites, and only there
        t = np.array([0.25, 0.75])
        couplings = cfg.with_free_values(t).couplings()
        at = [lattice_sites(box).ravel().tolist().index(s) for s in (0, 2)]
        assert couplings[at].tolist() == t.tolist()
        assert np.array_equal(np.delete(couplings, at), np.delete(base.values, at))

    def test_free_site_must_be_lattice_site(self):
        box = BoxSpec(1, (0.0,), 10.0)
        with pytest.raises(ValidationError):
            sample_configuration(Uniform01(), box, np.array([[99]]), 0, 0)
        with pytest.raises(ValidationError):
            sample_configuration(Uniform01(), box, np.array([[0, 1]]), 0, 0)

    def test_empty_free_site_list_is_no_free_sites(self):
        box = BoxSpec(1, (0.0,), 6.0)
        cfg = sample_configuration(Bernoulli(0.5), box, [], 1, 0)
        base = sample_configuration(Bernoulli(0.5), box, None, 1, 0)
        assert cfg.free_sites.shape == (0, 1)
        assert np.array_equal(cfg.sites, base.sites) and np.array_equal(cfg.values, base.values)

    def test_repeated_free_site_rejected(self):
        # a repeated site would carry two couplings, a potential past u_+
        box = BoxSpec(1, (0.0,), 6.0)
        with pytest.raises(ValidationError, match="repeated free site"):
            sample_configuration(Bernoulli(0.5), box, [[0], [0]], 1, 0)
        sites = lattice_sites(box)
        with pytest.raises(ValidationError, match="repeated free site"):
            Configuration(box, np.zeros(len(sites)), sites[[0, 0]])

    def test_site_outside_the_box_rejected(self):
        # the site at 3 is not strictly inside (-3, 3)
        box = BoxSpec(1, (0.0,), 6.0)
        with pytest.raises(ValidationError, match="outside the box"):
            Configuration(box, np.ones(5), np.array([[0], [3]]))

    def test_non_integer_free_site_refused(self):
        # the site 0.7 lies between lattice sites; it is not truncated to 0
        with pytest.raises(ValidationError, match="must be integers"):
            sample_configuration(Bernoulli(0.5), BoxSpec(1, (0.0,), 6.0), [[0.7]], 1, 0)

    def test_non_integer_configuration_site_refused(self):
        with pytest.raises(ValidationError, match="must be integers"):
            Configuration(BoxSpec(1, (0.0,), 6.0), np.zeros(5), np.array([[0.5]]))

    def test_one_value_per_lattice_site(self):
        box = BoxSpec(1, (0.0,), 6.0)
        for n in (4, 6):
            with pytest.raises(ValidationError, match="one value per lattice site"):
                Configuration(box, np.zeros(n))


class TestLatticeIndex:
    @settings(max_examples=60, deadline=None)
    @given(d=st.integers(1, 3), data=st.data())
    def test_index_is_lattice_order(self, d, data):
        center = tuple(data.draw(st.floats(-3.0, 3.0), label=f"c{a}") for a in range(d))
        box = BoxSpec(d, center, data.draw(st.floats(1.1, 6.5), label="side"))
        sites = lattice_sites(box)
        assert np.array_equal(lattice_index(box, sites), np.arange(len(sites)))
        if len(sites):
            axis = data.draw(st.integers(0, d - 1), label="axis")
            step = np.zeros(d, dtype=np.int64)
            step[axis] = data.draw(st.sampled_from([-1, 1]), label="direction")
            edge = sites[0] if step[axis] < 0 else sites[-1]
            with pytest.raises(ValidationError, match="outside the box"):
                lattice_index(box, [edge + step])
            for wrong in (sites[:1, :-1], np.hstack([sites, sites[:, :1]])):
                with pytest.raises(ValidationError, match="coordinates"):
                    lattice_index(box, wrong)

    def test_non_integer_dtype_refused(self):
        # a float or bool array is refused even when its values are lattice sites
        box = BoxSpec(2, (0.0, 0.0), 6.0)
        for sites in (np.array([[0.0, 1.0]]), np.array([[True, False]])):
            with pytest.raises(ValidationError, match="must be integers"):
                lattice_index(box, sites)
        assert lattice_index(box, np.array([[0, 1]], dtype=np.int32)).tolist() == [13]


class TestSiteProfile:
    def test_defaults_collapse_to_indicator(self):
        p = SiteProfile(u_plus=2.0, delta_plus=1.5)
        assert p.u_minus == 2.0 and p.delta_minus == 1.5
        vals = p.evaluate(np.array([[0.0], [0.74], [0.76]]))
        assert vals.tolist() == [2.0, 2.0, 0.0]

    def test_sandwich_enforced(self):
        bad = SiteProfile(u_plus=1.0, delta_plus=1.0,
                          shape=lambda off: np.full(len(off), 2.0))
        with pytest.raises(ValidationError):
            bad.evaluate(np.array([[0.0]]))

    def test_parameter_ordering(self):
        with pytest.raises(ValidationError):
            SiteProfile(u_plus=1.0, delta_plus=1.0, u_minus=2.0)
        with pytest.raises(ValidationError):
            SiteProfile(u_plus=1.0, delta_plus=0.5, delta_minus=0.7)


class TestRegions:
    def test_annulus_membership(self):
        ann = AnnulusSpec(2, (0.0, 0.0), 2.0, 6.0)
        assert ann.contains(np.array([[2.0, 0.0]]))[0]
        assert not ann.contains(np.array([[0.5, 0.5]]))[0]   # inside the hole
        assert not ann.contains(np.array([[3.5, 0.0]]))[0]   # outside

    def test_annulus_validation(self):
        with pytest.raises(ValidationError):
            AnnulusSpec(1, (0.0,), 4.0, 3.0)

    def test_annulus_needs_a_dimension(self):
        with pytest.raises(ValidationError, match="dimension must be >= 1"):
            AnnulusSpec(0, (), 1.0, 2.0)

    @pytest.mark.parametrize("region, size", [(BoxSpec, (1.0,)), (AnnulusSpec, (1.0, 2.0)),
                                              (BallSpec, (1.0,))])
    def test_one_center_check_for_every_region(self, region, size):
        with pytest.raises(ValidationError, match="center has 1 coordinates, dimension is 2"):
            region(2, (0.0,), *size)
        with pytest.raises(ValidationError, match="dimension must be >= 1"):
            region(0, (), *size)
        assert region(2, np.array([1, 2]), *size).center == (1.0, 2.0)


class TestHoldsCube:
    """``BoxSpec.holds_cube`` and the three checks that call it: a flush cube
    is held, an overshoot of 1e-13 is forgiven and one of 1e-9 is refused."""

    def test_flush_and_overshoot(self):
        box = BoxSpec(2, (0.5, -1.0), 10.0)
        assert box.holds_cube((3.5, -1.0), 4.0) and box.holds_cube((0.5, -6.0), 0.0)
        assert box.holds_cube((3.5 + 1e-13, -1.0), 4.0)
        assert not box.holds_cube((3.5 + 1e-9, -1.0), 4.0)
        assert not box.holds_cube((0.5, -1.0), 10.0 + 2e-9)

    @pytest.mark.parametrize("overshoot, held", [(0.0, True), (1e-13, True), (1e-9, False)])
    def test_assembly_region(self, overshoot, held):
        from andlab.discretize import GridSpec, assemble_hamiltonian, empty_configuration
        region = BoxSpec(1, (3.0 + overshoot,), 4.0)
        call = partial(assemble_hamiltonian, BoxSpec(1, (0.0,), 10.0), GridSpec(4),
                       SiteProfile(), empty_configuration(region))
        if held:
            assert call().size == 39
        else:
            with pytest.raises(ValidationError, match="not contained"):
                call()

    @pytest.mark.parametrize("overshoot, held", [(0.0, True), (1e-13, True), (1e-9, False)])
    def test_dichotomy_outer_box(self, overshoot, held):
        from andlab.discretize import GridSpec, assemble_hamiltonian, empty_configuration
        from andlab.errors import GeometryError
        from andlab.observables import dichotomy_check
        box = BoxSpec(1, (0.0,), 12.0)
        H = assemble_hamiltonian(box, GridSpec(4), SiteProfile(), empty_configuration(box))
        x0 = 6.0 - 1001.0 * 5.0 / 1000.0 + overshoot   # the L_+ box of L = 5 is flush
        call = partial(dichotomy_check, H, (x0,), 5.0, (-2.0, -1.0), 0.05, 0.5, 1.0)
        if held:
            assert call() == []                          # no eigenvalue below 0
        else:
            with pytest.raises(GeometryError):
                call()

    @pytest.mark.parametrize("overshoot, held", [(0.0, True), (1e-13, True), (1e-9, False)])
    def test_qucp_probe_ball(self, overshoot, held):
        from andlab.discretize import GridSpec, assemble_hamiltonian, empty_configuration
        from andlab.qucp import qucp_verify
        from andlab.spectral import eigs_window
        box = BoxSpec(1, (0.0,), 10.0)
        H = assemble_hamiltonian(box, GridSpec(4), SiteProfile(), empty_configuration(box))
        res = eigs_window(H, (0.0, 1.0))
        fit = qucp_verify(H, res.vectors[:, 0], float(res.energies[0]), BoxSpec(1, (0.0,), 2.0),
                          1.0, [(4.5 + overshoot,)])
        skipped = fit.records[0].skipped
        assert (skipped is None) if held else (skipped == "ball not contained in the box")
