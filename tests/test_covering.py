import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from andlab.covering import (annulus_offsets,
                             box_covering_structure, is_abundant,
                             standard_covering_annulus, standard_covering_box)
from andlab.errors import GeometryError, ValidationError
from andlab.model import AnnulusSpec, BoxSpec, lattice_sites


class TestBoxCovering:
    def test_alpha_examples(self):
        # L=30, l=5: only n=4 feasible, alpha = 5/8; 9 centers per axis
        cov = standard_covering_box(BoxSpec(1, (0.0,), 30.0), 5.0)
        assert cov.alpha == Fraction(5, 8)
        assert 2 * cov.steps_per_axis + 1 == 9
        # L=35, l=5: candidates {3/4, 3/5}, standard takes 3/4; 9 per axis
        cov = standard_covering_box(BoxSpec(1, (0.0,), 35.0), 5.0)
        assert cov.alpha == Fraction(3, 4)
        assert 2 * cov.steps_per_axis + 1 == 9

    def test_precondition_boundary(self):
        with pytest.raises(GeometryError):
            standard_covering_box(BoxSpec(1, (0.0,), 30.0), 6.0)  # ell = L/5
        standard_covering_box(BoxSpec(1, (0.0,), 30.0), 5.0)      # ell = L/6 fine

    def test_count_formula(self):
        box = BoxSpec(2, (0.3, -1.2), 30.0)
        cov = standard_covering_box(box, 5.0)
        formula = (Fraction(30) - Fraction(5)) / (cov.alpha * 5) + 1
        assert len(cov) == int(formula) ** 2
        assert (30 / 5) ** 2 <= len(cov) <= (2 * 30 / 5) ** 2

    def test_union_equals_box_dense_scan(self):
        box = BoxSpec(2, (0.5, 0.25), 18.0)
        cov = standard_covering_box(box, 2.5)
        rng = np.random.default_rng(0)
        pts = np.stack([rng.uniform(c - 8.999, c + 8.999, 4000) for c in box.center],
                       axis=1)
        covered = np.zeros(len(pts), dtype=bool)
        for r in cov.centers:
            covered |= np.max(np.abs(pts - r), axis=1) < 1.25
        assert covered.all()
        # and every covering box stays inside the (closure of the) parent:
        # the outermost centers, spacing * n from x0, are flush with the faces
        assert cov.spacing * cov.steps_per_axis + Fraction(5, 4) <= Fraction(9)

    def test_boundary_capture(self):
        # each y in the box has a center r with Lambda_{l/5}(y) inter box in Lambda_l(r)
        box = BoxSpec(1, (0.0,), 24.0)
        cov = standard_covering_box(box, 3.0)
        rng = np.random.default_rng(1)
        for y in rng.uniform(-11.999, 11.999, 200):
            hit = False
            for r in cov.centers[:, 0]:
                lo = max(y - 0.3, -12.0)
                hi = min(y + 0.3, 12.0)
                if r - 1.5 <= lo and hi <= r + 1.5:
                    hit = True
                    break
            assert hit

    def test_free_guarantee_separation(self):
        # Lambda_{l/5}(r) inter Lambda_l(r') is empty for distinct lattice pts
        cov = standard_covering_box(BoxSpec(1, (0.0,), 24.0), 3.0)
        assert cov.alpha >= Fraction(3, 5)
        spacing = cov.alpha * 3
        # distinct centers are >= spacing apart; need >= l/10 + l/2 = 3l/5
        assert spacing >= Fraction(3, 5) * 3

    def test_explicit_alpha_choice(self):
        cov = standard_covering_box(BoxSpec(1, (0.0,), 35.0), 5.0,
                                    alpha=Fraction(3, 5))
        assert cov.alpha == Fraction(3, 5)
        with pytest.raises(ValidationError):
            standard_covering_box(BoxSpec(1, (0.0,), 35.0), 5.0, alpha=Fraction(7, 10))

    def test_structure_matches_materialized(self):
        box = BoxSpec(3, (0.0, 0.0, 0.0), 14.0)
        struct = box_covering_structure(box, 2.0)
        cov = standard_covering_box(box, 2.0)
        assert struct.alpha == cov.alpha
        assert struct.count() == len(cov)

    def test_centers_match_per_center_fractions(self):
        # random boxes as in the covering suite, in d = 1 and 2, against
        # Fraction arithmetic for every center and axis
        rng = np.random.default_rng(41)
        for i in range(40):
            d = 1 + i % 2
            L = 12.0 + 188.0 * rng.random()
            ell = L / 6.0 * (0.3 + 0.7 * rng.random())
            box = BoxSpec(d, tuple(20.0 * (rng.random(d) - 0.5)), L)
            cov = standard_covering_box(box, ell)
            n, spacing = cov.steps_per_axis, cov.spacing
            x0 = [Fraction(c) for c in box.center]
            exact = tuple(tuple(x0[a] + spacing * k[a] for a in range(d))
                          for k in itertools.product(range(-n, n + 1), repeat=d))
            assert cov.centers.tobytes() == np.array(
                [[float(v) for v in row] for row in exact], dtype=float).tobytes()


class TestAnnulusCovering:
    def test_offsets_cardinality(self):
        for d in (1, 2, 3):
            offs = annulus_offsets(Fraction(6), Fraction(1), d)
            assert len(offs) == 5**d - 3**d

    def test_precondition(self):
        ann = AnnulusSpec(1, (0.0,), 6.0, 20.0)
        with pytest.raises(GeometryError):
            standard_covering_annulus(ann, 2.0)  # (L2-L1)/7 = 2 exactly: need strict

    def test_coverage_dense_scan(self):
        ann = AnnulusSpec(2, (0.25, -0.5), 6.0, 20.0)
        cov = standard_covering_annulus(ann, 1.5)
        rng = np.random.default_rng(2)
        pts = rng.uniform(-9.999, 9.999, size=(6000, 2)) + np.array([0.25, -0.5])
        dist = np.max(np.abs(pts - np.array([0.25, -0.5])), axis=1)
        pts = pts[(dist > 3.0) & (dist < 10.0)]
        covered = np.zeros(len(pts), dtype=bool)
        for r in cov.centers:
            covered |= np.max(np.abs(pts - r), axis=1) < 0.75
        assert covered.all()

    def test_boxes_inside_annulus(self):
        ann = AnnulusSpec(2, (0.0, 0.0), 6.0, 20.0)
        cov = standard_covering_annulus(ann, 1.5)
        for r in cov.centers:
            assert np.all(np.abs(r) + 0.75 <= 10.0 + 1e-12)          # inside outer
            assert np.any(np.abs(r) - 0.75 >= 3.0 - 1e-12)           # off the core

    def test_explicit_alpha_choice(self):
        # L2-L1 = 14, l = 1.5: candidates 11/(3n) for n = 5, 6, i.e. 11/15 and 11/18
        ann = AnnulusSpec(2, (0.25, -0.5), 6.0, 20.0)
        assert standard_covering_annulus(ann, 1.5).alpha == Fraction(11, 15)
        cov = standard_covering_annulus(ann, 1.5, alpha=Fraction(11, 18))
        assert cov.alpha == Fraction(11, 18) and cov.spacing == Fraction(11, 12)
        rng = np.random.default_rng(5)
        pts = rng.uniform(-9.999, 9.999, size=(2000, 2)) + np.array([0.25, -0.5])
        dist = np.max(np.abs(pts - np.array([0.25, -0.5])), axis=1)
        pts = pts[(dist > 3.0) & (dist < 10.0)]
        covered = np.zeros(len(pts), dtype=bool)
        for r in cov.centers:
            covered |= np.max(np.abs(pts - r), axis=1) < 0.75
        assert covered.all()
        with pytest.raises(ValidationError):
            standard_covering_annulus(ann, 1.5, alpha=Fraction(7, 10))

    def test_count_bound(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            d = int(rng.integers(1, 3))
            L2 = float(rng.uniform(25, 80))
            L1 = float(rng.uniform(0.2, 0.5)) * L2
            ell = float(rng.uniform(0.4, 0.9)) * (L2 - L1) / 7.0
            ann = AnnulusSpec(d, tuple(rng.uniform(-2, 2, d)), L1, L2)
            cov = standard_covering_annulus(ann, ell)
            assert len(cov) <= (10.0 * L2 / ell) ** d


def _exact_annulus_centers(annulus, ell, alpha):
    """Every center x0 + u + spacing*k (u an offset, k an integer vector) whose
    side-ell box lies in the annulus, from a brute force over a cube of k in
    exact rational arithmetic.  Returns the set of centers in units of 1/D,
    as integer tuples, the number of (u, k) pairs that hit one, and D."""
    d, l = annulus.dimension, Fraction(ell)
    L1, L2 = Fraction(annulus.inner_side), Fraction(annulus.outer_side)
    x0 = [Fraction(c) for c in annulus.center]
    spacing = alpha * l
    offsets = annulus_offsets(L1, l, d)
    D = math.lcm(*(q.denominator for q in [spacing, l / 2, L1 / 2, L2 / 2, *x0]
                   + [v for u in offsets for v in u]))
    reach = math.ceil((L2 + L1 + l) / (2 * spacing))   # |u_i + spacing*k_i| <= L2/2
    ks = np.array(list(itertools.product(range(-reach, reach + 1), repeat=d)), dtype=np.int64)
    hits = []
    for u in offsets:
        rel = np.array([int(v * D) for v in u]) + int(spacing * D) * ks   # (center - x0) * D
        inside = np.all(np.abs(rel) + int(l * D / 2) <= int(L2 * D / 2), axis=1) \
            & np.any(np.abs(rel) - int(l * D / 2) >= int(L1 * D / 2), axis=1)
        hits.append(rel[inside] + np.array([int(c * D) for c in x0]))
    hits = np.vstack(hits)
    return {tuple(row) for row in hits.tolist()}, len(hits), D


class TestSharedLattices:
    # offsets u, u' whose difference is a whole number of spacings put their
    # centers on one lattice: (3.5, 0) and (3.5, 3) below differ by 4 spacings
    @pytest.mark.parametrize("annulus, ell", [
        (AnnulusSpec(2, (0.0, 0.0), 6.0, 14.0), 1.0),
        (AnnulusSpec(2, (0.5, 0.5), 6.0, 14.0), 1.0),
        (AnnulusSpec(2, (0.0, 0.5), 6.0, 21.0), 1.5),
        (AnnulusSpec(3, (0.0, 0.0, 0.0), 4.0, 12.0), 1.0),
        (AnnulusSpec(3, (0.5, 0.0, 0.5), 6.0, 14.0), 1.0)])
    def test_against_exact_brute_force(self, annulus, ell):
        cov = standard_covering_annulus(annulus, ell)
        exact, hits, D = _exact_annulus_centers(annulus, ell, cov.alpha)
        assert hits > len(exact)             # some center is reached from two offsets
        assert len(cov) == len(exact)
        assert len(np.unique(cov.centers, axis=0)) == len(cov)
        scaled = np.rint(cov.centers * D).astype(np.int64)
        assert np.abs(scaled - cov.centers * D).max() < 1e-6
        assert {tuple(row) for row in scaled.tolist()} == exact


def _exact_fewest(sites, box):
    """Fewest sites in a sub-box of side w = L/5, scanning in exact rational
    arithmetic the sub-box centers where a face meets an integer, midway
    between consecutive ones and at both extremes."""
    L = Fraction(box.side)
    w = L / 5
    reach = (L - w) / 2
    inside = []      # per axis: which sites each distinct run of integers holds
    for axis, c0 in enumerate(box.center):
        lo, hi = Fraction(c0) - reach, Fraction(c0) + reach
        crossings = {n + sign * w / 2 for n in range(math.floor(lo - w), math.ceil(hi + w) + 1)
                     for sign in (-1, 1)}
        points = sorted({lo, hi} | {c for c in crossings if lo <= c <= hi})
        centers = points + [(p + q) / 2 for p, q in zip(points, points[1:])]
        runs = {(math.floor(c - w / 2) + 1, math.ceil(c + w / 2) - 1) for c in centers}
        inside.append([(sites[:, axis] >= a) & (sites[:, axis] <= b) for a, b in runs])
    return min(int(np.logical_and.reduce(combo).sum()) for combo in itertools.product(*inside))


class TestAbundance:
    def test_empty_set(self):
        box = BoxSpec(1, (0.0,), 50.0)
        assert not is_abundant(np.empty((0, 1), dtype=np.int64), box, 0.5)

    def test_full_lattice_window_counts(self):
        # window side 10 holds >= 9 integers > 50^0.5 ~ 7.07
        box = BoxSpec(1, (0.0,), 50.0)
        sites = lattice_sites(box)
        assert is_abundant(sites, box, 0.5)

    def test_even_sublattice_fails(self):
        # ~5 sites per window < 7.07
        box = BoxSpec(1, (0.0,), 50.0)
        sites = lattice_sites(box)
        evens = sites[sites[:, 0] % 2 == 0]
        assert not is_abundant(evens, box, 0.5)

    def test_2d(self):
        box = BoxSpec(2, (0.0, 0.0), 20.0)
        sites = lattice_sites(box)
        # threshold 20^{(1-0.5)*2} = 20; a 4x4 window holds up to 16 < 20
        assert not is_abundant(sites, box, 0.0)   # threshold 400 huge
        assert is_abundant(sites, box, 0.9)       # threshold 20^0.2 ~ 1.8

    def test_sub_box_between_unit_steps(self):
        # w = 2.5: the sub-box (-5.75, -3.25), centred at -4.5 between the unit
        # steps from the extreme -5, holds only -5 and -4, under 12.5^0.4 ~ 2.75
        box = BoxSpec(1, (0.0,), 12.5)
        assert not is_abundant(lattice_sites(box), box, 0.6)
        assert is_abundant(lattice_sites(box), box, 0.8)         # threshold ~ 1.66
        # in 2-d the 2 x 2 sub-box there holds 4 sites, under 12.5^0.8 ~ 7.54
        box = BoxSpec(2, (0.0, 0.0), 12.5)
        assert not is_abundant(lattice_sites(box), box, 0.6)

    def test_rejects_non_integer_sites(self):
        box = BoxSpec(1, (0.0,), 10.0)
        with pytest.raises(ValidationError, match="must be integers"):
            is_abundant(lattice_sites(box).astype(float), box, 0.5)

    @settings(max_examples=60, deadline=None)
    @given(d=st.integers(1, 2), side=st.floats(5.0, 20.0), data=st.data(),
           keep=st.floats(0.6, 1.0), seed=st.integers(0, 2**16),
           varsigma=st.floats(0.5, 1.0))
    def test_against_exact_scan(self, d, side, data, keep, seed, varsigma):
        center = tuple(data.draw(st.floats(-2.0, 2.0), label=f"c{a}") for a in range(d))
        box = BoxSpec(d, center, side)
        sites = lattice_sites(box)
        sites = sites[np.random.default_rng(seed).random(len(sites)) < keep]
        fewest = _exact_fewest(sites, box)
        assert is_abundant(sites, box, varsigma) == (fewest >= side ** ((1.0 - varsigma) * d))

    def test_rejects_non_lattice_sites(self):
        box = BoxSpec(1, (0.0,), 10.0)
        with pytest.raises(ValidationError):
            is_abundant(np.array([[50]]), box, 0.5)

    @settings(max_examples=40, deadline=None)
    @given(d=st.integers(1, 2), fifths=st.integers(1, 4), shift=st.integers(-3, 3),
           keep=st.floats(0.6, 1.0), seed=st.integers(0, 2**16),
           varsigma=st.sampled_from([0.6, 0.8, 0.9, 1.0]))
    def test_against_quarter_step_window_scan(self, d, fifths, shift, keep, seed, varsigma):
        # box faces and window faces (side L/5, an integer) land on integers and
        # half-integers, so a window count changes only at half-integer centers and
        # a quarter-step scan of the centers meets every distinct window
        L = 5 * fifths
        c0 = shift + (L % 2) / 2.0
        box = BoxSpec(d, (c0,) * d, float(L))
        sites = lattice_sites(box)
        sites = sites[np.random.default_rng(seed).random(len(sites)) < keep]
        # in quarter units every coordinate is an integer, so the scan is exact
        reach, half = 8 * L // 5, 2 * L // 5      # (L - L/5)/2 and L/10, times 4
        steps = int(4 * c0) - reach + np.arange(2 * reach + 1)
        windows = np.stack(np.meshgrid(*[steps] * d, indexing="ij"), axis=-1).reshape(-1, d)
        inside = np.abs(4 * sites[None, :, :] - windows[:, None, :]) < half
        fewest = int(np.all(inside, axis=2).sum(axis=1).min())
        assert is_abundant(sites, box, varsigma) == (fewest >= L ** ((1.0 - varsigma) * d))
