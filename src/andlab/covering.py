"""Suitable and standard ell-coverings of boxes and annuli; free-site abundance.

The covering lattice spacing is ``alpha * ell`` with ``alpha`` rational, kept
as an exact ``Fraction`` so the set identities (coverage, boundary capture,
separation, counts) are exact statements about rational arithmetic.  Coverings
keep no exact center tuples: the exact structure is ``alpha``, ``spacing`` and
the per-axis steps (:func:`box_covering_structure`), and centers are floats.

For a box of side L, ``alpha`` ranges over ``[3/5, 4/5] inter {(L-l)/(2 l n)}``
and the standard covering takes the maximal such alpha.  For an annulus the
candidate set is ``{(L2-L1-2 l)/(2 l n)}``, which makes the outermost covering
boxes flush with both annulus faces.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

import numpy as np

from .errors import GeometryError, ValidationError
from .model import AnnulusSpec, BoxSpec, lattice_index, lattice_sites, open_integer_range
from .rng import derive_key, uniforms

_THREE_FIFTHS = Fraction(3, 5)
_FOUR_FIFTHS = Fraction(4, 5)


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, np.integer)):
        return Fraction(int(x))
    return Fraction(float(x))  # exact binary expansion of the float


def _ceil_div(num: Fraction) -> int:
    return -((-num.numerator) // num.denominator)


def _floor_div(num: Fraction) -> int:
    return num.numerator // num.denominator


def alpha_candidates(span: Fraction, ell: Fraction) -> list:
    """All alpha = span/(2 l n) in [3/5, 4/5], largest first."""
    lo = span / (2 * ell * _FOUR_FIFTHS)   # smallest feasible n
    hi = span / (2 * ell * _THREE_FIFTHS)  # largest feasible n
    out = []
    for n in range(max(1, _ceil_div(lo)), _floor_div(hi) + 1):
        a = span / (2 * ell * n)
        if _THREE_FIFTHS <= a <= _FOUR_FIFTHS:
            out.append((n, a))
    return out


def _choose_alpha(span: Fraction, ell: Fraction, alpha: Optional[Fraction]) -> tuple:
    """``(n, alpha)``: the largest candidate, or the given alpha, which must be one."""
    candidates = alpha_candidates(span, ell)
    assert candidates, "candidate set is nonempty under the ell precondition"
    if alpha is None:
        return candidates[0]
    a = _frac(alpha)
    match = [t for t in candidates if t[1] == a]
    if not match:
        raise ValidationError(f"alpha={a} is not in the suitable candidate set")
    return match[0]


@dataclass(frozen=True)
class Covering:
    """A suitable ell-covering: center lattice of side-ell boxes.

    ``centers`` are floats (box-covering centers each rounded once from their
    exact rational value); the exactness lives in ``alpha`` and ``spacing``,
    and for box coverings in ``steps_per_axis``."""

    parent: Union[BoxSpec, AnnulusSpec]
    side: float
    alpha: Fraction
    centers: np.ndarray                      # (m, d)
    steps_per_axis: Optional[int] = None     # box coverings: k in {-n..n}

    @property
    def spacing(self) -> Fraction:
        return self.alpha * _frac(self.side)

    def __len__(self) -> int:
        return len(self.centers)


@dataclass(frozen=True)
class BoxCoveringStructure:
    """Exact per-axis description of a box covering (no center product).

    Per axis the centers are ``x0_i + spacing * k`` for ``k in {-steps..steps}``;
    the outermost boxes are flush with the box faces (``spacing * steps + l/2``
    equals ``L/2`` exactly) and consecutive boxes overlap (``spacing < l``), so
    the d-dimensional union identity factors through the axes.
    """

    box: BoxSpec
    ell: Fraction
    alpha: Fraction
    steps: int

    @property
    def spacing(self) -> Fraction:
        return self.alpha * self.ell

    @property
    def per_axis(self) -> int:
        return 2 * self.steps + 1

    def count(self) -> int:
        return self.per_axis ** self.box.dimension


def box_covering_structure(box: BoxSpec, ell,
                           alpha: Optional[Fraction] = None) -> BoxCoveringStructure:
    """Exact structure of the standard (or chosen-alpha) covering of a box."""
    L, l = _frac(box.side), _frac(ell)
    if l > L / 6:
        raise GeometryError(f"need ell <= L/6, got ell={float(l)}, L={float(L)}")
    n, a = _choose_alpha(L - l, l, alpha)
    # centers are x0 + a*l*k with |a*l*k| < L/2; the admissible k are exactly
    # {-n..n}: a*l*n = (L-l)/2 < L/2 and a*l*(n+1) >= (L-l)/2 + 3l/5 > L/2
    spacing = a * l
    assert spacing * n < L / 2 and spacing * (n + 1) >= L / 2
    return BoxCoveringStructure(box, l, a, n)


def standard_covering_box(box: BoxSpec, ell, alpha: Optional[Fraction] = None,
                          max_centers: int = 2_000_000) -> Covering:
    """Standard (maximal-alpha) suitable ell-covering of an open box.

    Requires ``ell <= L/6``.  Pass ``alpha`` to select a non-maximal candidate;
    it must belong to the candidate set.
    """
    struct = box_covering_structure(box, ell, alpha)
    n, a, spacing = struct.steps, struct.alpha, struct.spacing
    if (2 * n + 1) ** box.dimension > max_centers:
        raise GeometryError(f"covering would have more than {max_centers} centers")
    axes = [[float(_frac(c) + spacing * k) for k in range(-n, n + 1)] for c in box.center]
    centers = np.array(list(itertools.product(*axes)), dtype=float)
    return Covering(box, float(ell), a, centers, steps_per_axis=n)


def annulus_offsets(L1: Fraction, ell: Fraction, dimension: int) -> list:
    """The 5^d - 3^d offset set: mixed {0, +-L1/2, +-(L1+l)/2} tuples that use
    +-(L1+l)/2 in at least one coordinate."""
    inner = (Fraction(0), L1 / 2, -L1 / 2)
    full = inner + ((L1 + ell) / 2, -(L1 + ell) / 2)
    out = []
    for combo in itertools.product(full, repeat=dimension):
        if any(c not in inner for c in combo):
            out.append(combo)
    return out


def standard_covering_annulus(annulus: AnnulusSpec, ell,
                              alpha: Optional[Fraction] = None,
                              max_centers: int = 2_000_000) -> Covering:
    """Standard suitable ell-covering of an open annulus.

    Requires ``ell < (L2-L1)/7``.  Centers come from the offset set plus the
    alpha-lattice, filtered to boxes contained in the annulus.  All inclusion
    and separation thresholds are computed exactly per axis (integer bounds on
    the lattice index), so flush boxes are classified correctly; duplicate
    centers across offsets are detected by the exact lattice-collision test.
    """
    L1, L2, l = _frac(annulus.inner_side), _frac(annulus.outer_side), _frac(ell)
    if not l < (L2 - L1) / 7:
        raise GeometryError(
            f"need ell < (L2-L1)/7, got ell={float(l)}, L2-L1={float(L2 - L1)}")
    _, a = _choose_alpha(L2 - L1 - 2 * l, l, alpha)
    spacing = a * l
    d = annulus.dimension
    x0 = [_frac(c) for c in annulus.center]
    outer_half = (L2 - l) / 2      # |center coord| <= outer_half keeps box in outer box
    sep = (L1 + l) / 2             # |center coord| >= sep separates box from inner box

    offsets = annulus_offsets(L1, l, d)
    # offsets u, u' produce coinciding lattices iff (u - u')/spacing is an
    # integer vector; random geometry essentially never collides
    collides = False
    for i, u in enumerate(offsets):
        for v in offsets[:i]:
            if all(((u[ax] - v[ax]) / spacing).denominator == 1 for ax in range(d)):
                collides = True
                break
        if collides:
            break

    blocks = []
    exact_rows = [] if collides else None
    total = 0
    for u in offsets:
        ranges, seps = [], []
        for i in range(d):
            k_lo = _ceil_div((-outer_half - u[i]) / spacing)
            k_hi = _floor_div((outer_half - u[i]) / spacing)
            if k_hi < k_lo:
                ranges = []
                break
            # exact integer thresholds for the separation condition
            k_sep_hi = _ceil_div((sep - u[i]) / spacing)
            k_sep_lo = _floor_div((-sep - u[i]) / spacing)
            ks = np.arange(k_lo, k_hi + 1)
            ranges.append(ks)
            seps.append((ks >= k_sep_hi) | (ks <= k_sep_lo))
        if not ranges:
            continue
        mesh = np.meshgrid(*ranges, indexing="ij")
        sep_mesh = np.meshgrid(*seps, indexing="ij")
        admissible = np.zeros(mesh[0].shape, dtype=bool)
        for s in sep_mesh:
            admissible |= s
        ks = np.stack([m[admissible] for m in mesh], axis=1)
        total += len(ks)
        if total > max_centers:
            raise GeometryError(f"covering would exceed {max_centers} centers")
        block = np.asarray([float(v) for v in u])[None, :] \
            + float(spacing) * ks.astype(float) \
            + np.asarray([float(v) for v in x0])[None, :]
        blocks.append(block)
        if exact_rows is not None:
            for row in ks:
                exact_rows.append(tuple(x0[i] + u[i] + spacing * int(row[i])
                                        for i in range(d)))
    centers = np.vstack(blocks) if blocks else np.empty((0, d))
    if collides:
        # rare structured geometry: merge exact duplicates
        order = sorted(set(exact_rows))
        centers = np.array([[float(v) for v in row] for row in order],
                           dtype=float).reshape(len(order), d)
    return Covering(annulus, float(ell), a, centers)


def covering_instance(dims: tuple, n_boxes: int, root_seed: int, index: int) -> dict:
    """Instance ``index`` of a covering suite, as a row: the standard covering
    of a random box (the first ``n_boxes`` instances) or annulus, dimensions
    cycling through ``dims``, and at most 300 000 centres."""
    u = uniforms(derive_key(root_seed, 0xC0FE), np.arange(6 * index, 6 * index + 6,
                                                           dtype=np.uint64))
    if index < n_boxes:
        d = dims[index % len(dims)]
        L = 12.0 + 188.0 * u[0]
        ell = L / 6.0 * (0.3 + 0.7 * u[1])
        box = BoxSpec(d, tuple(20.0 * (u[2 + a] - 0.5) for a in range(d)), L)
        cov = standard_covering_box(box, ell, max_centers=300_000)
        centers, kind = (2 * cov.steps_per_axis + 1) ** d, "box"
    else:
        d = dims[(index - n_boxes) % len(dims)]
        L = 30.0 + 100.0 * u[0]
        L1 = L * (0.15 + 0.4 * u[1])
        ell = (L - L1) / 7.0 * (0.4 + 0.55 * u[2])
        cov = standard_covering_annulus(AnnulusSpec(d, tuple([0.0] * d), L1, L), ell,
                                        max_centers=300_000)
        centers, kind = len(cov), "annulus"
    return {"instance": index, "kind": kind, "d": d, "L": L, "ell": ell,
            "alpha": float(cov.alpha), "centers": centers}


# ---------------------------------------------------------------------------
# free-site abundance
# ---------------------------------------------------------------------------

def is_abundant(sites: np.ndarray, box: BoxSpec, varsigma_prime: float) -> bool:
    """Whether every sub-box of side L/5 holds at least L^((1-s')d) sites.

    Sub-box centers are scanned on a unit-spaced lattice (plus the extreme
    positions); since the sites are integer points, the count over an open
    window changes only when a window face crosses an integer, so unit spacing
    together with both extreme positions visits every distinct window.
    """
    sites = np.atleast_2d(np.asarray(sites, dtype=np.int64))
    d = box.dimension
    L = float(box.side)
    threshold = L ** ((1.0 - varsigma_prime) * d)
    if len(sites) == 0:
        return threshold <= 0.0
    occupied = lattice_index(box, sites)  # refuses a site that is not a lattice site

    w = L / 5.0
    # summed-area table over the box's lattice
    full = lattice_sites(box)
    mins, shape = full[0], tuple(full[-1] - full[0] + 1)
    sat = np.isin(np.arange(len(full)), occupied).reshape(shape)
    for axis in range(d):
        sat = np.cumsum(sat, axis=axis)
    padded = np.zeros(tuple(s + 1 for s in shape), dtype=np.int64)
    padded[tuple(slice(1, None) for _ in range(d))] = sat

    def window_count(a, b):
        # inclusive integer box [a, b] per axis, clipped to the table
        a = np.maximum(np.asarray(a) - mins, 0)
        b = np.minimum(np.asarray(b) - mins, np.asarray(shape) - 1)
        if np.any(b < a):
            return 0
        total = 0
        for corner in itertools.product((0, 1), repeat=d):
            idx = tuple((b[i] + 1) if corner[i] else a[i] for i in range(d))
            total += ((-1) ** (d - sum(corner))) * int(padded[idx])
        return total

    # candidate window centers per axis: unit steps plus the right extreme
    reach = (L - w) / 2.0
    axis_intervals = []
    for i in range(d):
        c0 = box.center[i]
        cs = list(np.arange(c0 - reach, c0 + reach + 1e-12, 1.0))
        if not cs or abs(cs[-1] - (c0 + reach)) > 1e-12:
            cs.append(c0 + reach)
        intervals = set()
        for c in cs:
            intervals.add(open_integer_range(c - w / 2.0, c + w / 2.0))
        axis_intervals.append(sorted(intervals))

    for combo in itertools.product(*axis_intervals):
        a = [c[0] for c in combo]
        b = [c[1] for c in combo]
        if window_count(a, b) < threshold:
            return False
    return True
