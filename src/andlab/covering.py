"""Suitable and standard ell-coverings of boxes and annuli; free-site abundance.

The covering lattice spacing is ``alpha * ell`` with ``alpha`` rational, kept
as an exact ``Fraction`` so the set identities (coverage, boundary capture,
separation, counts) are exact statements about rational arithmetic.  Coverings
keep no exact center tuples: the exact structure is ``alpha``, ``spacing`` and
the per-axis steps (:func:`box_covering_structure`), and centers are floats
computed from integer step vectors k, per axis or per annulus offset.

For a box of side L, ``alpha`` ranges over ``[3/5, 4/5] inter {(L-l)/(2 l n)}``
and the standard covering takes the maximal such alpha.  For an annulus the
candidate set is ``{(L2-L1-2 l)/(2 l n)}``, which makes the outermost covering
boxes flush with both annulus faces.

Free-site abundance (:func:`is_abundant`) counts the sites in every distinct
sub-box of side L/5 at once, from one summed-area table over the box's lattice.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

import numpy as np

from .errors import GeometryError, ValidationError
from .model import AnnulusSpec, BoxSpec, _lattice_shape, lattice_index
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
    centers = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, box.dimension)
    return Covering(box, float(ell), a, centers, steps_per_axis=n)


def annulus_offsets(L1: Fraction, ell: Fraction, dimension: int) -> list:
    """The 5^d - 3^d offset set: mixed {0, +-L1/2, +-(L1+l)/2} tuples that use
    +-(L1+l)/2 in at least one coordinate."""
    inner = (Fraction(0), L1 / 2, -L1 / 2)
    full = inner + ((L1 + ell) / 2, -(L1 + ell) / 2)
    return [u for u in itertools.product(full, repeat=dimension) if any(c not in inner for c in u)]


def _axis_steps(v: Fraction, spacing: Fraction, outer_half: Fraction, sep: Fraction) -> tuple:
    """For an offset coordinate ``v``: the first step k with ``|v + spacing*k| <=
    outer_half``, which of those steps separate the box from the inner box,
    and the integer part and residue of ``v / spacing``."""
    k_lo = _ceil_div((-outer_half - v) / spacing)
    ks = np.arange(k_lo, _floor_div((outer_half - v) / spacing) + 1)
    separated = (ks >= _ceil_div((sep - v) / spacing)) | (ks <= _floor_div((-sep - v) / spacing))
    whole = _floor_div(v / spacing)
    return k_lo, separated, whole, v / spacing - whole


def standard_covering_annulus(annulus: AnnulusSpec, ell,
                              alpha: Optional[Fraction] = None,
                              max_centers: int = 2_000_000) -> Covering:
    """Standard suitable ell-covering of an open annulus.

    Requires ``ell < (L2-L1)/7``.  Centers are ``x0 + u + spacing * k`` over the
    offsets u and integer vectors k, kept when the box lies in the annulus; the
    admissible k and the separation from the inner box are exact integer
    bounds per axis, so flush boxes are classified correctly.  Two offsets
    share centers only when their residues ``u / spacing mod 1`` agree; a
    repeated center, found by its integer vector ``k + floor(u / spacing)``,
    is kept where it first appears.
    """
    L1, L2, l = _frac(annulus.inner_side), _frac(annulus.outer_side), _frac(ell)
    if not l < (L2 - L1) / 7:
        raise GeometryError(
            f"need ell < (L2-L1)/7, got ell={float(l)}, L2-L1={float(L2 - L1)}")
    _, a = _choose_alpha(L2 - L1 - 2 * l, l, alpha)
    spacing = a * l
    outer_half = (L2 - l) / 2      # |center coord| <= outer_half keeps box in outer box
    sep = (L1 + l) / 2             # |center coord| >= sep separates box from inner box
    offsets = annulus_offsets(L1, l, annulus.dimension)
    axis = {v: _axis_steps(v, spacing, outer_half, sep) for v in set(itertools.chain(*offsets))}
    x0 = np.asarray(annulus.center, dtype=float)
    blocks, lattice_steps, lattices, total = [], [], {}, 0
    for u in offsets:
        k_lo, separated, whole, residue = zip(*(axis[v] for v in u))
        admissible = functools.reduce(np.logical_or,
                                      np.meshgrid(*separated, indexing="ij", sparse=True))
        ks = np.argwhere(admissible) + k_lo
        total += len(ks)
        if total > max_centers:
            raise GeometryError(f"covering would exceed {max_centers} centers")
        blocks.append(np.asarray([float(v) for v in u]) + float(spacing) * ks + x0)
        lattice_steps.append((lattices.setdefault(residue, len(lattices)), ks, whole))
    centers = np.vstack(blocks)
    if len(lattices) < len(offsets):
        keys = np.vstack([np.column_stack([np.full(len(ks), lattice), ks + whole])
                          for lattice, ks, whole in lattice_steps])
        centers = centers[np.sort(np.unique(keys, axis=0, return_index=True)[1])]
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
    """Whether every sub-box of side w = L/5 holds at least L^((1-s')d) sites.

    The sites are integer points and a sub-box is open, so along each axis the
    run of integers inside it changes only where a face crosses an integer.
    Per axis the sub-box centers are taken at the crossings, midway between
    consecutive ones and at both extremes, which meets every distinct run;
    every product of the distinct runs is then counted at once from one
    summed-area table.  This is the abundance of free sites that the
    multiscale analysis with free sites needs with high probability.
    """
    d, L = box.dimension, float(box.side)
    first, shape = _lattice_shape(box)
    table = np.zeros(int(np.prod(shape)), dtype=np.int64)
    table[lattice_index(box, np.atleast_2d(sites))] = 1  # refuses a non-lattice site
    table = np.pad(table.reshape(shape), [(1, 0)] * d)
    for axis in range(d):
        table = np.cumsum(table, axis=axis)
    w = L / 5.0
    reach, half = (L - w) / 2.0, w / 2.0
    starts, ends = [], []      # per axis: table indices that bound each distinct run
    for c0, f, n in zip(box.center, first, shape):
        lo, hi = c0 - reach, c0 + reach
        faces = np.arange(np.floor(lo - half), np.ceil(hi + half) + 1.0)
        crossings = np.concatenate([faces - half, faces + half])
        points = np.unique(np.concatenate(
            [[lo, hi], crossings[(crossings >= lo) & (crossings <= hi)]]))
        centers = np.concatenate([points, (points[1:] + points[:-1]) / 2.0])
        bounds = np.stack([np.floor(centers - half) + 1.0, np.ceil(centers + half)], axis=1)
        runs = np.unique(bounds, axis=0).astype(np.int64) - f   # first site, one past the last
        starts.append(np.clip(runs[:, 0], 0, n))
        ends.append(np.clip(runs[:, 1], starts[-1], n))
    counts = 0
    for corner in itertools.product((0, 1), repeat=d):
        index = np.ix_(*[e if c else s for c, s, e in zip(corner, starts, ends)])
        counts = counts + (-1) ** (d - sum(corner)) * table[index]
    return bool(counts.min() >= L ** ((1.0 - varsigma_prime) * d))
