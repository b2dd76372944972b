"""Probabilistic model: single-site laws, site profiles, boxes, configurations.

A single-site law states its support only through the hull ``support()``,
and every region (a box, an annulus, a Euclidean ball) checks its centre
against its dimension in ``_region_center``.  The random couplings live on
the integer lattice points strictly inside an open box, one per site in
``lattice_sites`` order; ``lattice_index`` gives a site's place in that
order.  All sampling is reproducible through
counter-based streams keyed by ``(root_seed, trial, site index)``, see
:mod:`andlab.rng`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import ValidationError
from .rng import site_uniforms

_WEIGHT_TOL = 1e-12


# ---------------------------------------------------------------------------
# single-site distributions (support must sit inside [0,1])
# ---------------------------------------------------------------------------

class SingleSiteDistribution:
    """Common law of the site couplings; support contained in [0,1].

    Concrete laws: :class:`Bernoulli`, :class:`Uniform01`, :class:`Atoms`,
    :class:`Mixture`.  Each states only the hull ``support() -> (lo, hi)`` of
    its closed support, which holds lo and hi; every support predicate reads
    it.  ``point_mass`` is the support point when lo == hi, else None; such
    degenerate laws are allowed (test fixtures) but carry ``is_degenerate``.
    """

    def validate(self) -> None:
        raise NotImplementedError

    def cdf(self, t: float) -> float:
        """P{value <= t}."""
        raise NotImplementedError

    def mean(self) -> float:
        raise NotImplementedError

    def support(self) -> tuple:
        """``(lo, hi)``: the least and greatest points of the support."""
        raise NotImplementedError

    @property
    def point_mass(self) -> Optional[float]:
        lo, hi = self.support()
        return float(lo) if lo == hi else None

    @property
    def is_degenerate(self) -> bool:
        """Whether the law is a point mass: the model assumes it is not."""
        return self.point_mass is not None

    @property
    def normalized_support(self) -> bool:
        """Whether the support hull is [0, 1]: the model's normalization."""
        return self.support() == (0.0, 1.0)

    def sample(self, uniform_at_level) -> np.ndarray:
        """Draw one value per site given ``uniform_at_level(level) -> array``."""
        raise NotImplementedError

    def __post_init__(self):  # dataclass hook in subclasses
        self.validate()


@dataclass(frozen=True)
class Bernoulli(SingleSiteDistribution):
    q: float = 0.5  # probability of value 1

    def validate(self):
        if not (0.0 <= self.q <= 1.0):
            raise ValidationError(f"Bernoulli parameter q={self.q} outside [0,1]")

    def cdf(self, t):
        if t < 0.0:
            return 0.0
        if t < 1.0:
            return 1.0 - self.q
        return 1.0

    def mean(self):
        return self.q

    def support(self):
        return (0.0 if self.q < 1.0 else 1.0, 1.0 if self.q > 0.0 else 0.0)

    def sample(self, uniform_at_level):
        return (uniform_at_level(0) < self.q).astype(np.float64)


@dataclass(frozen=True)
class Uniform01(SingleSiteDistribution):
    def validate(self):
        pass

    def cdf(self, t):
        return float(np.clip(t, 0.0, 1.0))

    def mean(self):
        return 0.5

    def support(self):
        return 0.0, 1.0

    def sample(self, uniform_at_level):
        return uniform_at_level(0)


@dataclass(frozen=True)
class Atoms(SingleSiteDistribution):
    """Finitely many atoms (value, weight) with values in [0,1]."""

    points: tuple = ()  # ((value, weight), ...)

    def validate(self):
        if not self.points:
            raise ValidationError("Atoms requires at least one (value, weight) pair")
        values = np.array([v for v, _ in self.points], dtype=float)
        weights = np.array([w for _, w in self.points], dtype=float)
        if np.any(values < 0.0) or np.any(values > 1.0):
            raise ValidationError(f"atom values {values.tolist()} outside [0,1]")
        if np.any(weights < 0.0):
            raise ValidationError("atom weights must be nonnegative")
        if abs(weights.sum() - 1.0) > _WEIGHT_TOL:
            raise ValidationError(f"atom weights sum to {weights.sum()}, not 1")

    def _arrays(self):
        values = np.array([v for v, _ in self.points], dtype=float)
        weights = np.array([w for _, w in self.points], dtype=float)
        order = np.argsort(values)
        return values[order], weights[order]

    def cdf(self, t):
        values, weights = self._arrays()
        return float(weights[values <= t].sum())

    def mean(self):
        values, weights = self._arrays()
        return float(values @ weights)

    def support(self):
        values, weights = self._arrays()
        live = values[weights > 0.0]
        return float(live[0]), float(live[-1])

    def sample(self, uniform_at_level):
        values, weights = self._arrays()
        edges = np.cumsum(weights)
        idx = np.searchsorted(edges, uniform_at_level(0), side="right")
        idx = np.minimum(idx, len(values) - 1)
        return values[idx]


@dataclass(frozen=True)
class Mixture(SingleSiteDistribution):
    """Convex combination of component laws: ((weight, distribution), ...)."""

    components: tuple = ()

    def validate(self):
        if not self.components:
            raise ValidationError("Mixture requires at least one component")
        weights = np.array([w for w, _ in self.components], dtype=float)
        if np.any(weights < 0.0):
            raise ValidationError("mixture weights must be nonnegative")
        if abs(weights.sum() - 1.0) > _WEIGHT_TOL:
            raise ValidationError(f"mixture weights sum to {weights.sum()}, not 1")
        for _, comp in self.components:
            comp.validate()

    def cdf(self, t):
        return float(sum(w * comp.cdf(t) for w, comp in self.components))

    def mean(self):
        return float(sum(w * comp.mean() for w, comp in self.components))

    def support(self):
        lows, highs = zip(*(comp.support() for w, comp in self.components if w > 0.0))
        return min(lows), max(highs)

    def sample(self, uniform_at_level):
        weights = np.array([w for w, _ in self.components], dtype=float)
        edges = np.cumsum(weights)
        pick = np.searchsorted(edges, uniform_at_level(0), side="right")
        pick = np.minimum(pick, len(self.components) - 1)
        out = np.empty(pick.shape, dtype=np.float64)
        for i, (_, comp) in enumerate(self.components):
            mask = pick == i
            if not np.any(mask):
                continue
            shifted = _shift_levels(uniform_at_level, 1, mask)
            out[mask] = comp.sample(shifted)
        return out


def _shift_levels(uniform_at_level, offset, mask):
    def inner(level):
        return uniform_at_level(level + offset)[mask]

    return inner


# ---------------------------------------------------------------------------
# site profile u (pointwise sandwich u_- 1_{box(d-)} <= u <= u_+ 1_{box(d+)})
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SiteProfile:
    """Single-site bump u placed at every lattice site.

    The default shape is the indicator box ``u = u_plus * 1_{side delta_plus}``
    with ``u_minus = u_plus`` and ``delta_minus = delta_plus``; other shapes
    are accepted as a callable ``shape(offsets) -> values`` provided the
    two-sided indicator sandwich holds at every evaluated point.
    """

    u_plus: float = 1.0
    delta_plus: float = 1.0
    u_minus: Optional[float] = None
    delta_minus: Optional[float] = None
    shape: Optional[object] = None  # callable (n,d) offsets -> (n,) values

    def __post_init__(self):
        if self.u_minus is None:
            object.__setattr__(self, "u_minus", self.u_plus)
        if self.delta_minus is None:
            object.__setattr__(self, "delta_minus", self.delta_plus)
        if not (0.0 < self.u_minus <= self.u_plus):
            raise ValidationError(f"need 0 < u_minus <= u_plus, got {self.u_minus}, {self.u_plus}")
        if not (0.0 < self.delta_minus <= self.delta_plus):
            raise ValidationError(
                f"need 0 < delta_minus <= delta_plus, got {self.delta_minus}, {self.delta_plus}"
            )

    def evaluate(self, offsets: np.ndarray) -> np.ndarray:
        """u at points ``offsets`` (n,d) measured from the site center."""
        offsets = np.atleast_2d(np.asarray(offsets, dtype=float))
        sup = np.max(np.abs(offsets), axis=1)
        if self.shape is None:
            return np.where(sup < self.delta_plus / 2.0, self.u_plus, 0.0)
        values = np.asarray(self.shape(offsets), dtype=float)
        lower = np.where(sup < self.delta_minus / 2.0, self.u_minus, 0.0)
        upper = np.where(sup < self.delta_plus / 2.0, self.u_plus, 0.0)
        if np.any(values < lower - 1e-12) or np.any(values > upper + 1e-12):
            raise ValidationError("site profile violates the indicator sandwich")
        return values


# ---------------------------------------------------------------------------
# regions
# ---------------------------------------------------------------------------

def _region_center(region) -> None:
    """Check a region's ``center`` against its ``dimension``; store it as floats."""
    if region.dimension < 1:
        raise ValidationError("dimension must be >= 1")
    c = tuple(float(v) for v in np.atleast_1d(region.center))
    if len(c) != region.dimension:
        raise ValidationError(f"center has {len(c)} coordinates, dimension is {region.dimension}")
    object.__setattr__(region, "center", c)


@dataclass(frozen=True)
class BoxSpec:
    """Open box of side L centered at x0 (sup-norm, strict inequalities)."""

    dimension: int
    center: tuple
    side: float

    def __post_init__(self):
        _region_center(self)
        if self.side <= 0.0:
            raise ValidationError("box side must be positive")

    def contains(self, points: np.ndarray) -> np.ndarray:
        points = np.atleast_2d(np.asarray(points, dtype=float))
        return np.max(np.abs(points - np.asarray(self.center)), axis=1) < self.side / 2.0

    def holds_cube(self, center, side: float) -> bool:
        """Whether the cube of side ``side`` around ``center`` lies in the closed
        box, up to 1e-12: a flush cube is held."""
        offset = np.max(np.abs(np.asarray(center, dtype=float) - np.asarray(self.center)))
        return bool(offset + side / 2.0 <= self.side / 2.0 + 1e-12)


@dataclass(frozen=True)
class AnnulusSpec:
    """Open annulus L1/2 < ||y - x0|| < L2/2 in sup-norm."""

    dimension: int
    center: tuple
    inner_side: float
    outer_side: float

    def __post_init__(self):
        _region_center(self)
        if not (0.0 < self.inner_side < self.outer_side):
            raise ValidationError(
                f"need 0 < L1 < L2, got L1={self.inner_side}, L2={self.outer_side}"
            )

    def contains(self, points: np.ndarray) -> np.ndarray:
        points = np.atleast_2d(np.asarray(points, dtype=float))
        dist = np.max(np.abs(points - np.asarray(self.center)), axis=1)
        return (dist > self.inner_side / 2.0) & (dist < self.outer_side / 2.0)


def open_integer_range(lo: float, hi: float) -> tuple:
    """First and last integers strictly inside ``(lo, hi)``; empty when last < first."""
    return int(np.floor(lo)) + 1, int(np.ceil(hi)) - 1


def _lattice_shape(box: BoxSpec) -> tuple:
    """First lattice coordinate and number of lattice sites along each axis."""
    half = box.side / 2.0
    first, last = np.array([open_integer_range(c - half, c + half) for c in box.center]).T
    return first, np.maximum(last - first + 1, 0)


def lattice_sites(box: BoxSpec) -> np.ndarray:
    """Integer points strictly inside the open box, lexicographic order.

    Returns an ``(m, d)`` integer array; ``m`` may be zero.
    """
    first, shape = _lattice_shape(box)
    return np.stack(np.unravel_index(np.arange(np.prod(shape)), shape), axis=1) + first


def lattice_index(box: BoxSpec, sites) -> np.ndarray:
    """Place of each integer site ``(s, d)`` in ``lattice_sites(box)``; refuses a site
    outside the box, with other than d coordinates, or of a non-integer dtype (bool too)."""
    sites = np.asarray(sites)
    sites = sites.reshape(0, box.dimension) if sites.shape == (0,) else sites
    if sites.ndim != 2 or sites.shape[1] != box.dimension:
        raise ValidationError(f"sites need {box.dimension} coordinates, got shape {sites.shape}")
    if sites.size and not np.issubdtype(sites.dtype, np.integer):
        raise ValidationError(f"sites must be integers, got dtype {sites.dtype}")
    first, shape = _lattice_shape(box)
    try:
        return np.ravel_multi_index(tuple((sites.astype(np.int64) - first).T), shape)
    except ValueError:
        raise ValidationError(f"a site lies outside the box {box}") from None


# ---------------------------------------------------------------------------
# configurations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Configuration:
    """One realization of the couplings on a box, with optional free sites.

    ``values`` holds omega, one coupling per site of ``sites``, the box's
    ``lattice_sites``.  ``free_values``, the couplings t_S at ``free_sites``,
    replace omega's there (None while the assignment is left open).
    """

    region: BoxSpec
    values: np.ndarray         # (m,) floats in [0,1], m = len(lattice_sites(region))
    free_sites: Optional[np.ndarray] = None    # (s, d) int
    free_values: Optional[np.ndarray] = None   # (s,) floats in [0,1] or None

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.shape != (int(np.prod(_lattice_shape(self.region)[1])),):
            raise ValidationError(f"expected one value per lattice site of {self.region}, "
                                  f"got shape {values.shape}")
        if np.any(values < 0.0) or np.any(values > 1.0):
            raise ValidationError("configuration values must lie in [0,1]")
        object.__setattr__(self, "values", values)
        if self.free_values is not None:
            fv = np.asarray(self.free_values, dtype=float)
            if np.any(fv < 0.0) or np.any(fv > 1.0):
                raise ValidationError("free-site values must lie in [0,1]")
        if self.free_sites is not None:
            # a site listed twice would carry two couplings, a potential past u_+
            index, count = np.unique(lattice_index(self.region, self.free_sites),
                                     return_counts=True)
            if np.any(count > 1):
                site = self.sites[index[count > 1][0]]
                raise ValidationError(f"repeated free site {tuple(site.tolist())}")

    @property
    def sites(self) -> np.ndarray:
        """The box's lattice sites, one per entry of ``values``."""
        return lattice_sites(self.region)

    def with_free_values(self, t: np.ndarray) -> "Configuration":
        """Same configuration with the free couplings set to ``t``."""
        if self.free_sites is None:
            raise ValidationError("configuration has no free sites")
        t = np.asarray(t, dtype=float)
        if t.shape != (len(self.free_sites),):
            raise ValidationError(f"expected {len(self.free_sites)} free values, got {t.shape}")
        return Configuration(self.region, self.values, self.free_sites, t)

    def couplings(self) -> np.ndarray:
        """One coupling per lattice site: omega, with t_S written at the free sites."""
        if self.free_sites is None or len(self.free_sites) == 0:
            return self.values
        if self.free_values is None:
            raise ValidationError("free sites present but no t_S assigned")
        couplings = self.values.copy()
        couplings[lattice_index(self.region, self.free_sites)] = self.free_values
        return couplings


def sample_configuration(
    dist: SingleSiteDistribution,
    box: BoxSpec,
    free_sites: Optional[Sequence] = None,
    root_seed: int = 0,
    trial: int = 0,
) -> Configuration:
    """Draw an i.i.d. configuration on the lattice sites of ``box``.

    Free sites (lattice sites of the box) are left unassigned, on top of the
    draws.  The draw at a site depends only on ``(root_seed, trial, site
    index)``, the index being the site's place in ``lattice_sites(box)``, so
    free sites do not change any draw.
    """
    n = int(np.prod(_lattice_shape(box)[1]))
    values = dist.sample(lambda level: site_uniforms(root_seed, trial, n, level))
    if free_sites is not None:
        free_sites = np.asarray(free_sites)
        free_sites = free_sites.reshape(0, box.dimension) if free_sites.size == 0 \
            else np.atleast_2d(free_sites)
    return Configuration(box, values, free_sites)
