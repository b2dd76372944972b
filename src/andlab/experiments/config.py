"""Experiment configuration: typed sections and model builders.

Configs are flat JSON documents with four sections; unknown keys are
rejected by name.  Every section is a frozen dataclass: the kind's params
(``Kind.params`` in ``runner.KINDS``), :class:`ModelSection` and
:class:`RunSection`.  Each field's annotation is a checked type from the
vocabulary below, and a field without a default is required.
``runner.validate_config`` builds every section, so each value is checked
before any output exists.  Physics parameters default only where the model does: a
Bernoulli ``q`` of 0.5, a profile ``u_plus`` and ``delta_plus`` of 1.0 and a grid
``boundary`` of ``"dirichlet"``.  The params defaults are the dataclasses' own.
"""

from __future__ import annotations

import hashlib
import json
import math
import numbers
from dataclasses import MISSING, dataclass, field, fields
from functools import lru_cache, partial
from typing import Annotated, Callable, Optional, get_origin, get_type_hints

from ..discretize import GridSpec, PeriodicField, cosine_potential, periodic_ground_energy
from ..errors import ValidationError
from ..model import Atoms, Bernoulli, Mixture, SingleSiteDistribution, SiteProfile, Uniform01

# ---------------------------------------------------------------------------
# checked field types: a check(value, where) in each annotation's metadata
# ---------------------------------------------------------------------------

def check(test: Callable, what: str, cast: Callable = lambda value: value):
    """The check that passes ``value`` when ``test(value)``, as ``cast(value)``."""
    def checked(value, where: str):
        if not test(value):
            raise ValidationError(f"{where} must be {what}, got {value!r}")
        return cast(value)
    return checked


def _is_real(value) -> bool:  # a bool is not a number, nor is inf or nan
    return not isinstance(value, bool) and isinstance(value, numbers.Real) \
        and math.isfinite(value)


def listed(entry: Callable, length: Optional[int] = None):
    """A non-empty list, of ``length`` entries if given, each checked by ``entry``."""
    shape = check(lambda v: isinstance(v, list) and (len(v) == length if length else len(v) > 0),
                  f"a list of {length or 'one or more'} entries")
    return lambda value, where: tuple(entry(v, f"{where}[{i}]")
                                      for i, v in enumerate(shape(value, where)))


def tagged(kinds: dict):
    """An object ``{"kind": name, ...}``, built as ``kinds[name]`` from its other keys."""
    def checked(value, where: str):
        kind = mapping(value, where).get("kind")
        if not isinstance(kind, str) or kind not in kinds:
            raise ValidationError(f"unknown kind {kind!r} in {where}")
        return build_params(kinds[kind], {k: v for k, v in value.items() if k != "kind"}, where)
    return checked


def optional(entry: Callable):
    return lambda value, where: None if value is None else entry(value, where)


real = check(_is_real, "a finite number", float)
positive = check(lambda v: _is_real(v) and v > 0.0, "positive", float)
count = check(lambda v: type(v) is int and v >= 1, "an integer >= 1")
text = check(lambda v: isinstance(v, str), "a string")
mapping = check(lambda v: isinstance(v, dict), "an object")
_ordered = check(lambda v: v[0] <= v[1], "ordered, lo <= hi")

Real = Annotated[float, real]
Positive = Annotated[float, positive]
Unit = Annotated[float, check(lambda v: _is_real(v) and 0.0 < v <= 1.0, "in (0, 1]", float)]
Seed = Annotated[int, check(lambda v: type(v) is int and 0 <= v < 2**64,
                            "an integer in [0, 2^64)")]
Count = Annotated[int, count]
Flag = Annotated[bool, check(lambda v: isinstance(v, bool), "true or false")]
Interval = Annotated[tuple, lambda value, where: _ordered(listed(real, 2)(value, where), where)]
Scales = Annotated[tuple, listed(positive)]
Reals = Annotated[tuple, listed(real)]


def _component(value, where: str) -> tuple:  # [weight, distribution spec]
    weight, spec = listed(lambda v, w: v, 2)(value, where)
    return real(weight, where), tagged(_DISTRIBUTIONS)(spec, where)


# checks of the plain annotations of library classes (MsaParams, the model's
# laws, SiteProfile, GridSpec); a field with none is no config key: a profile's
# callable shape and the lower sandwich u_minus, delta_minus that only a shape reads
_PLAIN = {int: count, float: real, Optional[float]: optional(real), str: text,
          (Atoms, "points"): listed(listed(real, 2)),     # [value, weight] pairs
          (Mixture, "components"): listed(_component),      # [weight, law] pairs
          (SiteProfile, "u_minus"): None, (SiteProfile, "delta_minus"): None}


@lru_cache(maxsize=None)
def _checks(cls) -> dict:
    hints = get_type_hints(cls, include_extras=True)
    checks = {f.name: hints[f.name].__metadata__[0] if get_origin(hints[f.name]) is Annotated
              else _PLAIN.get((cls, f.name), _PLAIN.get(hints[f.name]))
              for f in fields(cls) if f.init}
    return {name: fn for name, fn in checks.items() if fn is not None}


def build_params(cls, spec, where: str):
    """``cls`` from a config object, each value checked by its field's type."""
    checks = _checks(cls)
    for key in mapping(spec, where):
        if key not in checks:
            raise ValidationError(f"unknown key {key!r} in {where}")
    for f in fields(cls):
        if f.init and f.name not in spec and f.default is MISSING:
            raise ValidationError(f"missing key {f.name!r} in {where}")
    return cls(**{key: checks[key](value, f"{where}.{key}") for key, value in spec.items()})


# ---------------------------------------------------------------------------
# the model: laws, profile, grid and periodic field
# ---------------------------------------------------------------------------

_DISTRIBUTIONS = {"bernoulli": Bernoulli, "uniform01": Uniform01, "atoms": Atoms,
                  "mixture": Mixture}


@dataclass(frozen=True)
class Cosine:
    """``offset + amplitude * sum_a cos(2 pi x_a / period)``; under ``auto_shift``
    less inf spec(-Lap + V_per) at the dimension and mesh of its box."""

    amplitude: Real = 1.0
    period: Count = 1
    offset: Real = 0.0
    auto_shift: Flag = False

    def field(self, dimension: Optional[int], points_per_unit: Optional[int]) -> PeriodicField:
        cosine = partial(cosine_potential, self.amplitude, self.period, self.offset)
        unshifted = PeriodicField(partial(cosine, 0.0), self.period)
        if not self.auto_shift:
            return unshifted
        if dimension is None or points_per_unit is None:
            raise ValidationError("v_per auto_shift needs the dimension and "
                                  "points_per_unit of the box it shifts")
        shift = periodic_ground_energy(unshifted, dimension, points_per_unit)
        return PeriodicField(partial(cosine, shift), self.period)


@dataclass(frozen=True)
class Zero:
    def field(self, dimension: Optional[int], points_per_unit: Optional[int]) -> None:
        return None


_V_PER = {"zero": Zero, "cosine": Cosine}


def v_per_spec(spec, where: str = "v_per"):
    """The checked :class:`Zero` or :class:`Cosine` of a ``v_per`` spec (kind
    ``zero`` by default); builds no field, so it never runs ``auto_shift``'s solve."""
    return tagged(_V_PER)({"kind": "zero", **mapping(spec, where)}, where)


@dataclass(frozen=True)
class ModelSection:
    """A config's model; the runner builds the field of its ``v_per`` spec,
    since ``auto_shift`` needs the dimension of the box it shifts."""

    distribution: Annotated[SingleSiteDistribution, tagged(_DISTRIBUTIONS)]
    profile: Annotated[SiteProfile, partial(build_params, SiteProfile)]
    grid: Annotated[GridSpec, partial(build_params, GridSpec)]
    v_per: Annotated[object, optional(v_per_spec)] = None


# builders from spec dicts, one model section each

def build_distribution(spec: dict) -> SingleSiteDistribution:
    return tagged(_DISTRIBUTIONS)(spec, "distribution")


def build_profile(spec: dict) -> SiteProfile:
    return build_params(SiteProfile, spec, "profile")


def build_grid(spec: dict) -> GridSpec:
    return build_params(GridSpec, spec, "grid")


def build_v_per(spec: Optional[dict], dimension: Optional[int] = None,
                points_per_unit: Optional[int] = None) -> Optional[PeriodicField]:
    """The periodic field of a ``v_per`` spec; picklable, so a model built
    once per run crosses to worker processes."""
    return None if spec is None else v_per_spec(spec).field(dimension, points_per_unit)


# ---------------------------------------------------------------------------
# the config
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RunSection:
    root_seed: Seed = 0      # folded into 64-bit stream keys: a wider seed would alias
    n_samples: Count = 1
    workers: Count = 1
    out: Annotated[Optional[str], optional(text)] = None  # the output root, as --out


@dataclass(frozen=True)
class ExperimentConfig:
    kind: str
    model: Optional[ModelSection]  # None for a kind without a model
    params: object                 # the kind's params dataclass
    run: RunSection
    raw: dict = field(repr=False, default_factory=dict)

    def digest(self) -> str:
        canonical = json.dumps(self.raw, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode()).hexdigest()

    @property
    def root_seed(self) -> int:
        return self.run.root_seed

    @property
    def n_samples(self) -> int:
        return self.run.n_samples

    @property
    def workers(self) -> int:
        return self.run.workers
