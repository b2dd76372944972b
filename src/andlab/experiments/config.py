"""Experiment configuration: strict JSON schema and model builders.

Configs are flat JSON documents with four sections; unknown keys are
rejected by name.  Physics parameters have no silent defaults -- each
experiment kind's entry in ``runner.KINDS`` declares which are required and
which are optional, and may check its params further.  Solver knobs default
and are echoed into the manifest.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Optional

import numpy as np

from ..discretize import GridSpec, PeriodicField
from ..errors import ValidationError
from ..model import Atoms, Bernoulli, Mixture, SingleSiteDistribution, SiteProfile, Uniform01

_TOP_KEYS = {"experiment", "model", "params", "run"}
_MODEL_KEYS = {"distribution", "profile", "v_per", "grid"}
_RUN_KEYS = {"root_seed", "n_samples", "workers", "out"}


@dataclass(frozen=True)
class ExperimentConfig:
    kind: str
    model: dict
    params: dict
    run: dict
    raw: dict = field(repr=False, default_factory=dict)

    def digest(self) -> str:
        canonical = json.dumps(self.raw, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode()).hexdigest()

    @property
    def root_seed(self) -> int:
        return self.run.get("root_seed", 0)

    @property
    def n_samples(self) -> int:
        return self.run.get("n_samples", 1)

    @property
    def workers(self) -> int:
        return self.run.get("workers", 1)


def _reject_unknown(section: dict, allowed: set, where: str) -> None:
    for key in section:
        if key not in allowed:
            raise ValidationError(f"unknown key {key!r} in {where}")


def validate_config(raw: dict) -> ExperimentConfig:
    from .runner import KINDS  # the runner imports this module's builders

    if not isinstance(raw, dict):
        raise ValidationError("config must be a JSON object")
    _reject_unknown(raw, _TOP_KEYS, "config")
    kind = raw.get("experiment")
    if not isinstance(kind, str) or kind not in KINDS:
        raise ValidationError(f"unknown experiment kind {kind!r}; "
                              f"expected one of {tuple(KINDS)}")
    entry = KINDS[kind]
    model = raw.get("model", {})
    _reject_unknown(model, _MODEL_KEYS, "model")
    if entry.needs_model:
        for required in ("distribution", "profile", "grid"):
            if required not in model:
                raise ValidationError(f"experiment {kind!r} requires model.{required}")
    for name, build in (("distribution", build_distribution), ("profile", build_profile),
                        ("grid", build_grid), ("v_per", _v_per_kind)):
        spec = model.get(name)
        if spec is not None:
            if not isinstance(spec, dict):
                raise ValidationError(f"model.{name} must be an object")
            build(spec)
    params = raw.get("params", {})
    _reject_unknown(params, entry.required | entry.optional, "params")
    missing = entry.required - set(params)
    if missing:
        raise ValidationError(f"experiment {kind!r} missing params: {sorted(missing)}")
    run = raw.get("run", {})
    if not isinstance(run, dict):
        raise ValidationError("run must be an object")
    _reject_unknown(run, _RUN_KEYS, "run")
    for key in ("root_seed", "n_samples", "workers"):  # a bool or float is refused, not truncated
        value = run.get(key, 1)
        bound = "" if key == "root_seed" else " >= 1"
        if type(value) is not int or bound and value < 1:
            raise ValidationError(f"run.{key} must be an integer{bound}, got {value!r}")
    if entry.check is not None:
        entry.check(params)
    return ExperimentConfig(kind, dict(model), dict(params), dict(run), raw=raw)


def load_config(path) -> ExperimentConfig:
    text = Path(path).read_text()
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"config is not valid JSON: {exc}") from exc
    return validate_config(raw)


# ---------------------------------------------------------------------------
# builders from spec dicts (picklable inputs for worker processes)
# ---------------------------------------------------------------------------

_DISTRIBUTION_KEYS = {"bernoulli": {"kind", "q"}, "uniform01": {"kind"},
                      "atoms": {"kind", "points"}, "mixture": {"kind", "components"}}
_PROFILE_KEYS = {"u_plus", "delta_plus", "u_minus", "delta_minus"}
_GRID_KEYS = {"points_per_unit", "boundary"}


def build_distribution(spec: dict) -> SingleSiteDistribution:
    kind = spec.get("kind")
    if not isinstance(kind, str) or kind not in _DISTRIBUTION_KEYS:
        raise ValidationError(f"unknown distribution kind {kind!r}")
    _reject_unknown(spec, _DISTRIBUTION_KEYS[kind], "distribution")
    if kind == "bernoulli":
        return Bernoulli(float(spec.get("q", 0.5)))
    if kind == "uniform01":
        return Uniform01()
    if kind == "atoms":
        return Atoms(tuple((float(v), float(w)) for v, w in spec["points"]))
    return Mixture(tuple((float(w), build_distribution(c)) for w, c in spec["components"]))


def build_profile(spec: dict) -> SiteProfile:
    _reject_unknown(spec, _PROFILE_KEYS, "profile")
    return SiteProfile(
        u_plus=float(spec.get("u_plus", 1.0)),
        delta_plus=float(spec.get("delta_plus", 1.0)),
        u_minus=None if "u_minus" not in spec else float(spec["u_minus"]),
        delta_minus=None if "delta_minus" not in spec else float(spec["delta_minus"]),
    )


def build_grid(spec: dict) -> GridSpec:
    _reject_unknown(spec, _GRID_KEYS, "grid")
    return GridSpec(int(spec["points_per_unit"]), spec.get("boundary", "dirichlet"))


_V_PER_KEYS = {"zero": {"kind"},
               "cosine": {"kind", "amplitude", "period", "offset", "auto_shift"}}


def _v_per_kind(spec: dict) -> str:
    """The key-checked kind of a ``v_per`` spec; builds nothing, so a config
    check never runs ``auto_shift``'s eigen-solve."""
    kind = spec.get("kind", "zero")
    if kind not in _V_PER_KEYS:
        raise ValidationError(f"unknown v_per kind {kind!r}")
    _reject_unknown(spec, _V_PER_KEYS[kind], "v_per")
    return kind


def _cosine(amplitude: float, period: int, offset: float, shift: float, points):
    """``offset + amplitude * sum_a cos(2 pi x_a / period) - shift`` per point."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    return offset + amplitude * np.sum(np.cos(2.0 * np.pi * points / period), axis=1) - shift


def build_v_per(spec: Optional[dict], dimension: Optional[int] = None,
                points_per_unit: Optional[int] = None) -> Optional[PeriodicField]:
    """The periodic field of a ``v_per`` spec; picklable, so a model built
    once per run crosses to worker processes.  ``auto_shift`` normalizes
    inf spec(-Lap + V_per) to zero at the dimension and mesh of its box."""
    if spec is None or _v_per_kind(spec) == "zero":
        return None
    period = int(spec.get("period", 1))
    cosine = partial(_cosine, float(spec.get("amplitude", 1.0)), period,
                     float(spec.get("offset", 0.0)))
    field = PeriodicField(partial(cosine, 0.0), period)
    if spec.get("auto_shift", False):
        if dimension is None or points_per_unit is None:
            raise ValidationError("v_per auto_shift needs the dimension and "
                                  "points_per_unit of the box it shifts")
        shift = periodic_ground_energy(field, dimension, points_per_unit)
        return PeriodicField(partial(cosine, shift), period)
    return field


def periodic_ground_energy(field: PeriodicField, dimension: int,
                           points_per_unit: int = 8) -> float:
    """inf spec(-Lap + V_per) on the grid: the lowest eigenvalue on one period.

    The periodic operator's ground state is positive and simple
    (Perron-Frobenius), hence invariant under translation by a period, so it
    lies in the k = 0 Floquet-Bloch block of every periodic box: the
    one-period cell, whose lowest eigenvalue is exactly that of any
    multi-period supercell on the same nodes.
    """
    from ..discretize import assemble_hamiltonian, empty_configuration
    from ..model import BoxSpec
    from ..spectral import lowest_eigenvalue

    side = float(field.period)
    # corner on q Z^d: V_per is sampled where an origin-centred box of an
    # even number of periods samples it
    box = BoxSpec(dimension, tuple([side / 2.0] * dimension), side)
    H = assemble_hamiltonian(box, GridSpec(points_per_unit, "periodic"),
                             SiteProfile(), empty_configuration(box), field)
    return lowest_eigenvalue(H)
