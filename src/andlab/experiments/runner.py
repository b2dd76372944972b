"""Experiment execution: the kind registry, trial scheduling and persistence.

Each experiment is a pure function of (config, root seed); Monte Carlo
trials are independent, keyed by trial index, and may run in worker
processes -- results are aggregated in index order, so output bytes do not
depend on the worker count.  Each kind is one entry of ``KINDS``: its params
dataclass, which ``validate_config`` builds with every field checked, and
its body, which builds the ensemble, binds the library's trial function, maps
it over the trials and returns ``{file name: writer(path)}``.  Only
``run_experiment`` writes: it makes the run directory once the body has
returned (a failed trial leaves none), then writes and digests those files.
The CLI reads the same registry.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import astuple, dataclass
from functools import partial
from pathlib import Path
from typing import Annotated, Callable, Optional

import numpy as np

from .. import __version__
from ..covering import covering_instance
from ..discretize import Ensemble, GridSpec
from ..errors import ValidationError
from ..ids import checked_energy_grid, ids_counts, ids_curve, log_holder_modulus
from ..model import BoxSpec
from ..msa import (PAIR_CAP, MsaParams, goodness_trial, initial_scale_trial,
                   initial_scale_values, ladder_row)
from ..observables import dichotomy_trial, dynamical_trial
from ..qucp import periodic_projection_gap, qucp_trial
from .config import (Count, ExperimentConfig, Flag, Interval, ModelSection, Positive, Real, Reals,
                     RunSection, Scales, Unit, build_params, check, listed, mapping, optional,
                     real, tagged, v_per_spec)
from .emit import emit_plotdata, file_digest, write_csv, write_json

D = 1  # CLI experiments run the 1-d desk bench; the library API is d-general

Point = Annotated[tuple, listed(real, D)]
EnergyGrid = Annotated[np.ndarray, lambda value, where: checked_energy_grid(value)]


def map_trials(fn: Callable, trials: range, workers: int) -> list:
    """Order-preserving map over trial indices, optionally across processes."""
    if workers <= 1 or len(trials) <= 1:
        return [fn(t) for t in trials]
    from concurrent.futures import ProcessPoolExecutor

    chunk = max(1, len(trials) // (4 * workers))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, trials, chunksize=chunk))


def _ensemble(cfg: ExperimentConfig) -> Ensemble:
    """The config's random operator, with its ``v_per`` field built once per run."""
    m = cfg.model
    return Ensemble(m.distribution, m.grid, m.profile,
                    m.v_per and m.v_per.field(D, m.grid.points_per_unit), cfg.root_seed)


def _box(side: float) -> BoxSpec:
    return BoxSpec(D, (0.0,) * D, side)


def _map(cfg: ExperimentConfig, trial: Callable, box: BoxSpec, *inputs) -> list:
    """``trial(ensemble, box, *inputs, t)`` for every trial ``t``, in trial
    order: the library's trial-function convention."""
    return map_trials(partial(trial, _ensemble(cfg), box, *inputs), range(cfg.n_samples),
                      cfg.workers)


# ---------------------------------------------------------------------------
# params (one frozen dataclass per kind) and bodies: cfg -> {file name: writer}
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CoveringParams:
    n_instances: Count
    # in d = 3 the shipped seed's coverings exceed the 300 000-centre cap
    dims: Annotated[tuple, listed(check(lambda v: type(v) is int and v in (1, 2), "1 or 2"))]
    annulus_instances: Count = None    # None: max(1, n_instances // 5)


def _run_covering_suite(cfg: ExperimentConfig) -> dict:
    n = cfg.params.n_instances
    rows = [covering_instance(cfg.params.dims, n, cfg.root_seed, index)
            for index in range(n + (cfg.params.annulus_instances or max(1, n // 5)))]
    return {"covering_identities.csv": partial(
        write_csv, fieldnames=("instance", "kind", "d", "L", "ell", "alpha", "centers"),
        rows=rows, comment="standard coverings constructed per instance")}


def _run_constants(cfg: ExperimentConfig) -> dict:
    return {"constants.json": partial(write_json, payload=cfg.params.to_dict())}


@dataclass(frozen=True)
class InitialScaleParams:
    scales: Scales
    p: Positive
    eps: Unit
    energy_factor: Positive = 2.0

    def scale(self, ensemble: Ensemble, L: float) -> tuple:
        """``(E_L, m_L, trial)`` at side L: the trial tests lambda_min >= factor * E_L."""
        E_L, m_L = InitialScaleRule(self.eps).values(ensemble, L, self.p)
        return E_L, m_L, partial(initial_scale_trial, ensemble, _box(L),
                                 self.energy_factor * E_L)


@dataclass(frozen=True)
class FixedRule:
    energy: Real = None
    m: Positive = None

    def values(self, ensemble: Ensemble, L: float, p: float) -> tuple:
        return self.energy, self.m


@dataclass(frozen=True)
class InitialScaleRule:
    eps: Unit = 1.0

    def values(self, ensemble: Ensemble, L: float, p: float) -> tuple:
        """``(E_L, m_L)`` at the model's support side delta_plus and V_per period q."""
        return initial_scale_values(L, p, D, self.eps, ensemble.profile.delta_plus,
                                    1 if ensemble.v_per is None else ensemble.v_per.period)


RULES = {"initial-scale": InitialScaleRule, "fixed": FixedRule}
Rule = Annotated[object, tagged(RULES)]   # goodness-ladder (energy, m) at each scale


@dataclass(frozen=True)
class GoodnessParams:
    scales: Scales
    energy_rule: Rule
    m_rule: Rule
    varsigma: Positive
    p: Positive
    pair_cap: Count = PAIR_CAP

    def __post_init__(self):
        # E comes from energy_rule and m from m_rule; the other rule may restate it, equal
        for key, source, other in (("energy", "energy_rule", "m_rule"),
                                   ("m", "m_rule", "energy_rule")):
            given, stated = (getattr(getattr(self, rule), key, None) for rule in (source, other))
            if isinstance(getattr(self, source), FixedRule) and given is None:
                raise ValidationError(f"missing key {key!r} in params.{source}")
            if stated not in (None, given):
                raise ValidationError(f"params.{other}.{key} {stated!r} " + (
                    f"is unused beside an initial-scale params.{source}" if given is None
                    else f"differs from params.{source}.{key} {given!r}"))

    def scale(self, ensemble: Ensemble, L: float) -> tuple:
        """``(E, m, trial)`` at side L: the trial tests (E, m, varsigma)-goodness."""
        energy, _ = self.energy_rule.values(ensemble, L, self.p)
        _, m = self.m_rule.values(ensemble, L, self.p)
        return energy, m, partial(goodness_trial, ensemble, _box(L), energy, m, self.varsigma,
                                  self.pair_cap)


def _ladder_trial(trials: tuple, n_samples: int, index: int) -> bool:
    return trials[index // n_samples](index % n_samples)


def _run_ladder(names: tuple, comment: str, cfg: ExperimentConfig) -> dict:
    """Monte Carlo ladder: one :class:`~andlab.msa.LadderRow` per scale.

    ``cfg.params.scale(ensemble, L)`` gives the scale's energy, rate and
    trial function; ``names`` are the columns of the energy, rate and count.
    """
    columns = ("L", *names[:2], "n", names[2], "p_hat", "wilson_low", "wilson_high",
               "target", "verdict")
    ensemble, n, scales = _ensemble(cfg), cfg.n_samples, cfg.params.scales
    per_scale = [cfg.params.scale(ensemble, L) for L in scales]
    # one pool for the whole ladder: trial index k * n + t is trial t at scale k
    hits = map_trials(partial(_ladder_trial, tuple(trial for _, _, trial in per_scale), n),
                      range(len(scales) * n), cfg.workers)
    rows = [ladder_row(L, D, cfg.params.p, energy, m, sum(hits[k * n:(k + 1) * n]), n)
            for k, (L, (energy, m, _)) in enumerate(zip(scales, per_scale))]
    return {"ladder.csv": partial(write_csv, fieldnames=columns, comment=comment,
                                  rows=[dict(zip(columns, astuple(r))) for r in rows]),
            "plot_ladder.csv": partial(emit_plotdata, [
                {"L": r.scale, "p_hat": r.p_hat,
                 "halfwidth": (r.wilson_high - r.wilson_low) / 2.0} for r in rows], "ladder")}


@dataclass(frozen=True)
class DichotomyParams:
    L: Positive
    interval: Interval
    M: Positive
    vartheta: Positive
    nu: Positive
    outer_factor: Positive = 3.0
    x0: Point = (0.0,) * D


def _run_dichotomy(cfg: ExperimentConfig) -> dict:
    p = cfg.params
    records = _map(cfg, dichotomy_trial, _box(p.outer_factor * p.L), p.x0, p.L, p.interval,
                   p.M, p.vartheta, p.nu)
    return {"dichotomy.csv": partial(
        write_csv, fieldnames=("trial", "energy", "w_x", "w_x_L", "branch_point",
                               "branch_annulus", "product_ok"),
        rows=[dict(vars(r), trial=trial) for trial, rs in enumerate(records) for r in rs],
        comment="either/or concentration records per outer-box eigenvalue")}


@dataclass(frozen=True)
class IdsParams:
    L: Positive
    energy_grid: EnergyGrid
    modulus_fit: Flag = False


def _run_ids(cfg: ExperimentConfig) -> dict:
    p = cfg.params
    counts = _map(cfg, ids_counts, _box(p.L), p.energy_grid)
    curve = ids_curve(p.energy_grid, counts, p.L ** D)
    rows = [{"E": float(e), "N_hat": float(v), "se": float(s)}
            for e, v, s in zip(curve.energies, curve.values, curve.stderr)]
    files = {"ids_curve.csv": partial(write_csv, fieldnames=("E", "N_hat", "se"), rows=rows,
                                      comment="volume-normalized mean eigenvalue counts"),
             "plot_ids.csv": partial(emit_plotdata, rows, "ids")}
    if p.modulus_fit:
        files["modulus.json"] = partial(write_json, payload=vars(log_holder_modulus(curve)))
    return files


@dataclass(frozen=True)
class DynamicalParams:
    L: Positive
    interval: Interval
    b: Positive
    x0: Point
    t_grid: Reals = (0.0, 0.5, 1.0, 2.0, 5.0)


def _run_dynamical(cfg: ExperimentConfig) -> dict:
    p = cfg.params
    moments = _map(cfg, dynamical_trial, _box(p.L), p.interval, p.b, p.x0, p.t_grid)
    return {"dynamical.csv": partial(
        write_csv, fieldnames=("trial", "t", "moment", "proxy", "count", "bounded"),
        rows=[{"trial": trial, "t": t, "moment": val, "proxy": dm.proxy,
               "count": dm.window_count, "bounded": val <= dm.proxy + 1e-10}
              for trial, dm in enumerate(moments) for t, val in dm.samples],
        comment="evolved moment samples against the time-uniform proxy")}


@dataclass(frozen=True)
class QucpParams:
    L: Positive
    delta: Positive
    theta_side: Positive
    probe_count: Count
    theta_center: Point = (0.0,) * D
    D: Positive = None                 # None: max(diam Theta, delta / 4)


def _run_qucp(cfg: ExperimentConfig) -> dict:
    p = cfg.params
    probes = [[-p.L / 2.0 + p.delta + (p.L - 2 * p.delta) * (k + 0.5) / p.probe_count]
              for k in range(p.probe_count)]
    theta = BoxSpec(D, p.theta_center, p.theta_side)
    records = _map(cfg, qucp_trial, _box(p.L), theta, p.delta, probes, p.D)
    rows = [dict(vars(r), trial=trial, x=r.x[0] if D == 1 else str(r.x))
            for trial, rs in enumerate(records) for r in rs]
    kappas = [r["kappa"] for r in rows if r["kappa"] is not None and r["skipped"] is None]
    return {"qucp_records.csv": partial(
                write_csv, fieldnames=("trial", "x", "R", "K", "lhs", "rhs", "ratio", "kappa",
                                       "skipped"),
                rows=rows, comment="local-mass records per probe point"),
            "qucp_fit.json": partial(write_json, payload={
                "kappa_max": max(kappas) if kappas else None,
                "n_records": len(rows), "n_used": len(kappas)})}


@dataclass(frozen=True)
class GapEntry:
    """One ``periodic-gap`` entry: the free periodic operator on a box of side L."""

    L: Positive
    delta: Positive
    interval: Interval
    points_per_unit: Count
    q: Count = None                    # None: the field's period, 1 without a field
    dimension: Count = 1
    v_per: Annotated[object, optional(v_per_spec)] = None

    def __post_init__(self):
        # the q column echoes the field's period (1 for none or the zero field);
        # the tolerance and bounds of periodic_projection_gap, checked before any output
        q = getattr(self.v_per, "period", 1)
        if self.q not in (None, q):
            raise ValidationError(f"benchmark q {self.q!r} differs from its v_per period {q}")
        object.__setattr__(self, "q", q)
        if abs(self.L / q - round(self.L / q)) > 1e-9:
            raise ValidationError(f"benchmark L {self.L!r} is not a multiple of "
                                  f"its v_per period {q}")
        if self.delta > q:
            raise ValidationError(f"benchmark delta {self.delta!r} is outside (0, {q}]")


@dataclass(frozen=True)
class PeriodicGapParams:
    benchmarks: Annotated[tuple, listed(partial(build_params, GapEntry))]


def _run_periodic_gap(cfg: ExperimentConfig) -> dict:
    rows = []
    # the L, delta and window columns echo each entry as written
    for entry, given in zip(cfg.params.benchmarks, cfg.raw["params"]["benchmarks"]):
        v_per = entry.v_per and entry.v_per.field(entry.dimension, entry.points_per_unit)
        res = periodic_projection_gap(v_per, entry.L,
                                      GridSpec(entry.points_per_unit, "periodic"),
                                      entry.interval, entry.delta, entry.dimension)
        rows.append({"q": entry.q, "L": given["L"], "delta": given["delta"],
                     "lo": given["interval"][0], "hi": given["interval"][1],
                     "count": res.count, "gap": res.gap, "empty": res.empty})
    return {"periodic_gap.csv": partial(
                write_csv, fieldnames=("q", "L", "delta", "lo", "hi", "count", "gap", "empty"),
                rows=[dict(r, gap="" if r["gap"] is None else r["gap"]) for r in rows],
                comment="compressed-projection smallest eigenvalues"),
            "periodic_gap.json": partial(write_json, payload={"benchmarks": [
                {"window": [r["lo"], r["hi"]], "delta": r["delta"], "q": r["q"],
                 "L": r["L"], "gap": r["gap"], "count": r["count"], "empty": r["empty"]}
                for r in rows]})}


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Kind:
    """One experiment kind: its params dataclass, its model need and its body."""

    params: type                       # a frozen dataclass; validate_config builds it
    body: Callable                     # cfg -> {file name: writer(path)}
    needs_model: bool = True


KINDS = {
    "covering-suite": Kind(CoveringParams, _run_covering_suite, needs_model=False),
    "constants": Kind(MsaParams, _run_constants, needs_model=False),
    "initial-scale": Kind(InitialScaleParams, partial(
        _run_ladder, ("E_L", "m_L", "successes"), "P{lambda_min >= factor * E_L} per scale")),
    "goodness-ladder": Kind(GoodnessParams, partial(
        _run_ladder, ("E", "m", "good"), "Monte Carlo goodness probability per scale")),
    "dichotomy": Kind(DichotomyParams, _run_dichotomy),
    "ids": Kind(IdsParams, _run_ids),
    "dynamical": Kind(DynamicalParams, _run_dynamical),
    "qucp": Kind(QucpParams, _run_qucp),
    "periodic-gap": Kind(PeriodicGapParams, _run_periodic_gap, needs_model=False),
}


def validate_config(raw: dict) -> ExperimentConfig:
    for key in mapping(raw, "config"):
        if key not in ("experiment", "model", "params", "run"):
            raise ValidationError(f"unknown key {key!r} in config")
    kind = raw.get("experiment")
    if not isinstance(kind, str) or kind not in KINDS:
        raise ValidationError(f"unknown experiment kind {kind!r}; "
                              f"expected one of {tuple(KINDS)}")
    entry, model = KINDS[kind], raw.get("model", {})
    if not entry.needs_model and model:
        raise ValidationError(f"experiment {kind!r} takes no model, but its model sets "
                              f"{sorted(mapping(model, 'model'))}")
    model = build_params(ModelSection, model, "model") if entry.needs_model else None
    params = build_params(entry.params, raw.get("params", {}), "params")
    run = build_params(RunSection, raw.get("run", {}), "run")
    return ExperimentConfig(kind, model, params, run, raw=raw)


def load_config(path) -> ExperimentConfig:
    text = Path(path).read_text()
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"config is not valid JSON: {exc}") from exc
    return validate_config(raw)


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def run_experiment(cfg: ExperimentConfig, out_dir: Optional[str] = None,
                   seed_override: Optional[int] = None,
                   workers_override: Optional[int] = None) -> Path:
    """Execute one experiment; returns the run directory with a manifest."""
    raw = dict(cfg.raw)
    run = dict(raw.get("run", {}))
    if seed_override is not None:
        run["root_seed"] = seed_override
    if workers_override is not None:
        run["workers"] = workers_override
    raw["run"] = run
    cfg = validate_config(raw)

    root = Path(out_dir) if out_dir else \
        Path(cfg.run.out or os.environ.get("ANDLAB_OUT", "andlab_out"))
    root.mkdir(parents=True, exist_ok=True)    # an unusable root fails before any trial
    t0 = time.monotonic()
    files = KINDS[cfg.kind].body(cfg)
    out = root / f"{cfg.kind}-{cfg.digest()[:8]}"
    out.mkdir(exist_ok=True)
    for name, write in files.items():
        write(out / name)
    elapsed = time.monotonic() - t0

    manifest = {
        "experiment": cfg.kind,
        "config": cfg.raw,
        "config_digest": cfg.digest(),
        "code_version": __version__,
        "root_seed": cfg.root_seed,
        "workers": cfg.workers,
        "files": {name: file_digest(out / name) for name in sorted(files)},
        "wall_clock_s": elapsed,
        "module_versions": {"andlab": __version__},
    }
    write_json(out / "manifest.json", manifest)
    return out
