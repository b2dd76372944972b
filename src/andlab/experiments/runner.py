"""Experiment execution: the kind registry, trial scheduling and persistence.

Each experiment is a pure function of (config, root seed); Monte Carlo
trials are independent, keyed by trial index, and may run in worker
processes -- results are aggregated in index order, so output bytes do not
depend on the worker count.  Estimators and their trial functions live in
the library; this module maps trials and writes files.  Each kind is one
entry of ``KINDS``, which the config schema and the CLI also read.
"""

from __future__ import annotations

import os
import time
from dataclasses import astuple, dataclass, fields
from functools import partial
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from .. import __version__
from ..covering import standard_covering_annulus, standard_covering_box
from ..discretize import GridSpec, assemble_hamiltonian
from ..errors import ValidationError
from ..ids import checked_energy_grid, ids_counts, ids_curve, log_holder_modulus
from ..model import AnnulusSpec, BoxSpec, sample_configuration
from ..msa import PAIR_CAP, MsaParams, goodness_trial, initial_scale_values, ladder_row
from ..observables import dichotomy_check, dynamical_moment
from ..qucp import periodic_projection_gap, qucp_verify
from ..rng import derive_key, uniforms
from ..spectral import eigs_window, lowest_eigenvalue
from .config import (ExperimentConfig, _reject_unknown, _v_per_kind, build_distribution,
                     build_grid, build_profile, build_v_per, validate_config)
from .emit import emit_plotdata, file_digest, write_csv, write_json

D = 1  # CLI experiments run the 1-d desk bench; the library API is d-general


def map_trials(fn: Callable, trials: range, workers: int) -> list:
    """Order-preserving map over trial indices, optionally across processes."""
    if workers <= 1 or len(trials) <= 1:
        return [fn(t) for t in trials]
    from concurrent.futures import ProcessPoolExecutor

    chunk = max(1, len(trials) // (4 * workers))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, trials, chunksize=chunk))


# ---------------------------------------------------------------------------
# per-trial functions (top level: picklable) of a model built once per run
# ---------------------------------------------------------------------------

def _model(cfg: ExperimentConfig) -> tuple:
    """``(distribution, grid, profile, v_per)`` of the config's model."""
    model = cfg.model
    grid = build_grid(model["grid"])
    return (build_distribution(model["distribution"]), grid, build_profile(model["profile"]),
            build_v_per(model.get("v_per"), D, grid.points_per_unit))


def _initial_scale_values(model: tuple, L: float, p: float, eps: float) -> tuple:
    """``(E_L, m_L)`` at the model's support side delta_plus and V_per period q."""
    _, _, profile, v_per = model
    return initial_scale_values(L, p, D, eps, profile.delta_plus,
                                1 if v_per is None else v_per.period)


def _hamiltonian(model: tuple, root_seed: int, L: float, trial: int):
    dist, grid, profile, v_per = model
    box = BoxSpec(D, (0.0,) * D, L)
    return assemble_hamiltonian(box, grid, profile,
                                sample_configuration(dist, box, None, root_seed, trial), v_per)


def _trial_initial_scale(model: tuple, root_seed: int, L: float, threshold: float,
                         trial: int) -> bool:
    return bool(lowest_eigenvalue(_hamiltonian(model, root_seed, L, trial)) >= threshold)


def _trial_dichotomy(model: tuple, root_seed: int, L: float, interval: tuple, M: float,
                     vartheta: float, nu: float, outer_factor: float, x0: list,
                     trial: int) -> list:
    dist, grid, profile, v_per = model
    outer = BoxSpec(D, (0.0,) * D, outer_factor * L)
    config = sample_configuration(dist, outer, None, root_seed, trial)
    records = dichotomy_check(outer, grid, profile, config, x0, L, interval, M, vartheta,
                              nu, v_per)
    return [{"trial": trial, "energy": r.energy, "w_x": r.w_x,
             "w_x_L": r.w_x_L, "branch_point": r.branch_point,
             "branch_annulus": r.branch_annulus, "product_ok": r.product_ok}
            for r in records]


def _trial_dynamical(model: tuple, root_seed: int, L: float, interval: tuple, b: float,
                     x0: list, t_grid: tuple, trial: int) -> list:
    dm = dynamical_moment(_hamiltonian(model, root_seed, L, trial), interval, b, x0, t_grid)
    return [{"trial": trial, "t": t, "moment": val, "proxy": dm.proxy,
             "count": dm.window_count, "bounded": val <= dm.proxy + 1e-10}
            for t, val in dm.samples]


def _trial_qucp(model: tuple, root_seed: int, L: float, delta: float, theta: BoxSpec,
                probes: list, D_bound: Optional[float], trial: int) -> list:
    H = _hamiltonian(model, root_seed, L, trial)
    # min V < lambda_0 <= max V + the free ground energy (Dirichlet box)
    lower = min(-0.1, float(np.min(H.potential)) - 0.1)
    upper = 4.0 * (np.pi / L) ** 2 + float(np.max(H.potential)) + 1.0
    res = eigs_window(H, (lower, upper), max_count=1)  # qucp_verify reads the ground pair
    if len(res.energies) == 0:
        return []
    fit = qucp_verify(H, res.vectors[:, 0], float(res.energies[0]), theta, delta, probes,
                      D_bound)
    return [{"trial": trial, "x": r.x[0] if D == 1 else str(r.x),
             "R": r.R, "K": r.K, "lhs": r.lhs, "rhs": r.rhs,
             "ratio": r.ratio, "kappa": r.kappa, "skipped": r.skipped}
            for r in fit.records]


def _trial_rows(cfg: ExperimentConfig, workers: int, trial: Callable, *fixed) -> list:
    """The rows of every trial, in trial order."""
    fn = partial(trial, _model(cfg), cfg.root_seed, *fixed)
    return [row for rows in map_trials(fn, range(cfg.n_samples), workers) for row in rows]


# ---------------------------------------------------------------------------
# experiment bodies: (cfg, out, workers) -> names of the files written
# ---------------------------------------------------------------------------

def _run_covering_suite(cfg: ExperimentConfig, out: Path, workers: int) -> list:
    n = int(cfg.params["n_instances"])
    dims = [int(v) for v in cfg.params["dims"]]
    n_ann = int(cfg.params.get("annulus_instances", max(1, n // 5)))
    key = derive_key(cfg.root_seed, 0xC0FE)
    u = uniforms(key, np.arange(6 * (n + n_ann), dtype=np.uint64)).reshape(-1, 6)
    rows = []
    for i in range(n):
        d = dims[i % len(dims)]
        L = 12.0 + 188.0 * u[i, 0]
        ell = L / 6.0 * (0.3 + 0.7 * u[i, 1])
        x0 = tuple(20.0 * (u[i, 2 + a] - 0.5) for a in range(d))
        box = BoxSpec(d, x0, L)
        cov = standard_covering_box(box, ell, max_centers=300_000)
        per_axis = 2 * cov.steps_per_axis + 1
        rows.append({"instance": i, "kind": "box", "d": d, "L": L, "ell": ell,
                     "alpha": float(cov.alpha), "centers": per_axis ** d})
    for j in range(n_ann):
        d = dims[j % len(dims)]
        L2 = 30.0 + 100.0 * u[n + j, 0]
        L1 = L2 * (0.15 + 0.4 * u[n + j, 1])
        ell = (L2 - L1) / 7.0 * (0.4 + 0.55 * u[n + j, 2])
        ann = AnnulusSpec(d, tuple([0.0] * d), L1, L2)
        cov = standard_covering_annulus(ann, ell, max_centers=300_000)
        rows.append({"instance": n + j, "kind": "annulus", "d": d, "L": L2,
                     "ell": ell, "alpha": float(cov.alpha), "centers": len(cov)})
    write_csv(out / "covering_identities.csv",
              ("instance", "kind", "d", "L", "ell", "alpha", "centers"), rows,
              comment="standard coverings constructed per instance")
    return ["covering_identities.csv"]


def _run_constants(cfg: ExperimentConfig, out: Path, workers: int) -> list:
    write_json(out / "constants.json", MsaParams(**cfg.params).to_dict())
    return ["constants.json"]


def _initial_scale_inputs(params: dict, root_seed: int, model: tuple, L: float) -> tuple:
    E_L, m_L = _initial_scale_values(model, L, float(params["p"]), float(params["eps"]))
    threshold = float(params.get("energy_factor", 2.0)) * E_L
    return E_L, m_L, partial(_trial_initial_scale, model, root_seed, L, threshold)


# goodness-ladder energy/rate rules: kind -> (keys, required, (rule, model, L, p) -> (energy, m))
_RULES = {
    "initial-scale": ({"kind", "eps"}, set(),
                      lambda rule, model, L, p: _initial_scale_values(
                          model, L, p, float(rule.get("eps", 1.0)))),
    "fixed": ({"kind", "energy", "m"}, {"energy", "m"},
              lambda rule, model, L, p: (float(rule["energy"]), float(rule["m"]))),
}


def _check_rules(params: dict) -> None:
    for name in ("energy_rule", "m_rule"):
        if not isinstance(params[name], dict):
            raise ValidationError(f"params.{name} must be an object")
        kind = params[name].get("kind")
        if kind not in _RULES:
            raise ValidationError(f"unknown rule kind {kind!r} in params.{name}")
        _reject_unknown(params[name], _RULES[kind][0], f"params.{name}")
        missing = sorted(_RULES[kind][1] - set(params[name]))
        if missing:
            raise ValidationError(f"missing key {missing[0]!r} in params.{name}")
    cap = params.get("pair_cap", PAIR_CAP)
    if type(cap) is not int or cap < 1:  # a bool is not a cap
        raise ValidationError(f"params.pair_cap must be an integer >= 1, got {cap!r}")


def _goodness_inputs(params: dict, root_seed: int, model: tuple, L: float) -> tuple:
    p = float(params["p"])
    energy_rule, m_rule = params["energy_rule"], params["m_rule"]
    energy, _ = _RULES[energy_rule["kind"]][2](energy_rule, model, L, p)
    _, m = _RULES[m_rule["kind"]][2](m_rule, model, L, p)
    dist, grid, profile, v_per = model
    return energy, m, partial(goodness_trial, dist, BoxSpec(D, (0.0,) * D, L), grid, profile,
                              energy, m, float(params["varsigma"]), root_seed, v_per,
                              params.get("pair_cap", PAIR_CAP))


def _ladder_trial(trials: tuple, n_samples: int, index: int) -> bool:
    return trials[index // n_samples](index % n_samples)


def _run_ladder(inputs: Callable, columns: tuple, comment: str,
                cfg: ExperimentConfig, out: Path, workers: int) -> list:
    """Monte Carlo ladder: one :class:`~andlab.msa.LadderRow` per scale.

    ``inputs(params, root_seed, model, L)`` gives the scale's energy, rate and trial
    function; ``columns`` name the leading LadderRow fields, in order.
    """
    p = float(cfg.params["p"])
    model = _model(cfg)
    n = cfg.n_samples
    scales = [float(L) for L in cfg.params["scales"]]
    per_scale = [inputs(cfg.params, cfg.root_seed, model, L) for L in scales]
    # one pool for the whole ladder: trial index k * n + t is trial t at scale k
    hits = map_trials(partial(_ladder_trial, tuple(trial for _, _, trial in per_scale), n),
                      range(len(scales) * n), workers)
    rows = [ladder_row(L, D, p, energy, m, sum(hits[k * n:(k + 1) * n]), n)
            for k, (L, (energy, m, _)) in enumerate(zip(scales, per_scale))]
    write_csv(out / "ladder.csv", columns, [dict(zip(columns, astuple(r))) for r in rows],
              comment=comment)
    emit_plotdata([{"L": r.scale, "p_hat": r.p_hat,
                    "halfwidth": (r.wilson_high - r.wilson_low) / 2.0}
                   for r in rows], "ladder", out / "plot_ladder.csv")
    return ["ladder.csv", "plot_ladder.csv"]


def _run_dichotomy(cfg: ExperimentConfig, out: Path, workers: int) -> list:
    p = cfg.params
    rows = _trial_rows(cfg, workers, _trial_dichotomy, float(p["L"]), tuple(p["interval"]),
                       float(p["M"]), float(p["vartheta"]), float(p["nu"]),
                       float(p.get("outer_factor", 3.0)), list(p.get("x0", [0.0] * D)))
    write_csv(out / "dichotomy.csv",
              ("trial", "energy", "w_x", "w_x_L", "branch_point",
               "branch_annulus", "product_ok"), rows,
              comment="either/or concentration records per outer-box eigenvalue")
    return ["dichotomy.csv"]


def _check_energy_grid(params: dict) -> None:
    checked_energy_grid(params["energy_grid"])


def _run_ids(cfg: ExperimentConfig, out: Path, workers: int) -> list:
    energies = checked_energy_grid(cfg.params["energy_grid"])
    L = float(cfg.params["L"])
    dist, grid, profile, v_per = _model(cfg)
    trial = partial(ids_counts, dist, BoxSpec(D, (0.0,) * D, L), grid, profile, energies,
                    cfg.root_seed, v_per)
    curve = ids_curve(energies, map_trials(trial, range(cfg.n_samples), workers), L ** D)
    rows = [{"E": float(e), "N_hat": float(v), "se": float(s)}
            for e, v, s in zip(curve.energies, curve.values, curve.stderr)]
    files = ["ids_curve.csv", "plot_ids.csv"]
    write_csv(out / "ids_curve.csv", ("E", "N_hat", "se"), rows,
              comment="volume-normalized mean eigenvalue counts")
    emit_plotdata(rows, "ids", out / "plot_ids.csv")
    if cfg.params.get("modulus_fit", False):
        fit = log_holder_modulus(curve)
        write_json(out / "modulus.json", {"constant": fit.constant, "slope": fit.slope,
                                          "n_pairs": fit.n_pairs})
        files.append("modulus.json")
    return files


def _run_dynamical(cfg: ExperimentConfig, out: Path, workers: int) -> list:
    p = cfg.params
    rows = _trial_rows(cfg, workers, _trial_dynamical, float(p["L"]), tuple(p["interval"]),
                       float(p["b"]), list(p["x0"]),
                       tuple(p.get("t_grid", (0.0, 0.5, 1.0, 2.0, 5.0))))
    write_csv(out / "dynamical.csv",
              ("trial", "t", "moment", "proxy", "count", "bounded"), rows,
              comment="evolved moment samples against the time-uniform proxy")
    return ["dynamical.csv"]


def _run_qucp(cfg: ExperimentConfig, out: Path, workers: int) -> list:
    p = cfg.params
    L = float(p["L"])
    count = int(p["probe_count"])
    delta = float(p["delta"])
    probes = [[-L / 2.0 + delta + (L - 2 * delta) * (k + 0.5) / count]
              for k in range(count)]
    theta = BoxSpec(D, tuple(p.get("theta_center", [0.0] * D)), float(p["theta_side"]))
    rows = _trial_rows(cfg, workers, _trial_qucp, L, delta, theta, probes, p.get("D"))
    write_csv(out / "qucp_records.csv",
              ("trial", "x", "R", "K", "lhs", "rhs", "ratio", "kappa", "skipped"),
              rows, comment="local-mass records per probe point")
    kappas = [r["kappa"] for r in rows if r["kappa"] is not None and r["skipped"] is None]
    write_json(out / "qucp_fit.json", {
        "kappa_max": max(kappas) if kappas else None,
        "n_records": len(rows),
        "n_used": len(kappas),
    })
    return ["qucp_records.csv", "qucp_fit.json"]


_BENCHMARK_KEYS = {"q", "L", "delta", "interval", "points_per_unit", "dimension", "v_per"}
_BENCHMARK_REQUIRED = {"L", "delta", "interval", "points_per_unit"}


def _check_benchmarks(params: dict) -> None:
    if not isinstance(params["benchmarks"], list):
        raise ValidationError("params.benchmarks must be a list")
    for bench in params["benchmarks"]:
        if not isinstance(bench, dict):
            raise ValidationError("each entry of params.benchmarks must be an object")
        _reject_unknown(bench, _BENCHMARK_KEYS, "benchmark")
        missing = sorted(_BENCHMARK_REQUIRED - set(bench))
        if missing:
            raise ValidationError(f"missing key {missing[0]!r} in benchmark")
        spec = bench.get("v_per")
        q = 1 if spec is None or _v_per_kind(spec) == "zero" else int(spec.get("period", 1))
        if bench.get("q", q) != q:  # the q column echoes the field's period
            raise ValidationError(f"benchmark q {bench['q']!r} differs from its "
                                  f"v_per period {q}")
        # the tolerance and bounds of periodic_projection_gap, checked before any output
        ratio = float(bench["L"]) / q
        if abs(ratio - round(ratio)) > 1e-9:
            raise ValidationError(f"benchmark L {bench['L']!r} is not a multiple of "
                                  f"its v_per period {q}")
        if not 0.0 < float(bench["delta"]) <= q:
            raise ValidationError(f"benchmark delta {bench['delta']!r} is outside (0, {q}]")


def _run_periodic_gap(cfg: ExperimentConfig, out: Path, workers: int) -> list:
    rows = []
    for bench in cfg.params["benchmarks"]:
        dimension, points_per_unit = int(bench.get("dimension", 1)), int(bench["points_per_unit"])
        v_per = build_v_per(bench.get("v_per"), dimension, points_per_unit)
        res = periodic_projection_gap(v_per, float(bench["L"]),
                                      GridSpec(points_per_unit, "periodic"),
                                      tuple(bench["interval"]), float(bench["delta"]), dimension)
        rows.append({"q": 1 if v_per is None else v_per.period, "L": bench["L"],
                     "delta": bench["delta"], "lo": bench["interval"][0],
                     "hi": bench["interval"][1], "count": res.count, "gap": res.gap,
                     "empty": res.empty})
    write_csv(out / "periodic_gap.csv",
              ("q", "L", "delta", "lo", "hi", "count", "gap", "empty"),
              [dict(r, gap="" if r["gap"] is None else r["gap"]) for r in rows],
              comment="compressed-projection smallest eigenvalues")
    write_json(out / "periodic_gap.json", {"benchmarks": [
        {"window": [r["lo"], r["hi"]], "delta": r["delta"], "q": r["q"],
         "L": r["L"], "gap": r["gap"], "count": r["count"], "empty": r["empty"]}
        for r in rows]})
    return ["periodic_gap.csv", "periodic_gap.json"]


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Kind:
    """One experiment kind: its params, its model need and its body."""

    body: Callable                     # (cfg, out, workers) -> file names
    required: set
    optional: set
    needs_model: bool = True
    check: Optional[Callable] = None   # params -> None; raises ValidationError


KINDS = {
    "covering-suite": Kind(_run_covering_suite, {"n_instances", "dims"},
                           {"annulus_instances"}, needs_model=False),
    "constants": Kind(_run_constants, {"d", "p"},
                      {f.name for f in fields(MsaParams) if f.init} - {"d", "p"},
                      needs_model=False),
    "initial-scale": Kind(
        partial(_run_ladder, _initial_scale_inputs,
                ("L", "E_L", "m_L", "n", "successes", "p_hat", "wilson_low",
                 "wilson_high", "target", "verdict"),
                "P{lambda_min >= factor * E_L} per scale"),
        {"scales", "p", "eps"}, {"energy_factor"}),
    "goodness-ladder": Kind(
        partial(_run_ladder, _goodness_inputs,
                ("L", "E", "m", "n", "good", "p_hat", "wilson_low", "wilson_high",
                 "target", "verdict"),
                "Monte Carlo goodness probability per scale"),
        {"scales", "energy_rule", "m_rule", "varsigma", "p"}, {"pair_cap"},
        check=_check_rules),
    "dichotomy": Kind(_run_dichotomy, {"L", "interval", "M", "vartheta", "nu"},
                      {"x0", "outer_factor"}),
    "ids": Kind(_run_ids, {"L", "energy_grid"}, {"modulus_fit"}, check=_check_energy_grid),
    "dynamical": Kind(_run_dynamical, {"L", "interval", "b", "x0"}, {"t_grid"}),
    "qucp": Kind(_run_qucp, {"L", "delta", "theta_side", "probe_count"},
                 {"theta_center", "D"}),
    "periodic-gap": Kind(_run_periodic_gap, {"benchmarks"}, set(), needs_model=False,
                         check=_check_benchmarks),
}


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def run_experiment(cfg: ExperimentConfig, out_dir: Optional[str] = None,
                   seed_override: Optional[int] = None,
                   workers_override: Optional[int] = None) -> Path:
    """Execute one experiment; returns the output directory with a manifest."""
    raw = dict(cfg.raw)
    run = dict(raw.get("run", {}))
    if seed_override is not None:
        run["root_seed"] = seed_override
    if workers_override is not None:
        run["workers"] = workers_override
    raw["run"] = run
    cfg = validate_config(raw)
    workers = cfg.workers

    root = Path(out_dir) if out_dir else \
        Path(cfg.run.get("out") or os.environ.get("ANDLAB_OUT", "andlab_out"))
    out = root / f"{cfg.kind}-{cfg.digest()[:8]}"
    out.mkdir(parents=True, exist_ok=True)

    t0 = time.monotonic()
    files = KINDS[cfg.kind].body(cfg, out, workers)
    elapsed = time.monotonic() - t0

    manifest = {
        "experiment": cfg.kind,
        "config": cfg.raw,
        "config_digest": cfg.digest(),
        "code_version": __version__,
        "root_seed": cfg.root_seed,
        "workers": workers,
        "files": {name: file_digest(out / name) for name in sorted(files)},
        "wall_clock_s": elapsed,
        "module_versions": {"andlab": __version__},
    }
    write_json(out / "manifest.json", manifest)
    return out
