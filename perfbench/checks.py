"""Output checks and cheap oracles for each experiment kind.

Every check states an invariant that any correct version of the program
keeps, so a failed check counts the experiment run as failed.  ``check_output``
reads only the files a run wrote; the oracles in ``ORACLES`` recompute one
number independently of the code path that produced it.  Each function
returns a list of problems, empty when the output is correct.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

import numpy as np
import scipy.linalg as la

TOL = 1e-9


def read_csv(path: Path) -> list:
    with path.open(newline="") as fh:
        lines = [line for line in fh if not line.startswith("#")]
    return list(csv.DictReader(lines))


def _f(value: str) -> float:
    return float(value) if value != "" else math.nan


def _b(value: str) -> bool:
    if value not in ("true", "false"):
        raise ValueError(f"not a boolean cell: {value!r}")
    return value == "true"


def digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _check_manifest(raw: dict, out: Path) -> list:
    manifest = json.loads((out / "manifest.json").read_text())
    problems = []
    if manifest["experiment"] != raw["experiment"]:
        problems.append(f"manifest kind {manifest['experiment']!r}")
    if manifest["root_seed"] != raw["run"]["root_seed"]:
        problems.append(f"manifest root_seed {manifest['root_seed']}")
    for name, want in manifest["files"].items():
        if digest(out / name) != want:
            problems.append(f"{name}: digest differs from the manifest")
    return problems


def _check_ladder(raw: dict, out: Path, count_col: str) -> list:
    problems = []
    rows = read_csv(out / "ladder.csv")
    scales = [float(v) for v in raw["params"]["scales"]]
    n_samples = raw["run"]["n_samples"]
    p = float(raw["params"]["p"])
    if [_f(r["L"]) for r in rows] != scales:
        problems.append("ladder rows do not follow the configured scales")
    for r in rows:
        n, succ = int(r["n"]), int(r[count_col])
        p_hat, lo, hi = _f(r["p_hat"]), _f(r["wilson_low"]), _f(r["wilson_high"])
        if n != n_samples:
            problems.append(f"L={r['L']}: n={n} but n_samples={n_samples}")
        if not 0 <= succ <= n or abs(p_hat - succ / n) > TOL:
            problems.append(f"L={r['L']}: p_hat={p_hat} from {succ}/{n}")
        if not (0.0 <= lo <= p_hat + TOL and p_hat <= hi + TOL and hi <= 1.0):
            problems.append(f"L={r['L']}: Wilson interval [{lo}, {hi}] misses p_hat={p_hat}")
        target = 1.0 - _f(r["L"]) ** (-p)
        if abs(_f(r["target"]) - target) > TOL:
            problems.append(f"L={r['L']}: target {r['target']} != 1 - L^-p")
        if _b(r["verdict"]) != (lo >= _f(r["target"]) or p_hat >= _f(r["target"])):
            problems.append(f"L={r['L']}: verdict inconsistent with its interval")
    plot = read_csv(out / "plot_ladder.csv")
    if [(_f(q["x"]), _f(q["y"])) for q in plot] != [(_f(r["L"]), _f(r["p_hat"])) for r in rows]:
        problems.append("plot_ladder.csv disagrees with ladder.csv")
    return problems


def _check_ids(raw: dict, out: Path) -> list:
    problems = []
    rows = read_csv(out / "ids_curve.csv")
    grid = [float(v) for v in raw["params"]["energy_grid"]]
    if [_f(r["E"]) for r in rows] != grid:
        problems.append("IDS rows do not follow the energy grid")
    values = [_f(r["N_hat"]) for r in rows]
    if any(b < a for a, b in zip(values, values[1:])):
        problems.append("IDS counts decrease")
    if any(not v >= 0.0 for v in values) or any(not _f(r["se"]) >= 0.0 for r in rows):
        problems.append("negative IDS value or standard error")
    if raw["params"].get("modulus_fit") and not (out / "modulus.json").exists():
        problems.append("modulus fit requested but not written")
    return problems


def _check_dynamical(raw: dict, out: Path) -> list:
    problems = []
    rows = read_csv(out / "dynamical.csv")
    for r in rows:
        if not (0.0 <= _f(r["moment"]) <= _f(r["proxy"]) + 1e-10) or not _b(r["bounded"]):
            problems.append(f"trial {r['trial']} t={r['t']}: moment above its proxy")
        if int(r["count"]) < 1:
            problems.append(f"trial {r['trial']}: row written for an empty window")
    t_grid = raw["params"].get("t_grid", (0.0, 0.5, 1.0, 2.0, 5.0))
    per_trial = {}
    for r in rows:
        per_trial.setdefault(int(r["trial"]), []).append(_f(r["t"]))
    if any(ts != [float(t) for t in t_grid] for ts in per_trial.values()):
        problems.append("dynamical rows do not follow the time grid")
    return problems


def _check_dichotomy(raw: dict, out: Path) -> list:
    problems = []
    prm = raw["params"]
    L, M, theta = float(prm["L"]), float(prm["M"]), float(prm["vartheta"])
    margin = math.exp(-M * L ** theta)
    lo, hi = prm["interval"][0] + margin, prm["interval"][1] - margin
    for r in read_csv(out / "dichotomy.csv"):
        E, wx, wxl = _f(r["energy"]), _f(r["w_x"]), _f(r["w_x_L"])
        if not lo <= E <= hi:
            problems.append(f"trial {r['trial']}: energy {E} outside ({lo}, {hi})")
        if not (wx >= 0.0 and wxl >= 0.0):
            problems.append(f"trial {r['trial']}: negative concentration weight")
        if _b(r["branch_point"]) != (wx <= margin) \
                or _b(r["branch_annulus"]) != (wxl <= math.exp(-M * L)) \
                or _b(r["product_ok"]) != (wx * wxl <= math.exp(-0.5 * M * L ** theta)):
            problems.append(f"trial {r['trial']} E={E}: branch flags disagree with weights")
    return problems


def _check_qucp(raw: dict, out: Path) -> list:
    problems = []
    rows = read_csv(out / "qucp_records.csv")
    count = int(raw["params"]["probe_count"])
    per_trial = {}
    for r in rows:
        per_trial[r["trial"]] = per_trial.get(r["trial"], 0) + 1
        if r["skipped"]:
            continue
        lhs, rhs, ratio = _f(r["lhs"]), _f(r["rhs"]), _f(r["ratio"])
        if not (lhs > 0.0 and rhs > 0.0 and _f(r["K"]) >= 0.0):
            problems.append(f"trial {r['trial']}: nonpositive mass or K")
        elif abs(ratio - max(lhs / rhs, 1e-300)) > TOL * ratio:
            problems.append(f"trial {r['trial']}: ratio != lhs / rhs")
    if any(v != count for v in per_trial.values()):
        problems.append(f"a trial has other than {count} probe records")
    fit = json.loads((out / "qucp_fit.json").read_text())
    kappas = [_f(r["kappa"]) for r in rows if r["kappa"] != "" and not r["skipped"]]
    if fit["n_records"] != len(rows) or fit["n_used"] != len(kappas):
        problems.append("qucp_fit.json counts disagree with the records")
    if kappas and fit["kappa_max"] != max(kappas):
        problems.append("qucp_fit.json kappa_max is not the largest kappa")
    return problems


def _check_periodic_gap(raw: dict, out: Path) -> list:
    problems = []
    rows = read_csv(out / "periodic_gap.csv")
    if len(rows) != len(raw["params"]["benchmarks"]):
        problems.append("one periodic-gap row per benchmark expected")
    for r in rows:
        count, empty = int(r["count"]), _b(r["empty"])
        if empty != (count == 0):
            problems.append(f"q={r['q']}: empty flag disagrees with count {count}")
        # W_delta is a 0/1 indicator for delta <= q, so the gap lies in [0, 1]
        if not empty and not -TOL <= _f(r["gap"]) <= 1.0 + TOL:
            problems.append(f"q={r['q']}: gap {r['gap']} outside [0, 1]")
    return problems


def _check_covering(raw: dict, out: Path) -> list:
    problems = []
    rows = read_csv(out / "covering_identities.csv")
    n_box = int(raw["params"]["n_instances"])
    n_ann = int(raw["params"].get("annulus_instances", max(1, n_box // 5)))
    if len(rows) != n_box + n_ann:
        problems.append(f"{len(rows)} covering rows, expected {n_box + n_ann}")
    for r in rows:
        L, ell, alpha = _f(r["L"]), _f(r["ell"]), _f(r["alpha"])
        d, centers = int(r["d"]), int(r["centers"])
        if not 0.0 < alpha <= 1.0 or centers < 1:
            problems.append(f"instance {r['instance']}: alpha={alpha}, centers={centers}")
        if r["kind"] != "box":
            continue
        per_axis = round(centers ** (1.0 / d))
        steps = (per_axis - 1) // 2
        # the outermost boxes are flush with the faces: spacing*steps + ell/2 = L/2
        if per_axis ** d != centers or per_axis % 2 != 1 \
                or abs(alpha * ell * steps + ell / 2.0 - L / 2.0) > 1e-9 * L \
                or ell > L / 6.0 + 1e-12:
            problems.append(f"instance {r['instance']}: covering identity fails")
    return problems


def _check_constants(raw: dict, out: Path) -> list:
    data = json.loads((out / "constants.json").read_text())
    bad = [k for k, v in data.items()
           if isinstance(v, float) and not math.isfinite(v)]
    return [f"constants.json: non-finite {k}" for k in bad]


CHECKS = {
    "goodness-ladder": lambda raw, out: _check_ladder(raw, out, "good"),
    "initial-scale": lambda raw, out: _check_ladder(raw, out, "successes"),
    "ids": _check_ids,
    "dynamical": _check_dynamical,
    "dichotomy": _check_dichotomy,
    "qucp": _check_qucp,
    "periodic-gap": _check_periodic_gap,
    "covering-suite": _check_covering,
    "constants": _check_constants,
}


def check_output(raw: dict, out: Path) -> list:
    """Problems with the files one ``run_experiment`` call wrote to ``out``."""
    try:
        return _check_manifest(raw, out) + CHECKS[raw["experiment"]](raw, out)
    except (OSError, KeyError, ValueError, json.JSONDecodeError) as exc:
        return [f"unreadable output: {type(exc).__name__}: {exc}"]


# ---------------------------------------------------------------------------
# oracles: independent recounts on the same assembled Hamiltonians
# ---------------------------------------------------------------------------

def sturm_count(H, energies) -> np.ndarray:
    """#{eigenvalues < E} of a 1-d Dirichlet H by Sylvester's inertia law.

    Counts the negative pivots of the LDL^T recurrence of the tridiagonal
    ``H - E``, for all energies at once.
    """
    a = H.matrix.diagonal()
    b2 = H.matrix.diagonal(1) ** 2
    x = np.asarray(energies, dtype=float)
    tiny = np.finfo(float).tiny
    d = a[0] - x
    count = (d < 0).astype(int)
    for i in range(1, len(a)):
        d = np.where(d == 0.0, tiny, d)
        d = a[i] - x - b2[i - 1] / d
        count += d < 0
    return count


def count_between(H, lo: float, hi: float) -> tuple:
    """Range of the eigenvalue count in [lo, hi] allowing ties at the ends."""
    c = sturm_count(H, [lo - TOL, lo + TOL, hi - TOL, hi + TOL])
    return int(c[2] - c[1]), int(c[3] - c[0])


def _trial_hamiltonian(raw: dict, side: float, trial: int):
    from andlab.discretize import assemble_hamiltonian
    from andlab.experiments.config import (build_distribution, build_grid,
                                           build_profile, build_v_per)
    from andlab.model import BoxSpec, sample_configuration

    model = raw["model"]
    box = BoxSpec(1, (0.0,), float(side))
    cfg = sample_configuration(build_distribution(model["distribution"]), box, None,
                               raw["run"]["root_seed"], trial)
    return assemble_hamiltonian(box, build_grid(model["grid"]),
                                build_profile(model["profile"]), cfg,
                                build_v_per(model.get("v_per")))


def _oracle_dynamical(raw: dict, out: Path, run) -> list:
    """Window counts against a Sturm recount of each trial's H."""
    problems = []
    lo, hi = raw["params"]["interval"]
    counts = {}
    for r in read_csv(out / "dynamical.csv"):
        counts.setdefault(int(r["trial"]), set()).add(int(r["count"]))
    for trial in range(raw["run"]["n_samples"]):
        low, high = count_between(_trial_hamiltonian(raw, raw["params"]["L"], trial), lo, hi)
        for got in counts.get(trial, {0}):
            if not low <= got <= high:
                problems.append(f"trial {trial}: window count {got}, Sturm count {low}")
    return problems


def _oracle_dichotomy(raw: dict, out: Path, run) -> list:
    """Records per trial against a Sturm count of the outer box's window."""
    problems = []
    prm = raw["params"]
    margin = math.exp(-float(prm["M"]) * float(prm["L"]) ** float(prm["vartheta"]))
    lo, hi = prm["interval"][0] + margin, prm["interval"][1] - margin
    side = float(prm.get("outer_factor", 3.0)) * float(prm["L"])
    got = {}
    for r in read_csv(out / "dichotomy.csv"):
        got[int(r["trial"])] = got.get(int(r["trial"]), 0) + 1
    for trial in range(raw["run"]["n_samples"]):
        low, high = count_between(_trial_hamiltonian(raw, side, trial), lo, hi)
        if not low <= got.get(trial, 0) <= high:
            problems.append(f"trial {trial}: {got.get(trial, 0)} records, "
                            f"Sturm count {low}")
    return problems


def _oracle_ids(raw: dict, out: Path, run) -> list:
    """A one-trial rerun's counts against a Sturm recount of that trial's H."""
    one = json.loads(json.dumps(raw))
    one["run"]["n_samples"] = 1
    single = run(one)
    L = float(raw["params"]["L"])
    H = _trial_hamiltonian(raw, L, 0)
    problems = []
    for r in read_csv(single / "ids_curve.csv"):
        E, got = _f(r["E"]), _f(r["N_hat"]) * L
        low, high = sturm_count(H, [E - TOL, E + TOL])
        if not low - TOL <= got <= high + TOL:
            problems.append(f"E={E}: count {got}, Sturm count {low}")
    return problems


def _oracle_initial_scale(raw: dict, out: Path, run) -> list:
    """One-trial verdicts against the bottom eigenvalue by tridiagonal bisection."""
    from andlab.msa import initial_scale_values

    one = json.loads(json.dumps(raw))
    one["run"]["n_samples"] = 1
    single = run(one)
    prm = raw["params"]
    problems = []
    for r in read_csv(single / "ladder.csv"):
        L = _f(r["L"])
        E_L, _ = initial_scale_values(L, float(prm["p"]), 1, float(prm["eps"]),
                                      float(prm.get("delta_plus", 1.0)),
                                      int(prm.get("q", 1)))
        threshold = float(prm.get("energy_factor", 2.0)) * E_L
        H = _trial_hamiltonian(raw, L, 0)
        lam = la.eigvalsh_tridiagonal(H.matrix.diagonal(), H.matrix.diagonal(1),
                                      select="i", select_range=(0, 0))[0]
        if abs(lam - threshold) > 1e-8 * max(1.0, abs(threshold)) \
                and int(r["successes"]) != int(lam >= threshold):
            problems.append(f"L={L}: verdict {r['successes']}, lambda_min {lam} "
                            f"against threshold {threshold}")
    return problems


def _oracle_periodic_gap(raw: dict, out: Path, run) -> list:
    """Window counts against dense ``eigvalsh`` of the same periodic H."""
    from andlab.discretize import GridSpec, assemble_hamiltonian, empty_configuration
    from andlab.experiments.config import build_v_per
    from andlab.model import BoxSpec, SiteProfile

    problems = []
    rows = read_csv(out / "periodic_gap.csv")
    for bench, r in zip(raw["params"]["benchmarks"], rows):
        box = BoxSpec(1, (0.0,), float(bench["L"]))
        H = assemble_hamiltonian(box, GridSpec(int(bench["points_per_unit"]), "periodic"),
                                 SiteProfile(), empty_configuration(box),
                                 build_v_per(bench.get("v_per")))
        vals = la.eigvalsh(H.matrix.toarray())
        lo, hi = bench["interval"]
        low = int(np.sum((vals >= lo + TOL) & (vals <= hi - TOL)))
        high = int(np.sum((vals >= lo - TOL) & (vals <= hi + TOL)))
        if not low <= int(r["count"]) <= high:
            problems.append(f"q={bench['q']}: count {r['count']}, eigvalsh count {low}")
    return problems


# kind -> oracle(raw config, output dir, run) where ``run(raw)`` executes one
# extra experiment and returns its output directory
ORACLES = {
    "ids": _oracle_ids,
    "initial-scale": _oracle_initial_scale,
    "dynamical": _oracle_dynamical,
    "dichotomy": _oracle_dichotomy,
    "periodic-gap": _oracle_periodic_gap,
}
