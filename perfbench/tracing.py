"""Span tracing around the public functions of each andlab layer.

Spans are recorded from the benchmark's side: each traced function is
replaced by a wrapper in its defining module and in every ``andlab`` module
namespace that imported it by name, and ``ResolventFactorization`` is wrapped
on the class.  ``uninstall`` puts every original back, so traced and
untraced passes can alternate in one process.

A span's self time is its duration minus the durations of its direct child
spans.  Spans opened inside forked pool workers are shipped back with each
trial's result (see ``_traced_map_trials``) and merged into the parent's
totals; the parent's ``run_experiment`` span keeps the time it waited for
the pool as self time.
"""

from __future__ import annotations

import functools
import importlib
import math
import sys
import time
from pathlib import Path

# Residual tolerance for every returned eigenpair, relative to the row-sum
# bound on |H|: |H psi - E psi|_h <= RESIDUAL_RTOL * max(1, |H|).
RESIDUAL_RTOL = 1e-8


class Recorder:
    """Per-process span totals: name -> {"calls", "self_s", counters...}."""

    def __init__(self):
        self.reset()

    def reset(self):
        self.stats = {}
        self.stack = []          # open spans: [name, time covered by children]
        self.problems = []       # failed eigenpair checks, in call order
        self.sizes = set()       # matrix sizes assembled

    def export(self) -> dict:
        return {"stats": self.stats, "problems": self.problems,
                "sizes": sorted(self.sizes)}

    def merge(self, other: dict) -> None:
        for name, st in other["stats"].items():
            mine = self.stats.setdefault(name, {})
            for key, value in st.items():
                if key == "max_residual":
                    mine[key] = max(mine.get(key, 0.0), value)
                else:
                    mine[key] = mine.get(key, 0) + value
        self.problems.extend(other["problems"])
        self.sizes.update(other["sizes"])


# The recorder of this process while wrappers are installed.  Forked pool
# workers inherit it and reset their copy per trial.
_current = None


def _wrap(rec: Recorder, name: str, fn, after=None, skip_inside=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if skip_inside is not None and rec.stack and rec.stack[-1][0] == skip_inside:
            return fn(*args, **kwargs)
        frame = [name, 0.0]
        rec.stack.append(frame)
        t0 = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        finally:
            dt = time.perf_counter() - t0
            rec.stack.pop()
            if rec.stack:
                rec.stack[-1][1] += dt
            st = rec.stats.setdefault(name, {"calls": 0, "self_s": 0.0})
            st["calls"] += 1
            st["self_s"] += dt - frame[1]
        if after is not None:
            after(rec, st, args, kwargs, out)
        return out

    return wrapper


# --- counters taken at the span boundaries ---------------------------------

def _after_assemble(rec, st, args, kwargs, H):
    st["nodes"] = st.get("nodes", 0) + H.size
    rec.sizes.add(H.size)


def _after_eigs_window(rec, st, args, kwargs, res):
    H = args[0] if args else kwargs["H"]
    lo, hi = res.interval
    st["eigenpairs"] = st.get("eigenpairs", 0) + len(res.energies)
    st["truncated"] = st.get("truncated", 0) + int(bool(res.truncated))
    worst = float(max(res.residuals, default=0.0))
    st["max_residual"] = max(st.get("max_residual", 0.0), worst)
    if len(res.energies) and (min(res.energies) < lo or max(res.energies) > hi):
        rec.problems.append(f"eigs_window returned energies outside [{lo}, {hi}]")
    tol = RESIDUAL_RTOL * max(1.0, H.norm_bound())
    if not math.isfinite(worst) or worst > tol:
        rec.problems.append(f"eigs_window residual {worst:.3e} above {tol:.3e}")


def _after_factor(rec, st, args, kwargs, out):
    st["divergent"] = st.get("divergent", 0) + int(bool(args[0].divergent))


def _after_solve(rec, st, args, kwargs, out):
    rhs = args[1] if len(args) > 1 else kwargs["rhs"]
    st["rhs_cols"] = st.get("rhs_cols", 0) + (rhs.shape[1] if rhs.ndim == 2 else 1)


def _after_goodness(rec, st, args, kwargs, report):
    st["good"] = st.get("good", 0) + int(bool(report.is_good))


def _after_full_spectrum(rec, st, args, kwargs, out):
    H = args[0] if args else kwargs["H"]
    st["dense_bytes"] = st.get("dense_bytes", 0) + 8 * H.size * H.size  # computed


def _after_covering(rec, st, args, kwargs, cov):
    st["centers"] = st.get("centers", 0) + len(cov)


def _after_write(rec, st, args, kwargs, out):
    path = args[0] if args else kwargs["path"]
    st["bytes"] = st.get("bytes", 0) + Path(path).stat().st_size


# (span name, defining module, function, counter hook, skip when directly
# inside this span)
FUNCTIONS = (
    ("model.sample_configuration", "andlab.model", "sample_configuration", None, None),
    ("discretize.assemble_hamiltonian", "andlab.discretize", "assemble_hamiltonian",
     _after_assemble, None),
    ("spectral.eigs_window", "andlab.spectral", "eigs_window", _after_eigs_window, None),
    ("spectral.lowest_eigenvalue", "andlab.spectral", "lowest_eigenvalue", None, None),
    ("msa.check_goodness", "andlab.msa", "check_goodness", _after_goodness, None),
    ("observables.dynamical_moment", "andlab.observables", "dynamical_moment", None, None),
    ("observables.dichotomy_check", "andlab.observables", "dichotomy_check", None, None),
    ("ids.full_spectrum", "andlab.ids", "full_spectrum", _after_full_spectrum, None),
    ("qucp.qucp_verify", "andlab.qucp", "qucp_verify", None, None),
    ("qucp.periodic_projection_gap", "andlab.qucp", "periodic_projection_gap", None, None),
    ("covering.standard_covering_box", "andlab.covering", "standard_covering_box",
     _after_covering, None),
    ("covering.standard_covering_annulus", "andlab.covering", "standard_covering_annulus",
     _after_covering, None),
    ("experiments.run_experiment", "andlab.experiments.runner", "run_experiment", None, None),
    ("experiments.emit", "andlab.experiments.emit", "write_csv", _after_write, None),
    ("experiments.emit", "andlab.experiments.emit", "write_json", _after_write, None),
    ("experiments.emit", "andlab.experiments.emit", "emit_plotdata", None, None),
    ("experiments.emit", "andlab.experiments.emit", "file_digest", None, None),
)

# The factorization's own gap estimate calls ``solve``; those solves stay in
# the factor span so that ``spectral.solve`` counts block probes only.
METHODS = (
    ("spectral.factor", "__init__", _after_factor, None),
    ("spectral.solve", "solve", _after_solve, "spectral.factor"),
)


def _run_in_worker(fn, payload):
    """Pool-side trial: spans of this trial travel back with its result."""
    rec = _current
    rec.reset()
    out = fn(payload)
    return out, rec.export()


def _traced_map_trials(rec: Recorder, original):
    def map_trials(fn, payloads, workers):
        st = rec.stats.setdefault("experiments", {})
        st["trials"] = st.get("trials", 0) + len(payloads)
        if workers <= 1 or len(payloads) <= 1:
            return original(fn, payloads, workers)
        pairs = original(functools.partial(_run_in_worker, fn), payloads, workers)
        for _, exported in pairs:
            rec.merge(exported)
        return [out for out, _ in pairs]

    return map_trials


def _andlab_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "andlab" or name.startswith("andlab."))]


def _rebind(original, replacement, restore: list) -> None:
    """Point every andlab namespace that holds ``original`` at ``replacement``."""
    for module in _andlab_modules():
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                restore.append((module, attr, original))


def install(rec: Recorder) -> list:
    """Wrap every traced function; returns the undo list for ``uninstall``."""
    global _current
    if _current is not None:
        raise RuntimeError("tracing is already installed")
    restore: list = []
    for name, module_name, attr, after, skip in FUNCTIONS:
        original = getattr(importlib.import_module(module_name), attr)
        _rebind(original, _wrap(rec, name, original, after, skip), restore)
    cls = importlib.import_module("andlab.spectral").ResolventFactorization
    for name, attr, after, skip in METHODS:
        original = cls.__dict__[attr]
        setattr(cls, attr, _wrap(rec, name, original, after, skip))
        restore.append((cls, attr, original))
    runner = importlib.import_module("andlab.experiments.runner")
    _rebind(runner.map_trials, _traced_map_trials(rec, runner.map_trials), restore)
    _current = rec
    return restore


def uninstall(restore: list) -> None:
    global _current
    for owner, attr, original in reversed(restore):
        setattr(owner, attr, original)
    _current = None
