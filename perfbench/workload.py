"""One benchmark run of one workload, in a fresh interpreter.

    python3 perfbench/workload.py --workload NAME --seed N --seconds S
                                  --trace 0|1 --out DIR [--setup-only]

The launcher (``run.py``) starts this process with the BLAS/OpenMP pools
pinned.  It imports ``andlab`` from the checkout's ``src/``, loads and
strictly validates the workload's configs with the seed as ``root_seed``,
and prints one JSON line when ready.  With ``--setup-only`` it stops there.

Otherwise it runs passes over the workload's configs through
``run_experiment`` until the next pass would end after ``--seconds``, at
least one, and reports the median pass time.  With ``--trace 0`` every
timed pass is untraced and one traced pass follows, untimed; with
``--trace 1`` untraced and traced passes alternate.  Traced passes check
every returned eigenpair (see ``tracing``).  All passes must write
byte-identical outputs; the first pass's outputs go through ``checks``, and
the oracles run once at the end.  The result is the last line of stdout.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def load_workload(name: str, seed: int) -> list:
    """The workload's raw configs, seeded, in file-name order."""
    paths = sorted((HERE / "configs" / name).glob("*.json"))
    if not paths:
        raise SystemExit(f"unknown workload {name!r}")
    raws = []
    for path in paths:
        raw = json.loads(path.read_text())
        raw.setdefault("run", {})["root_seed"] = seed
        raws.append((path.stem, raw))
    return raws


def _steal_s():
    """Machine-wide CPU time stolen by the hypervisor so far, if reported."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


def _cpu_s(*who) -> float:
    """User plus system CPU seconds of ``who`` (RUSAGE_SELF, RUSAGE_CHILDREN)."""
    return sum(ru.ru_utime + ru.ru_stime for ru in map(resource.getrusage, who))


class Run:
    """Timed passes over one workload's configs, and their bookkeeping."""

    def __init__(self, runner, configs: list, out: Path):
        self.runner = runner
        self.configs = configs            # [(stem, raw, ExperimentConfig)]
        self.out = out
        self.attempts = {}                # stem -> run_experiment calls
        self.failures = {}                # stem -> [problem, ...]
        self.reference = {}               # stem -> {file: digest}
        self.checked = {}                 # stem -> output dir of the first pass
        self.sizes = {}                   # stem -> matrix sizes it assembled
        self.passes = 0
        self.cpus = []                    # CPU seconds of each pass, workers included
        self.steals = []                  # machine-wide stolen seconds per pass

    @property
    def attempted(self) -> int:
        return sum(self.attempts.values())

    def failed(self) -> int:
        """Runs of configs whose output failed: a config whose checked output
        is wrong is wrong in every pass, since all passes must match it."""
        return sum(self.attempts[stem] for stem in self.failures)

    def fail(self, stem: str, problem: str) -> None:
        self.failures.setdefault(stem, []).append(problem)

    def one_pass(self, rec=None) -> float:
        """Run every config once; returns the wall time of the pass."""
        pass_dir = self.out / f"pass{self.passes}"
        self.passes += 1
        results = {}
        cpu0 = _cpu_s(resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
        steal0 = _steal_s()
        t0 = time.perf_counter()
        for stem, raw, cfg in self.configs:
            self.attempts[stem] = self.attempts.get(stem, 0) + 1
            if rec is not None:
                seen = len(rec.problems)
                rec.sizes.clear()
            try:
                results[stem] = self.runner.run_experiment(cfg, str(pass_dir / stem))
            except Exception as exc:  # every error counts as a failed run
                self.fail(stem, f"raised {type(exc).__name__}: {exc}")
            if rec is not None:
                for problem in rec.problems[seen:]:
                    self.fail(stem, problem)
                self.sizes[stem] = sorted(rec.sizes)
        wall = time.perf_counter() - t0
        self.cpus.append(_cpu_s(resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN) - cpu0)
        steal = _steal_s()
        self.steals.append(None if steal is None or steal0 is None else steal - steal0)
        for stem, raw, _ in self.configs:
            if stem in results:
                self._compare(stem, raw, results[stem])
        if self.passes > 1:
            shutil.rmtree(pass_dir, ignore_errors=True)
        return wall

    def _compare(self, stem: str, raw: dict, out: Path) -> None:
        import checks  # not at the top: set-up timing starts in main()

        manifest = json.loads((out / "manifest.json").read_text())
        digests = manifest["files"]
        if stem not in self.reference:
            self.reference[stem] = digests
            self.checked[stem] = out
            for problem in checks.check_output(raw, out):
                self.fail(stem, problem)
        elif digests != self.reference[stem]:
            self.fail(stem, "output bytes differ between passes")

    def oracle_pass(self) -> None:
        import checks

        for stem, raw, _ in self.configs:
            oracle = checks.ORACLES.get(raw["experiment"])
            if oracle is None or stem not in self.checked:
                continue
            extra = self.out / "oracle" / stem

            def run(one, stem=stem, extra=extra):
                from andlab.experiments import validate_config

                self.attempts[stem] += 1
                return self.runner.run_experiment(validate_config(one), str(extra))

            try:
                problems = oracle(raw, self.checked[stem], run)
            except Exception as exc:  # an oracle that cannot run is a failure
                problems = [f"oracle raised {type(exc).__name__}: {exc}"]
            for problem in problems:
                self.fail(stem, f"oracle: {problem}")


# workload -> traced functions it must reach; a zero count flags a wrapper
# that missed its calls
EXPECTED_CALLS = {
    "spectra": ("model.sample_configuration", "discretize.assemble_hamiltonian",
                "spectral.eigs_window", "spectral.lowest_eigenvalue",
                "spectral.factor", "spectral.solve", "msa.check_goodness",
                "observables.dynamical_moment", "observables.dichotomy_check",
                "ids.full_spectrum", "qucp.qucp_verify", "qucp.periodic_projection_gap",
                "covering.standard_covering_box", "covering.standard_covering_annulus",
                "experiments.run_experiment", "experiments.emit"),
    "sparse": ("model.sample_configuration", "discretize.assemble_hamiltonian",
               "spectral.eigs_window", "spectral.lowest_eigenvalue",
               "observables.dynamical_moment", "qucp.qucp_verify",
               "experiments.run_experiment", "experiments.emit"),
}


def layer_metrics(traced: list) -> dict:
    """Flat ``<span>.<key>`` figures: counts from the first traced pass (they
    repeat exactly), times (keys ending in ``_s``) as medians over passes."""
    out = {}
    for name, st in traced[0]["stats"].items():
        for key, value in st.items():
            if key.endswith("_s"):
                value = statistics.median(t["stats"].get(name, {}).get(key, 0.0)
                                          for t in traced)
            out[f"{name}.{key}"] = value
    return out


def layer_shares(metrics: dict) -> dict:
    """Share of traced self time per layer (module), for the run record."""
    totals = {}
    for key, value in metrics.items():
        if key.endswith(".self_s"):
            layer = key.split(".", 1)[0]
            totals[layer] = totals.get(layer, 0.0) + value
    whole = sum(totals.values()) or 1.0
    return {k: v / whole for k, v in sorted(totals.items())}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=str(ROOT / ".perfbench_out" / "scratch"))
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    t0 = time.perf_counter()
    src = ROOT / "src"
    if not (src / "andlab" / "__init__.py").is_file():
        print(f"no andlab sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import andlab.experiments.runner as runner
    from andlab.experiments import validate_config

    if not Path(runner.__file__).resolve().is_relative_to(src):
        print(f"andlab imported from {runner.__file__}, not {src}", file=sys.stderr)
        return 2
    t1 = time.perf_counter()
    configs = [(stem, raw, validate_config(raw))
               for stem, raw in load_workload(args.workload, args.seed)]
    t2 = time.perf_counter()
    print(json.dumps({"ready": True, "import_s": t1 - t0, "validate_s": t2 - t1}),
          flush=True)
    if args.setup_only:
        return 0

    import tracing

    out = Path(args.out)
    shutil.rmtree(out, ignore_errors=True)
    run = Run(runner, configs, out)
    rec = tracing.Recorder()

    def traced_pass() -> float:
        rec.reset()
        restore = tracing.install(rec)
        cpu0 = _cpu_s(resource.RUSAGE_CHILDREN)
        try:
            wall = run.one_pass(rec)
        finally:
            tracing.uninstall(restore)
        snap = rec.export()
        snap["stats"].setdefault("experiments", {})["children_cpu_s"] = \
            _cpu_s(resource.RUSAGE_CHILDREN) - cpu0
        snap["wall_s"] = wall
        traced.append(snap)
        return wall

    walls, traced = [], []
    start = time.perf_counter()
    while True:
        if not args.trace:
            walls.append(run.one_pass())
            step = walls[-1]
        else:
            # alternate the order within pairs so warm-up and drift cancel
            if len(walls) % 2 == 0:
                walls.append(run.one_pass())
                traced_pass()
            else:
                traced_pass()
                walls.append(run.one_pass())
            step = walls[-1] + traced[-1]["wall_s"]
        if time.perf_counter() - start + step > args.seconds:
            break
    if not args.trace:
        traced_pass()           # untimed: eigenpair checks, traced == untraced bytes
    run.oracle_pass()

    usage_self = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    usage_children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    layers = layer_metrics(traced)
    missed = [name for name in EXPECTED_CALLS.get(args.workload, ())
              if traced[0]["stats"].get(name, {}).get("calls", 0) == 0]
    for name in missed:
        print(f"warning: traced {name} was never called on {args.workload}",
              file=sys.stderr)
    layers["trace.missed_calls"] = len(missed)
    layers["trace.overhead_s"] = (statistics.median(t["wall_s"] for t in traced)
                                  - statistics.median(walls))
    failed = run.failed()
    import numpy
    import scipy

    blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
    result = {
        "versions": {"andlab": runner.__version__, "numpy": numpy.__version__,
                     "scipy": scipy.__version__,
                     "blas": f"{blas['name']} {blas['version']}"},
        "wall_s": statistics.median(walls),
        "walls": walls,
        "cpus": run.cpus,
        "steals": run.steals,
        "traced_walls": [t["wall_s"] for t in traced],
        "peak_rss_mb": max(usage_self, usage_children) / 1024.0,
        "attempted": run.attempted,
        "failed": failed,
        "failures": run.failures,
        "layers": layers,
        "layer_shares": layer_shares(layers),
        "missed_calls": missed,
        "matrix_sizes": run.sizes,
        "digests": run.reference,
        "configs": {stem: {"kind": raw["experiment"],
                           "digest": cfg.digest(),
                           "n_samples": cfg.n_samples,
                           "workers": cfg.workers}
                    for stem, raw, cfg in configs},
    }
    shutil.rmtree(out, ignore_errors=True)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
