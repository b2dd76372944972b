"""andlab benchmark launcher.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each workload is a fixed set of strict
experiment configs under ``perfbench/configs/<workload>/``; the seed becomes
every config's ``root_seed``.  The launcher pins the BLAS/OpenMP pools to one
thread, times set-up in fresh interpreters, runs the workload process
(``workload.py``), and prints a run record line and then the result as the
last line of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones, with ``--trace 1``
the per-layer ones.  The run record also goes to
``.perfbench_out/records/``.  Without ``src/andlab`` in the checkout the
launcher exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = sorted(p.name for p in (HERE / "configs").iterdir() if p.is_dir())
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_REPEATS = 5
DEADLINE_S = 170.0


def git_sha(root: Path):
    """HEAD of the checkout when it is a git work tree, else None."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def src_lines(root: Path) -> int:
    return sum(len(p.read_text().splitlines())
               for p in sorted((root / "src").rglob("*.py")))


def _spawn(args: list, env: dict, deadline: float):
    """Run the workload process; returns (ready time, ready line, last line)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(HERE / "workload.py")] + args,
                            stdout=subprocess.PIPE, env=env, cwd=ROOT, text=True)
    try:
        ready = proc.stdout.readline()
        t_ready = time.perf_counter() - t0
        rest, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise SystemExit("workload process ran past the deadline")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        raise SystemExit(f"workload process exited with status {proc.returncode}")
    lines = [ready] + rest.splitlines()
    return t_ready, json.loads(lines[0]), json.loads(lines[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="andlab benchmark launcher")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    deadline = time.monotonic() + DEADLINE_S
    if not (ROOT / "src" / "andlab" / "__init__.py").is_file():
        print(f"no andlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    env = dict(os.environ, **PINNED)
    common = ["--workload", args.workload, "--seed", str(args.seed)]

    setups, ready_lines = [], []
    for _ in range(SETUP_REPEATS):
        t_ready, ready, _ = _spawn(common + ["--setup-only"], env, deadline)
        setups.append(t_ready)
        ready_lines.append(ready)

    out = ROOT / ".perfbench_out" / f"{args.workload}-{args.seed}-{os.getpid()}"
    _, _, result = _spawn(common + ["--seconds", str(args.seconds),
                                    "--trace", str(args.trace), "--out", str(out)],
                          env, deadline)

    attempted, failed = result["attempted"], result["failed"]
    if args.trace:
        layers = dict(result["layers"])
        layers["experiments.setup.import_s"] = statistics.median(
            r["import_s"] for r in ready_lines)
        layers["experiments.setup.validate_s"] = statistics.median(
            r["validate_s"] for r in ready_lines)
        units = {m["name"]: m["unit"] for m in
                 json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
        # a span that never ran on this workload has no entry: 0 calls, 0 s
        metrics = {name: {"value": layers.get(name, 0), "unit": unit}
                   for name, unit in units.items()}
    else:
        metrics = {
            "wall_s": {"value": result["wall_s"], "unit": "s"},
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "ok_frac": {"value": 1.0 - failed / attempted, "unit": "ratio"},
        }

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_sha": git_sha(ROOT),
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "blas_env": PINNED,
        "src_lines": src_lines(ROOT), "setup_s": setups,
        "fail_frac": failed / attempted,
        **{k: result[k] for k in ("walls", "cpus", "steals", "traced_walls", "failures", "missed_calls", "layer_shares",
                                  "matrix_sizes", "digests", "configs", "versions", "layers")},
    }
    records = ROOT / ".perfbench_out" / "records"
    records.mkdir(parents=True, exist_ok=True)
    (records / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n")
    for problem_list in result["failures"].values():
        for problem in problem_list:
            print(f"failure: {problem}", file=sys.stderr)
    print(json.dumps({"record": record}, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
