"""Tests of the benchmark's own machinery, on toy-sized configs.

    python3 perfbench/selftest.py

Checks that a corrupted output is counted as a failed run, that the trace
wrappers see every call (pool workers included) and restore the originals,
that traced and untraced runs write identical bytes, and that the Sturm
oracle agrees with dense ``eigvalsh``.
"""

from __future__ import annotations

import json
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402
import scipy.linalg as la  # noqa: E402

import andlab.experiments.runner as runner  # noqa: E402
import checks  # noqa: E402
import tracing  # noqa: E402
from andlab.experiments import validate_config  # noqa: E402
from workload import Run, layer_metrics  # noqa: E402

MODEL = {"distribution": {"kind": "bernoulli", "q": 0.5},
         "profile": {"u_plus": 1.0, "delta_plus": 1.0},
         "grid": {"points_per_unit": 4, "boundary": "dirichlet"}}


def toy(kind: str, params: dict, n_samples: int = 2, workers: int = 1,
        model: bool = True) -> dict:
    return {"experiment": kind, "model": MODEL if model else {}, "params": params,
            "run": {"root_seed": 5, "n_samples": n_samples, "workers": workers}}


TOYS = {
    "ladder": toy("goodness-ladder", {
        "scales": [10], "varsigma": 0.1, "p": 0.35, "pair_cap": 100,
        "energy_rule": {"kind": "fixed", "energy": -0.5, "m": 0.4},
        "m_rule": {"kind": "fixed", "energy": -0.5, "m": 0.4}}, workers=2),
    "initial": toy("initial-scale", {"scales": [10, 12], "p": 0.35, "eps": 1.0}, 6),
    "ids": toy("ids", {"L": 12, "energy_grid": [0.2, 0.5, 1.0, 1.6]}),
    "dynamical": toy("dynamical", {"L": 12, "interval": [0.0, 1.0], "b": 1.0,
                                   "x0": [0.0], "t_grid": [0.0, 1.0]}),
    "dichotomy": toy("dichotomy", {"L": 8, "interval": [0.0, 1.0], "M": 0.5,
                                   "vartheta": 0.5, "nu": 1.0}),
    "qucp": toy("qucp", {"L": 16, "delta": 1.0, "theta_side": 2.0, "probe_count": 3}),
    "gap": toy("periodic-gap", {"benchmarks": [
        {"q": 1, "L": 8, "delta": 0.5, "interval": [0.0, 0.5], "points_per_unit": 4}]},
        model=False),
    "covering": toy("covering-suite", {"n_instances": 6, "dims": [1, 2],
                                       "annulus_instances": 2}, model=False),
    "constants": toy("constants", {"d": 1, "p": 0.35}, model=False),
}


class CorruptingRunner:
    """run_experiment that damages one output file after the real run."""

    def __init__(self, damage):
        self.damage = damage

    def run_experiment(self, cfg, out_dir):
        out = runner.run_experiment(cfg, out_dir)
        self.damage(out)
        return out


def _rewrite(path: Path, old: str, new: str, fix_manifest: bool) -> None:
    text = path.read_text()
    if old not in text:
        raise AssertionError(f"{old!r} not in {path.name}")
    path.write_text(text.replace(old, new, 1))
    if fix_manifest:  # leave only the invariant to notice the damage
        manifest_path = path.parent / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["files"][path.name] = checks.digest(path)
        manifest_path.write_text(json.dumps(manifest))


class Corruption(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.addCleanup(self.tmp.cleanup)
        self.out = Path(self.tmp.name)

    def run_with(self, name: str, damage) -> Run:
        raw = TOYS[name]
        run = Run(CorruptingRunner(damage), [(name, raw, validate_config(raw))], self.out)
        run.one_pass()
        return run

    def test_clean_outputs_pass_every_check(self):
        for name, raw in TOYS.items():
            with self.subTest(kind=raw["experiment"]):
                out = runner.run_experiment(validate_config(raw), str(self.out / name))
                self.assertEqual(checks.check_output(raw, out), [])
                oracle = checks.ORACLES.get(raw["experiment"])
                if oracle is not None:
                    extra = str(self.out / "oracle" / name)
                    problems = oracle(raw, out, lambda one: runner.run_experiment(
                        validate_config(one), extra))
                    self.assertEqual(problems, [])

    def test_broken_invariant_counts_as_failed_run(self):
        def damage(out):
            rows = checks.read_csv(out / "ladder.csv")
            _rewrite(out / "ladder.csv", f",{rows[0]['n']},", ",7,", fix_manifest=True)

        run = self.run_with("initial", damage)
        self.assertEqual((run.attempted, run.failed()), (1, 1))
        self.assertTrue(any("n_samples" in p for p in run.failures["initial"]))

    def test_bytes_that_disagree_with_the_manifest_fail(self):
        run = self.run_with("covering", lambda out: _rewrite(
            out / "covering_identities.csv", "box", "box ", fix_manifest=False))
        self.assertEqual(run.failed(), 1)
        self.assertTrue(any("digest" in p for p in run.failures["covering"]))

    def test_wrong_count_fails_the_oracle(self):
        def damage(out):
            rows = checks.read_csv(out / "dynamical.csv")
            _rewrite(out / "dynamical.csv", f",{rows[0]['count']},",
                     f",{int(rows[0]['count']) + 1},", fix_manifest=True)

        run = self.run_with("dynamical", damage)
        run.oracle_pass()
        self.assertEqual(run.failed(), run.attempted)
        self.assertTrue(any(p.startswith("oracle") for p in run.failures["dynamical"]))

    def test_nondeterministic_bytes_fail(self):
        calls = []

        def damage(out):
            calls.append(out)
            if len(calls) == 2:
                _rewrite(out / "ladder.csv", "L,", "L ,", fix_manifest=True)

        run = self.run_with("initial", damage)
        run.one_pass()
        self.assertEqual(run.failed(), 2)
        self.assertIn("output bytes differ between passes", run.failures["initial"])


class Tracing(unittest.TestCase):
    EXPECTED = {
        "ladder": ("msa.check_goodness", "spectral.factor", "spectral.solve",
                   "model.sample_configuration", "discretize.assemble_hamiltonian"),
        "initial": ("spectral.lowest_eigenvalue",),
        "ids": ("ids.full_spectrum",),
        "dynamical": ("observables.dynamical_moment", "spectral.eigs_window"),
        "dichotomy": ("observables.dichotomy_check", "spectral.eigs_window"),
        "qucp": ("qucp.qucp_verify", "spectral.eigs_window"),
        "gap": ("qucp.periodic_projection_gap",),
        "covering": ("covering.standard_covering_box",
                     "covering.standard_covering_annulus"),
        "constants": ("experiments.run_experiment", "experiments.emit"),
    }

    def test_every_call_is_seen_and_bytes_do_not_change(self):
        before = _andlab_callables()
        produced = set()
        with tempfile.TemporaryDirectory() as tmp:
            for name, raw in TOYS.items():
                cfg = validate_config(raw)
                plain = runner.run_experiment(cfg, f"{tmp}/plain/{name}")
                rec = tracing.Recorder()
                restore = tracing.install(rec)
                try:
                    traced = runner.run_experiment(cfg, f"{tmp}/traced/{name}")
                finally:
                    tracing.uninstall(restore)
                produced.update(layer_metrics([rec.export()]))
                with self.subTest(name=name):
                    self.assertEqual(json.loads((plain / "manifest.json").read_text())["files"],
                                     json.loads((traced / "manifest.json").read_text())["files"])
                    for fn in self.EXPECTED[name]:
                        self.assertGreater(rec.stats.get(fn, {}).get("calls", 0), 0, fn)
                    self.assertEqual(rec.problems, [])
                    self.assertEqual(rec.stack, [])
                if name == "ladder":  # 2 trials across 2 pool workers
                    self.assertEqual(rec.stats["msa.check_goodness"]["calls"], 2)
                    self.assertEqual(rec.stats["experiments"]["trials"], 2)
        after = _andlab_callables()
        self.assertEqual(before.keys(), after.keys())
        self.assertTrue(all(after[k] is v for k, v in before.items()))
        # every per-layer metric the benchmark reports comes out of the spans,
        # except those the workload process and the launcher add
        added = {"experiments.children_cpu_s", "experiments.setup.import_s",
                 "experiments.setup.validate_s", "trace.overhead_s", "trace.missed_calls"}
        declared = {m["name"] for m in json.loads(
            (HERE.parent / "BENCHMARK.json").read_text())["per_layer"]}
        self.assertEqual(declared - added - produced, set())

    def test_self_time_excludes_child_spans(self):
        import time

        rec = tracing.Recorder()
        inner = tracing._wrap(rec, "inner", lambda: time.sleep(0.05))

        def body():
            time.sleep(0.02)
            inner()

        tracing._wrap(rec, "outer", body)()
        self.assertGreaterEqual(rec.stats["inner"]["self_s"], 0.05)
        self.assertGreaterEqual(rec.stats["outer"]["self_s"], 0.02)
        self.assertLess(rec.stats["outer"]["self_s"], 0.045)


def _andlab_callables() -> dict:
    spectral = sys.modules["andlab.spectral"]
    out = {("ResolventFactorization", attr): vars(spectral.ResolventFactorization)[attr]
           for attr in ("__init__", "solve")}
    for module in tracing._andlab_modules():
        out.update({(module.__name__, attr): value for attr, value in vars(module).items()
                    if callable(value)})
    return out


class Oracles(unittest.TestCase):
    def test_sturm_count_matches_dense_eigvalsh(self):
        from andlab.discretize import assemble_hamiltonian
        from andlab.experiments.config import build_distribution, build_grid, build_profile
        from andlab.model import BoxSpec, sample_configuration

        box = BoxSpec(1, (0.0,), 20.0)
        for trial in range(3):
            cfg = sample_configuration(build_distribution(MODEL["distribution"]), box,
                                       None, 1, trial)
            H = assemble_hamiltonian(box, build_grid(MODEL["grid"]),
                                     build_profile(MODEL["profile"]), cfg)
            vals = la.eigvalsh(H.matrix.toarray())
            energies = np.linspace(vals[0] - 1.0, vals[-1] + 1.0, 41)
            want = np.searchsorted(vals, energies, side="left")
            np.testing.assert_array_equal(checks.sturm_count(H, energies), want)


if __name__ == "__main__":
    unittest.main()
