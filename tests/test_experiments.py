import csv
import json
import math
import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from andlab import qucp as qucp_module
from andlab.cli import build_parser, main as cli_main
from andlab.discretize import Ensemble, GridSpec, assemble_hamiltonian
from andlab.errors import GeometryError, SolverError, ValidationError
from andlab.experiments import config as config_module
from andlab.experiments import load_config, validate_config
from andlab.experiments.config import build_distribution, build_grid, build_profile, build_v_per
from andlab.experiments.emit import emit_plotdata, write_csv
from andlab.experiments import runner
from andlab.experiments.runner import KINDS, run_experiment
from andlab.model import Bernoulli, BoxSpec, SiteProfile, sample_configuration
from andlab.ids import ids_counts
from andlab.msa import initial_scale_trial, initial_scale_values
from andlab.spectral import eigenvalue_count, lowest_eigenvalue

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def minimal_constants_config():
    return {
        "experiment": "constants",
        "model": {},
        "params": {"d": 1, "p": 0.35},
        "run": {"root_seed": 0},
    }


class TestConfigValidation:
    def test_minimal_constants(self):
        cfg = validate_config(minimal_constants_config())
        assert cfg.kind == "constants"

    def test_v_per_checked_without_auto_shift_solve(self, monkeypatch):
        def no_solve(*args, **kwargs):
            raise AssertionError("validate_config ran auto_shift's eigen-solve")

        monkeypatch.setattr(config_module, "periodic_ground_energy", no_solve)
        raw = json.loads((CONFIG_DIR / "dynamical.json").read_text())
        raw["model"]["v_per"] = {"kind": "cosine", "period": 2, "auto_shift": True}
        assert validate_config(raw).kind == "dynamical"

    @pytest.mark.parametrize("d, period", [(1, 2), (2, 1)])
    def test_periodic_ground_energy_equals_supercell(self, d, period):
        # the ground state is translation invariant, so one period gives the
        # lowest eigenvalue of an 8-period supercell on the same nodes
        from andlab.discretize import GridSpec, assemble_hamiltonian, empty_configuration
        from andlab.model import BoxSpec, SiteProfile
        from andlab.spectral import lowest_eigenvalue

        field = build_v_per({"kind": "cosine", "amplitude": 0.7, "period": period,
                             "offset": 0.3})
        box = BoxSpec(d, tuple([0.0] * d), 8.0 * period)
        H = assemble_hamiltonian(box, GridSpec(8, "periodic"), SiteProfile(),
                                 empty_configuration(box), field)
        assert config_module.periodic_ground_energy(field, d) == pytest.approx(
            lowest_eigenvalue(H), abs=1e-10)

    def test_unknown_key_named(self):
        raw = minimal_constants_config()
        raw["mesch"] = 3
        with pytest.raises(ValidationError, match="mesch"):
            validate_config(raw)

    def test_unknown_param_named(self):
        raw = minimal_constants_config()
        raw["params"]["bogus_knob"] = 1
        with pytest.raises(ValidationError, match="bogus_knob"):
            validate_config(raw)

    def test_missing_required_param(self):
        raw = minimal_constants_config()
        del raw["params"]["p"]
        with pytest.raises(ValidationError, match="missing"):
            validate_config(raw)

    def test_model_required_for_model_experiments(self):
        raw = {"experiment": "ids", "model": {},
               "params": {"L": 10, "energy_grid": [1.0]}, "run": {}}
        with pytest.raises(ValidationError, match="distribution"):
            validate_config(raw)

    @pytest.mark.parametrize("section,key", [("model", "u_background"),
                                             ("run", "verbose")])
    def test_unused_keys_rejected(self, section, key):
        raw = minimal_constants_config()
        raw[section][key] = 1
        with pytest.raises(ValidationError, match=key):
            validate_config(raw)

    def test_unknown_experiment(self):
        with pytest.raises(ValidationError, match="unknown experiment"):
            validate_config({"experiment": "frobnicate"})

    def test_builders(self):
        assert build_distribution({"kind": "bernoulli", "q": 0.25}).q == 0.25
        assert build_distribution({"kind": "uniform01"}).mean() == 0.5
        mix = build_distribution({"kind": "mixture", "components": [
            [0.5, {"kind": "bernoulli", "q": 1.0}], [0.5, {"kind": "uniform01"}]]})
        assert mix.cdf(0.5) == pytest.approx(0.25)
        assert build_profile({"u_plus": 2.0, "delta_plus": 1.0}).u_plus == 2.0
        assert build_grid({"points_per_unit": 4}).h == 0.25
        assert build_v_per(None) is None
        assert build_v_per({"kind": "zero"}) is None
        field = build_v_per({"kind": "cosine", "amplitude": 0.5, "period": 2})
        assert field.period == 2
        with pytest.raises(ValidationError, match="wiggles"):
            build_v_per({"kind": "cosine", "wiggles": 3})


class TestEmission:
    def test_csv_bytes_stable(self, tmp_path):
        rows = [{"a": 1.0 / 3.0, "b": True, "c": None}]
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_csv(p1, ("a", "b", "c"), rows)
        write_csv(p2, ("a", "b", "c"), rows)
        assert p1.read_bytes() == p2.read_bytes()
        assert "0.3333333333333333" in p1.read_text()

    def test_plotdata_kinds_and_empty(self, tmp_path):
        emit_plotdata([], "ids", tmp_path / "empty.csv")
        text = (tmp_path / "empty.csv").read_text()
        assert "x,y,yerr" in text and len(text.splitlines()) == 2
        emit_plotdata([{"L": 10.0, "p_hat": 0.5, "halfwidth": 0.1}], "ladder",
                      tmp_path / "l.csv")
        assert "10.0,0.5,0.1" in (tmp_path / "l.csv").read_text()
        with pytest.raises(ValidationError):
            emit_plotdata([], "nope", tmp_path / "x.csv")


def run_twice_and_compare(config_path, tmp_path, workers=(1, 1)):
    cfg = load_config(config_path)
    out1 = run_experiment(cfg, str(tmp_path / "r1"), workers_override=workers[0])
    out2 = run_experiment(cfg, str(tmp_path / "r2"), workers_override=workers[1])
    m1 = json.loads((out1 / "manifest.json").read_text())
    m2 = json.loads((out2 / "manifest.json").read_text())
    return m1["files"], m2["files"]


class TestRunnerDeterminism:
    def test_constants_roundtrip(self, tmp_path):
        f1, f2 = run_twice_and_compare(CONFIG_DIR / "constants.json", tmp_path)
        assert f1 == f2
        cfg = load_config(CONFIG_DIR / "constants.json")
        out = run_experiment(cfg, str(tmp_path / "r3"))
        report = json.loads((out / "constants.json").read_text())
        assert report["nhat"] == 3    # p = 0.35

    def test_ids_workers_equivalence(self, tmp_path):
        f1, f2 = run_twice_and_compare(CONFIG_DIR / "ids.json", tmp_path,
                                       workers=(1, 4))
        assert f1 == f2

    def test_model_built_once_and_crosses_the_pool(self, tmp_path, monkeypatch):
        # an auto-shifted periodic field is built once per run, in the
        # parent process, and reaches the pool's workers by pickling
        solves = []
        ground_energy = config_module.periodic_ground_energy

        def counted(*args):
            solves.append(args)
            return ground_energy(*args)

        monkeypatch.setattr(config_module, "periodic_ground_energy", counted)
        raw = json.loads((CONFIG_DIR / "ids.json").read_text())
        raw["model"]["v_per"] = {"kind": "cosine", "period": 2, "amplitude": 0.5,
                                 "auto_shift": True}
        raw["run"]["n_samples"] = 3
        cfg = validate_config(raw)
        data = {}
        for workers in (1, 2):
            solves.clear()
            out = run_experiment(cfg, str(tmp_path / f"w{workers}"), workers_override=workers)
            assert len(solves) == 1
            names = json.loads((out / "manifest.json").read_text())["files"]
            data[workers] = {name: (out / name).read_bytes() for name in names}
        assert data[1] == data[2]

    def test_ladder_rows_count_their_own_scale(self, tmp_path):
        # one pool maps every (scale, trial) pair of the ladder; each row
        # counts the trials of its own scale, as a serial map per scale does
        raw = json.loads((CONFIG_DIR / "initial_scale.json").read_text())
        raw["params"]["energy_factor"] = 50.0     # 4 of 24 pass at L = 20, 10 at L = 30
        cfg = validate_config(raw)
        out = run_experiment(cfg, str(tmp_path), workers_override=2)
        rows = [line.split(",") for line in (out / "ladder.csv").read_text().splitlines()[2:]]
        ensemble = runner._ensemble(cfg)
        expected = []
        for L in cfg.params.scales:
            _, _, trial = cfg.params.scale(ensemble, L)
            expected.append(sum(trial(t) for t in range(cfg.n_samples)))
        assert [int(row[4]) for row in rows] == expected
        assert len(set(expected)) == len(expected)    # a swapped split would show

    def test_v_per_field_pickles_bitwise(self):
        spec = {"kind": "cosine", "period": 2, "amplitude": 0.5, "offset": 0.25,
                "auto_shift": True}
        field = build_v_per(spec, 1, 8)
        points = np.linspace(-3.0, 3.0, 97)[:, None]
        shift = config_module.periodic_ground_energy(build_v_per(dict(spec, auto_shift=False)),
                                                     1, 8)
        expected = 0.25 + 0.5 * np.sum(np.cos(2.0 * np.pi * points / 2), axis=1) - shift
        assert field(points).tobytes() == expected.tobytes()
        copy = pickle.loads(pickle.dumps(field))
        assert copy.period == 2
        assert copy(points).tobytes() == field(points).tobytes()
        # an ensemble holding the field crosses a pickle too, and its trial H
        # is the one rebuilt from the law, the box, the seed and the field;
        # any configuration, free sites assigned, assembles on its own region
        dist, grid, profile = Bernoulli(0.5), GridSpec(8), SiteProfile()
        ensemble = pickle.loads(pickle.dumps(Ensemble(dist, grid, profile, field, 11)))
        box = BoxSpec(1, (0.0,), 6.0)
        for t in range(3):
            trial_ref = assemble_hamiltonian(box, grid, profile,
                                             sample_configuration(dist, box, None, 11, t), field)
            cfg = sample_configuration(dist, BoxSpec(1, (1.0,), 4.0), [[t]], 11,
                                       t).with_free_values(np.ones(1))
            for H, ref in ((ensemble.hamiltonian(box, t), trial_ref),
                           (ensemble.assemble(cfg),
                            assemble_hamiltonian(cfg.region, grid, profile, cfg, field))):
                for a, b in ((H.matrix.data, ref.matrix.data),
                             (H.matrix.indices, ref.matrix.indices),
                             (H.matrix.indptr, ref.matrix.indptr), (H.potential, ref.potential)):
                    assert a.tobytes() == b.tobytes()

    def test_seed_override_changes_output(self, tmp_path):
        cfg = load_config(CONFIG_DIR / "ids.json")
        out1 = run_experiment(cfg, str(tmp_path / "s1"), seed_override=1)
        out2 = run_experiment(cfg, str(tmp_path / "s2"), seed_override=2)
        c1 = (out1 / "ids_curve.csv").read_bytes()
        c2 = (out2 / "ids_curve.csv").read_bytes()
        assert c1 != c2


def _ladder_values(tmp_path, raw: dict, columns: tuple) -> list:
    """``columns`` of each row of a ladder run's ``ladder.csv``, as floats."""
    out = run_experiment(validate_config(raw), str(tmp_path), workers_override=1)
    lines = (out / "ladder.csv").read_text().splitlines()
    rows = csv.DictReader(line for line in lines if not line.startswith("#"))
    return [tuple(float(row[c]) for c in columns) for row in rows]


class TestModelFacts:
    """delta_plus, q and the auto-shift box come from the model being run."""

    @pytest.mark.parametrize("delta_plus, period", [(0.5, None), (1.0, 3)])
    @pytest.mark.parametrize("kind", ["initial-scale", "goodness-ladder"])
    def test_initial_scale_energy_reads_the_model(self, tmp_path, kind, delta_plus, period):
        if kind == "initial-scale":
            raw = json.loads((CONFIG_DIR / "initial_scale.json").read_text())
            columns = ("E_L", "m_L")
        else:
            raw = json.loads((CONFIG_DIR / "goodness_ladder.json").read_text())
            rule = {"kind": "initial-scale", "eps": 1.0}
            raw["params"]["energy_rule"] = raw["params"]["m_rule"] = rule
            columns = ("E", "m")
        raw["model"]["profile"]["delta_plus"] = delta_plus
        if period is not None:
            raw["model"]["v_per"] = {"kind": "cosine", "amplitude": 0.5, "period": period}
        raw["run"]["n_samples"] = 1
        scales, p = [float(L) for L in raw["params"]["scales"]], raw["params"]["p"]
        expected = [initial_scale_values(L, p, 1, 1.0, delta_plus, period or 1) for L in scales]
        # q~ = max(q, 2): a period-3 field and a narrower u both move E_L
        assert expected != [initial_scale_values(L, p, 1, 1.0) for L in scales]
        assert _ladder_values(tmp_path, raw, columns) == expected

    def test_periodic_gap_shift_reads_its_entry_box(self, tmp_path, monkeypatch):
        fields = []
        gap = runner.periodic_projection_gap

        def captured(v_per, *args):
            fields.append(v_per)
            return gap(v_per, *args)

        monkeypatch.setattr(runner, "periodic_projection_gap", captured)
        raw = {"experiment": "periodic-gap", "model": {}, "params": {"benchmarks": [
            {"q": 2, "L": 4, "delta": 1.0, "interval": [0.0, 1.2], "points_per_unit": 4,
             "dimension": 2, "v_per": {"kind": "cosine", "amplitude": 0.5, "period": 2,
                                       "offset": 0.5, "auto_shift": True}}]},
            "run": {"root_seed": 0}}
        run_experiment(validate_config(raw), str(tmp_path))
        assert abs(config_module.periodic_ground_energy(fields[0], 2, 4)) <= 1e-12

    def test_model_shift_reads_its_grid(self):
        raw = json.loads((CONFIG_DIR / "ids.json").read_text())
        assert raw["model"]["grid"]["points_per_unit"] == 4
        raw["model"]["v_per"] = {"kind": "cosine", "period": 2, "amplitude": 0.5,
                                 "auto_shift": True}
        v_per = runner._ensemble(validate_config(raw)).v_per
        assert abs(config_module.periodic_ground_energy(v_per, 1, 4)) <= 1e-12

    def test_auto_shift_needs_the_box(self):
        with pytest.raises(ValidationError, match="points_per_unit"):
            build_v_per({"kind": "cosine", "period": 2, "auto_shift": True})


def _shipped_and_benchmark(kind: str) -> list:
    """Paths of every ``kind`` config in ``configs/`` and ``perfbench/configs/*/``,
    relative to the checkout."""
    root = CONFIG_DIR.parent
    paths = sorted(root.glob("configs/*.json")) + sorted(root.glob("perfbench/configs/*/*.json"))
    return [str(p.relative_to(root)) for p in paths
            if json.loads(p.read_text())["experiment"] == kind]


class TestCountPrecondition:
    """Counting can replace full spectra and lambda_min on every shipped and
    benchmark ``ids`` and ``initial-scale`` trial, each at its own seed."""

    @pytest.mark.parametrize("path", _shipped_and_benchmark("ids"))
    def test_ids_counts_are_strict_counts_one_ulp_up(self, path):
        cfg = load_config(CONFIG_DIR.parent / path)
        ensemble, box = runner._ensemble(cfg), runner._box(cfg.params.L)
        grid = cfg.params.energy_grid
        above = np.nextafter(grid, np.inf)
        for t in range(cfg.n_samples):
            counts = eigenvalue_count(ensemble.hamiltonian(box, t), above)
            assert counts.tolist() == ids_counts(ensemble, box, grid, t).tolist()

    @pytest.mark.parametrize("path", _shipped_and_benchmark("initial-scale"))
    def test_initial_scale_verdict_is_one_count(self, path):
        cfg = load_config(CONFIG_DIR.parent / path)
        ensemble = runner._ensemble(cfg)
        for L in cfg.params.scales:
            E_L, _, _ = cfg.params.scale(ensemble, L)
            threshold, box = cfg.params.energy_factor * E_L, runner._box(L)
            for t in range(cfg.n_samples):
                H = ensemble.hamiltonian(box, t)
                verdict = initial_scale_trial(ensemble, box, threshold, t)
                assert (eigenvalue_count(H, [threshold])[0] == 0) == verdict
                assert abs(lowest_eigenvalue(H) - threshold) > 1e-9 * max(1.0, abs(threshold))


def _qucp_records(tmp_path, name: str) -> list:
    """The data rows of the shipped ``qucp`` config, as dicts."""
    out = run_experiment(load_config(CONFIG_DIR / "qucp.json"), str(tmp_path / name),
                         workers_override=1)
    lines = (out / "qucp_records.csv").read_text().splitlines()
    return list(csv.DictReader(line for line in lines if not line.startswith("#")))


class TestQucpGroundPair:
    def test_trial_asks_for_the_ground_pair_alone(self, tmp_path, monkeypatch):
        caps = []
        window = qucp_module.eigs_window

        def spy(H, interval, max_count=10**6):
            caps.append(max_count)
            return window(H, interval, max_count)

        monkeypatch.setattr(qucp_module, "eigs_window", spy)
        cfg = load_config(CONFIG_DIR / "qucp.json")
        assert _qucp_records(tmp_path, "one")
        assert caps == [1] * cfg.n_samples

    def test_ground_pair_below_the_default_window(self, tmp_path, monkeypatch):
        # V dips to -1.5, so lambda_0 is below -0.1, where the window used to start
        calls = []
        verify = qucp_module.qucp_verify

        def spy(H, psi, energy, *args):
            calls.append((lowest_eigenvalue(H), energy))
            return verify(H, psi, energy, *args)

        monkeypatch.setattr(qucp_module, "qucp_verify", spy)
        raw = json.loads((CONFIG_DIR / "qucp.json").read_text())
        raw["model"]["v_per"] = {"kind": "cosine", "amplitude": 1.0, "period": 1,
                                 "offset": -0.5}
        run_experiment(validate_config(raw), str(tmp_path), workers_override=1)
        assert len(calls) == raw["run"]["n_samples"] and min(c[0] for c in calls) < -0.1
        for ground, energy in calls:
            assert energy == pytest.approx(ground, abs=1e-12)

    def test_records_match_a_four_pair_reference(self, tmp_path, monkeypatch):
        one = _qucp_records(tmp_path, "one")
        window = qucp_module.eigs_window
        monkeypatch.setattr(qucp_module, "eigs_window",
                            lambda H, interval, max_count: window(H, interval, max_count=4))
        four = _qucp_records(tmp_path, "four")
        assert len(one) == len(four) > 0
        for new, ref in zip(one, four):
            assert [new[k] for k in ("trial", "x", "R", "skipped")] == \
                [ref[k] for k in ("trial", "x", "R", "skipped")]
            if float(ref["lhs"]) >= 1e-20:
                assert float(new["lhs"]) == pytest.approx(float(ref["lhs"]), rel=1e-7)


class TestCli:
    def test_kind_mismatch_exits_2(self, tmp_path, capsys):
        rc = cli_main(["ids", "--config", str(CONFIG_DIR / "constants.json"),
                       "--out", str(tmp_path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert json.loads(err)["error"] == "validation"

    def test_unknown_key_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        raw = minimal_constants_config()
        raw["params"]["mesch"] = 1
        bad.write_text(json.dumps(raw))
        rc = cli_main(["constants", "--config", str(bad), "--out", str(tmp_path)])
        assert rc == 2
        assert "mesch" in capsys.readouterr().err

    def test_constants_run(self, tmp_path, capsys):
        rc = cli_main(["constants", "--config",
                       str(CONFIG_DIR / "constants.json"), "--out", str(tmp_path)])
        assert rc == 0
        out_dir = Path(capsys.readouterr().out.strip())
        assert (out_dir / "manifest.json").exists()

    def test_verbose_prints_the_manifest(self, tmp_path, capsys):
        rc = cli_main(["constants", "--config", str(CONFIG_DIR / "constants.json"),
                       "--out", str(tmp_path), "--verbose"])
        assert rc == 0
        printed = json.loads(capsys.readouterr().out)
        [path] = tmp_path.glob("*/manifest.json")
        files = json.loads(path.read_text())["files"]
        assert files and printed["files"] == files


class TestEnvOutputRoot:
    def test_andlab_out_env(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("ANDLAB_OUT", str(tmp_path / "envroot"))
        monkeypatch.chdir(tmp_path)
        rc = cli_main(["constants", "--config",
                       str(CONFIG_DIR / "constants.json")])
        assert rc == 0
        out_dir = Path(capsys.readouterr().out.strip())
        assert str(out_dir).startswith(str(tmp_path / "envroot"))
        assert (out_dir / "constants.json").exists()


def periodic_gap_with_bad_entry():
    raw = json.loads((CONFIG_DIR / "periodic_gap.json").read_text())
    raw["params"]["benchmarks"][1]["wiggle"] = 1
    return raw, "wiggle"


def goodness_ladder_with_bad_rule():
    raw = json.loads((CONFIG_DIR / "goodness_ladder.json").read_text())
    raw["params"]["m_rule"]["kind"] = "guess"
    return raw, "guess"


def periodic_gap_with_non_object_entry():
    raw = json.loads((CONFIG_DIR / "periodic_gap.json").read_text())
    raw["params"]["benchmarks"][0] = "q1"
    return raw, "benchmarks"


def periodic_gap_with_non_list_benchmarks():
    raw = json.loads((CONFIG_DIR / "periodic_gap.json").read_text())
    raw["params"]["benchmarks"] = "all"
    return raw, "benchmarks"


def goodness_ladder_with_non_object_rule():
    raw = json.loads((CONFIG_DIR / "goodness_ladder.json").read_text())
    raw["params"]["energy_rule"] = "fixed"
    return raw, "energy_rule"


def _model_with(section, key):
    def make():
        raw = json.loads((CONFIG_DIR / "dynamical.json").read_text())
        raw["model"].setdefault(section, {"kind": "cosine"})[key] = 1
        return raw, key
    make.__name__ = f"model_{section}_with_bad_key"
    return make


def _model_for_kind_without_one(config):
    # a kind that reads no model refuses a model section it would ignore
    def make():
        raw = json.loads((CONFIG_DIR / f"{config}.json").read_text())
        raw["model"] = {"grid": {"points_per_unit": 4}}
        return raw, "takes no model"
    make.__name__ = f"{config}_with_a_model"
    return make


def goodness_ladder_with_bad_rule_key():
    raw = json.loads((CONFIG_DIR / "goodness_ladder.json").read_text())
    raw["params"]["energy_rule"]["energi"] = -0.5
    return raw, "energi"


def goodness_ladder_with_fixed_rule_missing_key():
    # a fixed energy rule must give the energy; its m is optional
    raw = json.loads((CONFIG_DIR / "goodness_ladder.json").read_text())
    del raw["params"]["energy_rule"]["energy"]
    return raw, "missing key 'energy' in params.energy_rule"


def _goodness_ladder_with_rule(rule, spec, name):
    # E comes from energy_rule and m from m_rule, whose fixed form must give
    # it; the value the other rule restates must agree with it, and is unused
    # beside an initial-scale rule (unchecked, m_rule energy 0.9 and
    # energy_rule m 7.0 left ladder.csv unchanged)
    def make():
        raw = json.loads((CONFIG_DIR / "goodness_ladder.json").read_text())
        raw["params"][rule] = spec
        return raw, name
    make.__name__ = "goodness_ladder_with_{}_{}".format(
        rule, "_".join(f"{k}_{v}" for k, v in spec.items()))
    return make


def goodness_ladder_with_zero_pair_cap():
    # a cap of 0 would keep all 741 pairs at L = 40
    raw = json.loads((CONFIG_DIR / "goodness_ladder.json").read_text())
    raw["params"]["pair_cap"] = 0
    return raw, "pair_cap"


def goodness_ladder_with_negative_pair_cap():
    # a cap of -5 would keep 740 of 741
    raw = json.loads((CONFIG_DIR / "goodness_ladder.json").read_text())
    raw["params"]["pair_cap"] = -5
    return raw, "pair_cap"


def v_per_with_dimension():
    # auto_shift takes the dimension of the box it shifts
    raw = json.loads((CONFIG_DIR / "dynamical.json").read_text())
    raw["model"]["v_per"] = {"kind": "cosine", "auto_shift": True, "dimension": 1}
    return raw, "dimension"


def _initial_scale_with(key):
    # the model fixes delta_plus (its profile) and q (its v_per period)
    def make():
        raw = json.loads((CONFIG_DIR / "initial_scale.json").read_text())
        raw["params"][key] = 1
        return raw, key
    make.__name__ = f"initial_scale_with_{key}"
    return make


def _initial_scale_rule_with(key):
    def make():
        raw = json.loads((CONFIG_DIR / "goodness_ladder.json").read_text())
        raw["params"]["energy_rule"] = {"kind": "initial-scale", key: 1}
        return raw, key
    make.__name__ = f"initial_scale_rule_with_{key}"
    return make


def _periodic_gap_with_q(entry, q):
    # the q column echoes the entry's field period, 1 without a field
    def make():
        raw = json.loads((CONFIG_DIR / "periodic_gap.json").read_text())
        raw["params"]["benchmarks"][entry]["q"] = q
        return raw, "period"
    make.__name__ = f"periodic_gap_entry_{entry}_with_q_{q}"
    return make


def _periodic_gap_entry_with(key, value, name):
    # entry 2 has a period-2 field: its box side must be a multiple of 2, its
    # delta in (0, 2], as periodic_projection_gap requires
    def make():
        raw = json.loads((CONFIG_DIR / "periodic_gap.json").read_text())
        if value is None:
            del raw["params"]["benchmarks"][2][key]
        else:
            raw["params"]["benchmarks"][2][key] = value
        return raw, name
    make.__name__ = (f"periodic_gap_entry_2_without_{key}" if value is None
                     else f"periodic_gap_entry_2_with_{key}_{value}")
    return make


def ids_with_bad_energy_grid_key():
    raw = json.loads((CONFIG_DIR / "ids.json").read_text())
    raw["params"]["energy_grid"] = {"start": 0.1, "stop": 1.5, "count": 8}
    return raw, "count"


def _ids_with_grid(grid, label):
    # an IDS grid must be strictly increasing: under a running maximum
    # [1.5, 0.1, 0.6] would read N_hat(0.1) = 0.319, the value at 1.5, where
    # the sorted grid gives 0.0069
    def make():
        raw = json.loads((CONFIG_DIR / "ids.json").read_text())
        raw["params"]["energy_grid"] = grid
        return raw, "strictly increasing"
    make.__name__ = f"ids_with_{label}_energy_grid"
    return make


def _run_with(config, key, value):
    # unchecked, n_samples 0 would raise TypeError (ids), ZeroDivisionError
    # (ladders) or write empty results; 2.7 would run 2 trials, true 1; and
    # workers 0 would run serially
    def make():
        raw = json.loads((CONFIG_DIR / f"{config}.json").read_text())
        raw["run"][key] = value
        return raw, key
    make.__name__ = f"{config}_with_run_{key}_{value}"
    return make


def _set(config, path, value, label, name):
    # one bad value in a shipped config, at "section.key" or "model.section.key";
    # the refusal names ``name``.  Unchecked, some of these raised a traceback
    # (ids L "abc", dynamical interval [0.0] and t_grid "x", initial-scale p "x",
    # goodness-ladder varsigma null, covering-suite dims [4], run.out 5), some
    # were refused only after the output directory existed (ids L 0, dynamical
    # x0 [0, 1], qucp delta -1 and theta_side 0), and the rest ran: qucp
    # probe_count 0, dichotomy interval [1, 0], initial-scale scales [] and
    # covering-suite n_instances 0 wrote empty or vacuous results, ids L true
    # ran at L = 1, and points_per_unit 8.7 ran at 8
    def make():
        raw = json.loads((CONFIG_DIR / f"{config}.json").read_text())
        *sections, key = path.split(".")
        target = raw
        for section in sections:
            target = target[section]
        target[key] = value
        return raw, name
    make.__name__ = f"{config}_with_{label}"
    return make


BAD_VALUES = [
    _set("ids", "params.L", "abc", "L_text", "params.L"),
    _set("ids", "params.L", 0, "L_0", "params.L"),
    _set("ids", "params.L", True, "L_true", "params.L"),
    _set("dynamical", "params.interval", [0.0], "one_entry_interval", "params.interval"),
    _set("dynamical", "params.t_grid", "x", "t_grid_text", "params.t_grid"),
    _set("dynamical", "params.x0", [0, 1], "two_coordinate_x0", "params.x0"),
    _set("initial_scale", "params.p", "x", "p_text", "params.p"),
    _set("initial_scale", "params.scales", [], "no_scales", "params.scales"),
    _set("goodness_ladder", "params.varsigma", None, "varsigma_null", "params.varsigma"),
    _set("covering_suite", "params.dims", [4], "dims_4", "params.dims"),
    _set("covering_suite", "params.dims", [3], "dims_3", "params.dims"),
    _set("covering_suite", "params.n_instances", 0, "no_instances", "params.n_instances"),
    _set("qucp", "params.delta", -1, "negative_delta", "params.delta"),
    _set("qucp", "params.theta_side", 0, "theta_side_0", "params.theta_side"),
    _set("qucp", "params.probe_count", 0, "no_probes", "params.probe_count"),
    _set("dichotomy", "params.interval", [1, 0], "reversed_interval", "params.interval"),
    _set("ids", "run.out", 5, "run_out_5", "run.out"),
    _set("ids", "model.grid.points_per_unit", 8.7, "points_per_unit_8.7", "grid.points_per_unit"),
]


def run_not_an_object():
    raw = json.loads((CONFIG_DIR / "ids.json").read_text())
    raw["run"] = [13, 6]
    return raw, "run must be an object"


@pytest.mark.parametrize("make_bad", [periodic_gap_with_bad_entry,
                                      periodic_gap_with_non_object_entry,
                                      periodic_gap_with_non_list_benchmarks,
                                      goodness_ladder_with_bad_rule,
                                      goodness_ladder_with_non_object_rule,
                                      _model_with("distribution", "qq"),
                                      _model_with("profile", "u_plsu"),
                                      _model_with("grid", "points_per_unti"),
                                      _model_with("v_per", "amplitdue"),
                                      _model_with("profile", "u_minus"),
                                      _model_with("profile", "delta_minus"),
                                      _model_for_kind_without_one("constants"),
                                      _model_for_kind_without_one("covering_suite"),
                                      _model_for_kind_without_one("periodic_gap"),
                                      v_per_with_dimension,
                                      _initial_scale_with("delta_plus"),
                                      _initial_scale_with("q"),
                                      _initial_scale_rule_with("delta_plus"),
                                      _initial_scale_rule_with("q"),
                                      _periodic_gap_with_q(2, 3),
                                      _periodic_gap_with_q(0, 2),
                                      _periodic_gap_entry_with("L", 5, "multiple"),
                                      _periodic_gap_entry_with("delta", 3, "delta"),
                                      _periodic_gap_entry_with("L", None, "missing key 'L'"),
                                      goodness_ladder_with_bad_rule_key,
                                      goodness_ladder_with_fixed_rule_missing_key,
                                      _goodness_ladder_with_rule(
                                          "m_rule", {"kind": "fixed", "energy": -0.5},
                                          "missing key 'm' in params.m_rule"),
                                      _goodness_ladder_with_rule(
                                          "m_rule", {"kind": "fixed", "energy": 0.9, "m": 0.4},
                                          "params.m_rule.energy 0.9 differs"),
                                      _goodness_ladder_with_rule(
                                          "energy_rule", {"kind": "fixed", "energy": -0.5,
                                                          "m": 7.0},
                                          "params.energy_rule.m 7.0 differs"),
                                      _goodness_ladder_with_rule(
                                          "energy_rule", {"kind": "initial-scale"},
                                          "params.m_rule.energy -0.5 is unused"),
                                      _goodness_ladder_with_rule(
                                          "m_rule", {"kind": "initial-scale"},
                                          "params.energy_rule.m 0.4 is unused"),
                                      ids_with_bad_energy_grid_key,
                                      _ids_with_grid([1.5, 0.1, 0.6], "unsorted"),
                                      _ids_with_grid([0.1, 0.6, 0.6, 1.5], "repeated"),
                                      _ids_with_grid({"start": 1.5, "stop": 0.1, "num": 4},
                                                     "decreasing"),
                                      _run_with("ids", "n_samples", 0),
                                      _run_with("initial_scale", "n_samples", 0),
                                      _run_with("dynamical", "n_samples", 0),
                                      _run_with("dynamical", "n_samples", 2.7),
                                      _run_with("qucp", "n_samples", True),
                                      _run_with("ids", "workers", 0),
                                      _run_with("ids", "workers", 2.0),
                                      _run_with("dichotomy", "root_seed", 1.5),
                                      _run_with("dichotomy", "root_seed", False),
                                      _run_with("initial_scale", "root_seed", -1),
                                      _run_with("initial_scale", "root_seed", 2**64),
                                      run_not_an_object,
                                      goodness_ladder_with_zero_pair_cap,
                                      goodness_ladder_with_negative_pair_cap] + BAD_VALUES)
class TestConfigTimeChecks:
    def test_validate_rejects(self, make_bad):
        raw, name = make_bad()
        with pytest.raises(ValidationError, match=name):
            validate_config(raw)

    def test_cli_creates_no_directory(self, make_bad, tmp_path, capsys):
        raw, name = make_bad()
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(raw))
        out_root = tmp_path / "out"
        assert cli_main([raw["experiment"], "--config", str(path),
                         "--out", str(out_root)]) == 2
        record = json.loads(capsys.readouterr().err)
        assert record["error"] == "validation"
        assert name in record["message"]
        assert not out_root.exists()


def test_fixed_rules_need_only_the_value_they_supply(tmp_path):
    raw = json.loads((CONFIG_DIR / "goodness_ladder.json").read_text())
    shipped = run_experiment(validate_config(raw), str(tmp_path / "shipped"))
    raw["params"]["energy_rule"] = {"kind": "fixed", "energy": -0.5}
    raw["params"]["m_rule"] = {"kind": "fixed", "m": 0.4}
    short = run_experiment(validate_config(raw), str(tmp_path / "short"))
    for name in ("ladder.csv", "plot_ladder.csv"):
        assert (short / name).read_bytes() == (shipped / name).read_bytes()


def _check_of(cls, name: str):
    """The check that ``build_params`` applies to field ``name`` of ``cls``."""
    return config_module._checks(cls)[name]


NOT_NUMBERS = st.one_of(st.none(), st.booleans(), st.text(max_size=3),
                        st.lists(st.integers(), max_size=2), st.dictionaries(st.text(), st.none()),
                        st.sampled_from([math.inf, -math.inf, math.nan]))
FINITE = st.floats(allow_nan=False, allow_infinity=False)
NOT_LISTS = st.one_of(NOT_NUMBERS.filter(lambda v: not isinstance(v, list)), FINITE)
# each field type with values it must refuse: the wrong type or out of range
REFUSED = {
    "real": (_check_of(runner.FixedRule, "energy"), NOT_NUMBERS),
    "positive": (_check_of(runner.IdsParams, "L"),
                 st.one_of(NOT_NUMBERS, FINITE.filter(lambda v: v <= 0.0),
                           st.integers(max_value=0))),
    "unit": (_check_of(runner.InitialScaleParams, "eps"),
             st.one_of(NOT_NUMBERS, FINITE.filter(lambda v: not 0.0 < v <= 1.0))),
    "integer": (_check_of(config_module.RunSection, "root_seed"),
                st.one_of(NOT_NUMBERS, FINITE, st.integers(max_value=-1),
                          st.integers(min_value=2**64))),
    "count": (_check_of(config_module.RunSection, "workers"),
              st.one_of(NOT_NUMBERS, FINITE, st.integers(max_value=0))),
    "flag": (_check_of(runner.IdsParams, "modulus_fit"),
             st.one_of(st.none(), st.integers(), FINITE, st.text(max_size=3))),
    "interval": (_check_of(runner.DynamicalParams, "interval"),
                 st.one_of(NOT_LISTS, st.lists(FINITE, max_size=1), st.lists(FINITE, min_size=3),
                           st.lists(NOT_NUMBERS, min_size=2, max_size=2),
                           st.lists(FINITE, min_size=2, max_size=2, unique=True).map(
                               lambda v: sorted(v, reverse=True)))),
    "point": (_check_of(runner.DynamicalParams, "x0"),
              st.one_of(NOT_LISTS, st.lists(FINITE, min_size=2), st.just([]),
                        st.lists(NOT_NUMBERS, min_size=1, max_size=1))),
    "scales": (_check_of(runner.InitialScaleParams, "scales"),
               st.one_of(NOT_LISTS, st.just([]),
                         st.lists(FINITE, min_size=1).filter(lambda v: min(v) <= 0.0))),
    "energy_grid": (_check_of(runner.IdsParams, "energy_grid"),
                    st.one_of(NOT_LISTS, st.just([]),
                              st.lists(FINITE, min_size=2).filter(
                                  lambda v: any(b <= a for a, b in zip(v, v[1:]))))),
    "rule": (_check_of(runner.GoodnessParams, "energy_rule"),
             st.one_of(NOT_LISTS, st.fixed_dictionaries({"kind": st.text(max_size=3)}),
                       st.fixed_dictionaries({"kind": st.just("fixed"), "energy": NOT_NUMBERS,
                                              "m": st.just(0.4)}))),
    "periodic_gap_entry": (_check_of(runner.PeriodicGapParams, "benchmarks"),
                           st.one_of(NOT_LISTS, st.just([]), st.lists(
                               st.fixed_dictionaries({"L": st.integers(1, 9),
                                                      "delta": st.just(1.0),
                                                      "interval": st.just([0.0, 1.0]),
                                                      "points_per_unit": st.just(4),
                                                      "q": st.integers(2, 9)}),
                               min_size=1, max_size=2))),
    "dims": (_check_of(runner.CoveringParams, "dims"),
             st.one_of(NOT_LISTS, st.just([]), st.lists(
                 st.one_of(NOT_NUMBERS, FINITE, st.integers().filter(lambda v: v not in (1, 2))),
                 min_size=1, max_size=2))),
}


@pytest.mark.parametrize("field_type", sorted(REFUSED))
@given(data=st.data())
def test_field_type_refuses_wrong_values(field_type, data):
    check, values = REFUSED[field_type]
    value = data.draw(values)
    with pytest.raises(ValidationError):
        check(value, "params.x")


class TestRunOverrides:
    """``run_experiment`` re-validates the run section after the overrides."""

    @pytest.mark.parametrize("override, name", [({"workers_override": 0}, "workers"),
                                                ({"seed_override": 2.5}, "root_seed")])
    def test_library_override_refused(self, override, name, tmp_path):
        with pytest.raises(ValidationError, match=name):
            run_experiment(load_config(CONFIG_DIR / "ids.json"), str(tmp_path / "out"),
                           **override)
        assert not (tmp_path / "out").exists()

    def test_cli_workers_zero_exits_2(self, tmp_path, capsys):
        assert cli_main(["ids", "--config", str(CONFIG_DIR / "ids.json"),
                         "--out", str(tmp_path / "out"), "--workers", "0"]) == 2
        assert "workers" in json.loads(capsys.readouterr().err)["message"]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_cli_seed_outside_64_bits_exits_2(self, seed, tmp_path, capsys):
        # stream keys fold the seed mod 2^64: 2^64 would rerun seed 0 under
        # another digest, -1 seed 2^64 - 1
        assert cli_main(["initial-scale", "--config", str(CONFIG_DIR / "initial_scale.json"),
                         "--out", str(tmp_path / "out"), "--seed", str(seed)]) == 2
        assert "root_seed" in json.loads(capsys.readouterr().err)["message"]
        assert not (tmp_path / "out").exists()

    def test_largest_seed_runs(self, tmp_path):
        out = run_experiment(load_config(CONFIG_DIR / "initial_scale.json"),
                             str(tmp_path), seed_override=2**64 - 1)
        assert json.loads((out / "manifest.json").read_text())["root_seed"] == 2**64 - 1


def _shipped_with(config, **params):
    raw = json.loads((CONFIG_DIR / f"{config}.json").read_text())
    raw["params"].update(params)
    return raw


def _broken_ids_trial(monkeypatch):
    def broken(*args):
        raise SolverError("trial broke down")

    monkeypatch.setattr(runner, "ids_counts", broken)
    return _shipped_with("ids")


# Conditions that pass validate_config and are raised inside a body, by the
# library or by a trial: (config maker, error, CLI exit code, CLI error record,
# message).  Each used to leave an empty run directory, or data files without
# a manifest (ids modulus_fit on a uniform grid).
FAILED_RUNS = {
    "dichotomy_outer_factor_1.5": (lambda mp: _shipped_with("dichotomy", outer_factor=1.5),
                                   GeometryError, 1, "GeometryError", "outer box too small"),
    "qucp_D_0.1": (lambda mp: _shipped_with("qucp", D=0.1),
                   ValidationError, 2, "validation", "diam Theta <= D"),
    "qucp_massless_theta": (lambda mp: _shipped_with("qucp", theta_center=[30.0]),
                            ValidationError, 2, "validation", "Theta carries no mass"),
    "ids_uniform_grid_modulus_fit": (
        lambda mp: _shipped_with("ids", energy_grid=[0.1, 0.2, 0.3], modulus_fit=True),
        ValidationError, 2, "validation", "varying grid spacing"),
    "ids_trial_raises": (_broken_ids_trial, SolverError, 1, "SolverError", "trial broke down"),
}


@pytest.mark.parametrize("case", sorted(FAILED_RUNS))
class TestFailedRunLeavesNoDirectory:
    """The run directory is made only once the body has returned."""

    def test_run_experiment(self, case, tmp_path, monkeypatch):
        make, error, _, _, message = FAILED_RUNS[case]
        with pytest.raises(error, match=message):
            run_experiment(validate_config(make(monkeypatch)), str(tmp_path / "out"),
                           workers_override=1)
        assert list((tmp_path / "out").iterdir()) == []

    def test_cli(self, case, tmp_path, monkeypatch, capsys):
        make, _, code, name, message = FAILED_RUNS[case]
        raw = make(monkeypatch)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(raw))
        assert cli_main([raw["experiment"], "--config", str(path),
                         "--out", str(tmp_path / "out"), "--workers", "1"]) == code
        record = json.loads(capsys.readouterr().err)
        assert record["error"] == name and message in record["message"]
        assert list((tmp_path / "out").iterdir()) == []


@pytest.mark.parametrize("out, name", [("file", "FileExistsError"),
                                       ("file/sub", "NotADirectoryError")])
def test_unusable_output_root_fails_before_any_trial(out, name, tmp_path, monkeypatch,
                                                     capsys):
    trials = []
    monkeypatch.setattr(runner, "map_trials", lambda *args: trials.append(args))
    (tmp_path / "file").write_text("")
    with pytest.raises(OSError):
        run_experiment(load_config(CONFIG_DIR / "ids.json"), str(tmp_path / out))
    assert cli_main(["ids", "--config", str(CONFIG_DIR / "ids.json"),
                     "--out", str(tmp_path / out)]) == 1
    assert json.loads(capsys.readouterr().err)["error"] == name
    assert trials == []


def test_run_directory_holds_exactly_its_manifest_files(tmp_path):
    out = run_experiment(load_config(CONFIG_DIR / "ids.json"), str(tmp_path))
    files = json.loads((out / "manifest.json").read_text())["files"]
    assert sorted(files) == ["ids_curve.csv", "modulus.json", "plot_ids.csv"]
    assert sorted(p.name for p in out.iterdir()) == sorted(["manifest.json", *files])
    assert list(tmp_path.iterdir()) == [out]


CONFIG_FOR_KIND = {json.loads(p.read_text())["experiment"]: p
                   for p in CONFIG_DIR.glob("*.json")}


@pytest.mark.parametrize("kind", sorted(KINDS))
class TestRegistry:
    def test_cli_subcommand(self, kind):
        args = build_parser().parse_args([kind, "--config", "c.json"])
        assert args.kind == kind

    def test_shipped_config_validates(self, kind):
        assert load_config(CONFIG_FOR_KIND[kind]).kind == kind

    def test_unknown_param_rejected(self, kind):
        raw = json.loads(CONFIG_FOR_KIND[kind].read_text())
        raw["params"]["bogus_knob"] = 1
        with pytest.raises(ValidationError, match="bogus_knob"):
            validate_config(raw)


@pytest.mark.parametrize("kind", sorted(k for k, entry in KINDS.items() if not entry.needs_model))
def test_kind_without_a_model_takes_an_empty_or_absent_one(kind):
    raw = json.loads(CONFIG_FOR_KIND[kind].read_text())
    assert raw["model"] == {} and validate_config(raw).model is None
    del raw["model"]
    assert validate_config(raw).model is None


def _fields(cls) -> set:
    """The config keys of a dataclass: the fields that ``build_params`` checks."""
    return set(config_module._checks(cls))


def _accepted_keys() -> set:
    """``(section, key)`` for every key the config schema accepts."""
    sections = {"run": _fields(config_module.RunSection), "profile": _fields(SiteProfile),
                "grid": _fields(GridSpec), "benchmark": _fields(runner.GapEntry)}
    sections.update({f"distribution.{kind}": {"kind"} | _fields(cls)
                     for kind, cls in config_module._DISTRIBUTIONS.items()})
    sections.update({f"v_per.{kind}": {"kind"} | _fields(cls)
                     for kind, cls in config_module._V_PER.items()})
    sections.update({f"rule.{kind}": {"kind"} | _fields(cls) for kind, cls in runner.RULES.items()})
    sections.update({f"params.{kind}": _fields(entry.params) for kind, entry in KINDS.items()})
    return {(section, key) for section, keys in sections.items() for key in keys}


def _keys_set_by(raw: dict) -> set:
    """``(section, key)`` for every key a config sets, in the sections above."""
    params, model = raw["params"], raw.get("model", {})
    found = {("run", key) for key in raw.get("run", {})}
    found |= {(f"params.{raw['experiment']}", key) for key in params}
    found |= {(section, key) for section in ("profile", "grid") for key in model.get(section, {})}
    dists = [model["distribution"]] if "distribution" in model else []
    while dists:
        dist = dists.pop()
        found |= {(f"distribution.{dist['kind']}", key) for key in dist}
        dists += [component for _, component in dist.get("components", [])]
    benches = params.get("benchmarks", [])
    found |= {("benchmark", key) for bench in benches for key in bench}
    for spec in [model.get("v_per")] + [bench.get("v_per") for bench in benches]:
        if spec is not None:
            found |= {(f"v_per.{spec.get('kind', 'zero')}", key) for key in spec}
    for name in ("energy_rule", "m_rule"):
        if name in params:
            found |= {(f"rule.{params[name]['kind']}", key) for key in params[name]}
    return found


# Accepted keys that no shipped or benchmark config sets.  Each is an input
# of its experiment or a choice of model, not a fact that the model already
# fixes; a key that restates the model belongs to the model instead.
UNSET_INPUTS = {
    "run": {"out"},                                  # the CLI's --out sets it too
    "distribution.atoms": {"kind", "points"},
    "distribution.mixture": {"kind", "components"},
    "v_per.zero": {"kind"},
    "v_per.cosine": {"auto_shift"},
    "benchmark": {"dimension"},                      # 2-d periodic-gap entries
    "rule.initial-scale": {"kind", "eps"},
    "params.initial-scale": {"energy_factor"},
    "params.dichotomy": {"x0"},
    "params.qucp": {"theta_center", "D"},
    # constants has no model, so its delta_plus and q are inputs
    "params.constants": {"p_tilde", "rho", "eps", "delta_plus", "q"},
}


def test_every_accepted_key_is_set_or_an_input():
    configs = sorted(CONFIG_DIR.glob("*.json")) + \
        sorted((CONFIG_DIR.parent / "perfbench" / "configs").glob("*/*.json"))
    set_keys = set().union(*(_keys_set_by(json.loads(path.read_text())) for path in configs))
    accepted = _accepted_keys()
    assert set_keys <= accepted
    assert accepted - set_keys == {(section, key) for section, keys in UNSET_INPUTS.items()
                                   for key in keys}


# SuperLU/ARPACK, scipy.special and the process pool, each imported on first use
DEFERRED = ["concurrent.futures.process", "scipy.sparse.linalg", "scipy.special"]
RUN_CONFIGS = """
import json, sys, tempfile
from pathlib import Path
from andlab.experiments import load_config, run_experiment
with tempfile.TemporaryDirectory() as tmp:
    for name in sys.argv[1:]:
        run_experiment(load_config(Path("configs") / f"{name}.json"), str(Path(tmp) / name),
                       workers_override=1)
"""
DEFERRED_CALLS = """
import json
from andlab.discretize import GridSpec, assemble_hamiltonian, empty_configuration
from andlab.model import BoxSpec, SiteProfile
from andlab.qucp import carleman_constant
from andlab.spectral import eigenvalue_count
box = BoxSpec(1, (0.0,), 6.0)
H = assemble_hamiltonian(box, GridSpec(4, "periodic"), SiteProfile(), empty_configuration(box))
print(json.dumps([eigenvalue_count(H, [0.5, 32.0]).tolist(), carleman_constant()]))
"""


def _python(script: str, *args: str) -> tuple:
    """Run ``script`` in a fresh interpreter on this checkout's ``src/``: its
    stdout, then which of ``DEFERRED`` it loaded."""
    report = "\nimport sys\nprint(json.dumps([m for m in DEFERRED if m in sys.modules]))\n"
    root = CONFIG_DIR.parent
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    out = subprocess.run([sys.executable, "-c", f"DEFERRED = {DEFERRED!r}\n{script}{report}",
                          *args], cwd=root, env=env, capture_output=True, text=True,
                         timeout=300, check=True).stdout.splitlines()
    return out[:-1], json.loads(out[-1])


class TestImportFootprint:
    def test_one_d_runs_load_no_deferred_module(self):
        _, loaded = _python(RUN_CONFIGS, "dynamical", "qucp", "goodness_ladder", "ids",
                            "periodic_gap")
        assert loaded == []

    def test_deferred_paths_keep_their_values(self):
        # a periodic box takes SuperLU for its count (11 below the double
        # free eigenvalue 32, as in test_degenerate_eigenvalue); C1 takes E1
        out, loaded = _python(DEFERRED_CALLS)
        assert json.loads(out[0]) == [[1, 11], 2.2179860496420427]
        assert loaded == ["scipy.sparse.linalg", "scipy.special"]
