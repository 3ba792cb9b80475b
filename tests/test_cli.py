import argparse
import csv
import json
import math
import os
from pathlib import Path

import numpy as np
import pytest

import fairdrop.cli
import fairdrop.oracle
import fairdrop.search
from fairdrop.cli import default_n_u, main, mean_ci, resolve_config

from conftest import MALFORMED_MODEL_FILES, MALFORMED_SCHEMA_FILES, model_document


def run_cli(args):
    return main([str(a) for a in args])


def write_config(path, **overrides):
    cfg = {
        "dataset": {"synth": {"n_rows": 600, "n_features": 6, "bias_strength": 0.8,
                              "seed": 21}},
        "model": {"hidden_sizes": [8], "train": {"learning_rate": 0.5, "epochs": 30,
                                                 "batch_size": 64,
                                                 "train_dropout_prob": 0.0}},
        "search": {"alg_type": "sa", "p": 3.0, "t": 0.98, "n_l": 2, "n_u": 4,
                   "max_iterations": 300},
        "seeds": [1, 2],
        "output_dir": str(path.parent / "out"),
    }
    for key, value in overrides.items():
        if isinstance(value, dict) and key in cfg:
            cfg[key].update(value)
        else:
            cfg[key] = value
    path.write_text(json.dumps(cfg))
    return cfg


@pytest.fixture
def trained(tmp_path):
    config = tmp_path / "config.json"
    write_config(config)
    assert run_cli(["train", "--config", config]) == 0
    return config, tmp_path / "out"


class TestSynth:
    def test_writes_csv_and_schema(self, tmp_path):
        out = tmp_path / "synth"
        assert run_cli(["synth", "--out", out, "--n-rows", 120, "--n-features", 4,
                        "--bias-strength", 0.5, "--seed", 3]) == 0
        rows = (out / "synthetic.csv").read_text().strip().split("\n")
        assert rows[0] == "f0,f1,f2,f3,group,label"
        assert len(rows) == 121
        schema = json.loads((out / "synthetic_schema.json").read_text())
        assert schema["protected"]["column"] == "group"

    def test_same_seed_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            run_cli(["synth", "--out", out, "--n-rows", 150, "--n-features", 3,
                     "--bias-strength", 0.4, "--seed", 9])
        assert (a / "synthetic.csv").read_bytes() == (b / "synthetic.csv").read_bytes()

    def test_bias_out_of_range_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run_cli(["synth", "--out", tmp_path, "--bias-strength", 1.5])
        assert exc.value.code != 0

    def test_roundtrips_through_loader(self, tmp_path):
        import fairdrop as fd
        out = tmp_path / "synth"
        run_cli(["synth", "--out", out, "--n-rows", 200, "--n-features", 3,
                 "--bias-strength", 0.6, "--seed", 4])
        schema = fd.DatasetSchema.load(out / "synthetic_schema.json")
        data = fd.load_csv(out / "synthetic.csv", schema)
        assert data.n_rows == 200
        assert set(np.unique(data.protected)) <= {0, 1}


class TestTrain:
    def test_models_and_report(self, trained):
        config, out = trained
        report = json.loads((out / "train_report.json").read_text())
        assert set(report["runs"]) == {"1", "2"}
        for run in report["runs"].values():
            for phase in ("validation", "test"):
                assert set(run[phase]) == {"eod", "f1", "accuracy"}
            assert (out / run["model_file"]).exists()
        assert report["config"]["search"]["p"] == 3.0

    def test_distinct_weights_across_seeds(self, trained):
        config, out = trained
        a = (out / "model_seed1.json").read_bytes()
        b = (out / "model_seed2.json").read_bytes()
        assert a != b

    def test_ten_seeds_pairwise_distinct_models(self, tmp_path):
        import hashlib
        config = tmp_path / "config.json"
        write_config(config, seeds=list(range(1, 11)))
        assert run_cli(["train", "--config", config]) == 0
        digests = [hashlib.sha256((tmp_path / "out" / f"model_seed{s}.json").read_bytes())
                   .hexdigest() for s in range(1, 11)]
        assert len(set(digests)) == 10

    def test_missing_config_is_operational_error(self, tmp_path):
        assert run_cli(["train", "--config", tmp_path / "absent.json"]) == 1


class TestRepair:
    def test_reports_and_defaults_echo(self, trained):
        config, out = trained
        code = run_cli(["repair", "--config", config])
        assert code in (0, 3)
        doc = json.loads((out / "repair_seed1_sa.json").read_text())
        assert doc["run"]["p"] == 3.0
        assert doc["run"]["t"] == 0.98
        assert doc["run"]["best_cost"] <= doc["run"]["initial_cost"]
        assert (out / doc["run"]["trace_file"]).exists()
        summary = json.loads((out / "repair_summary_sa.json").read_text())
        assert summary["ci_formula"].startswith("mean +/- 1.96*sd")
        assert summary["runs"] == 2

    def test_trace_has_exact_header(self, trained):
        config, out = trained
        run_cli(["repair", "--config", config, "--seeds", "1"])
        header = (out / "trace_seed1_sa.csv").read_text().split("\n", 1)[0]
        assert header == ("iteration,elapsed_ms,temperature,candidate_cost,"
                          "accepted,best_cost,hamming_weight,state_key_hex")

    def test_repair_without_model_fails_cleanly(self, tmp_path):
        config = tmp_path / "config.json"
        write_config(config)
        assert run_cli(["repair", "--config", config]) == 1

    def test_deterministic_trace_bytes(self, trained):
        config, out = trained
        run_cli(["repair", "--config", config, "--seeds", "1"])
        first = (out / "trace_seed1_sa.csv").read_bytes()
        run_cli(["repair", "--config", config, "--seeds", "1"])
        assert (out / "trace_seed1_sa.csv").read_bytes() == first

    def test_exit_code_distinguishes_failed_runs(self, tmp_path):
        # force failure: nearly all hidden neurons dropped, sky-high F1 floor
        config = tmp_path / "config.json"
        write_config(config, search={"n_l": 6, "n_u": 7, "t": 0.9999,
                                     "max_iterations": 100},
                     seeds=[1])
        assert run_cli(["train", "--config", config]) == 0
        assert run_cli(["repair", "--config", config]) == 3
        doc = json.loads((tmp_path / "out" / "repair_seed1_sa.json").read_text())
        assert doc["run"]["success"] is False

    @pytest.mark.parametrize("argv", [["repair"], ["sweep", "--p-values", "1.0"]],
                             ids=["repair", "sweep"])
    def test_zero_baseline_f1_is_said_on_stderr(self, tmp_path, capsys, argv):
        config = tmp_path / "config.json"
        write_config(config, search={"t0_mode": "worst_case"})
        out = tmp_path / "out"
        out.mkdir()
        # seed 1's output bias keeps every logit negative, so it predicts no
        # positives; seed 2's model predicts every row positive
        (out / "model_seed1.json").write_text(
            json.dumps(model_document(hidden=8, output_bias=-1000.0)))
        (out / "model_seed2.json").write_text(json.dumps(model_document(hidden=8)))
        assert run_cli(argv + ["--config", config]) == 0
        assert capsys.readouterr().err == ("seed 1: the unmasked model's validation F1 is 0, "
                                           "so every mask meets the F1 floor\n")
        if argv[0] == "repair":
            run = json.loads((out / "repair_seed1_sa.json").read_text())["run"]
            assert run["baseline"]["validation"]["f1"] == 0.0
            assert run["success"] is True


class TestMalformedInputFiles:
    @pytest.mark.parametrize("text, fragment", MALFORMED_MODEL_FILES.values(),
                             ids=MALFORMED_MODEL_FILES)
    def test_model_file_is_an_error_naming_it(self, tmp_path, capsys, text, fragment):
        config = tmp_path / "config.json"
        write_config(config)
        path = tmp_path / "out" / "model_seed1.json"
        path.parent.mkdir()
        path.write_text(text)
        assert run_cli(["oracle", "--config", config, "--seed", 1]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: ")
        assert fragment in err
        assert err.count("\n") == 1 and "Traceback" not in err

    @pytest.mark.parametrize("text, fragment", MALFORMED_SCHEMA_FILES.values(),
                             ids=MALFORMED_SCHEMA_FILES)
    def test_schema_file_is_an_error_naming_it(self, tmp_path, capsys, text, fragment):
        path = tmp_path / "schema.json"
        path.write_text(text)
        config = tmp_path / "config.json"
        cfg = write_config(config, dataset={"csv": str(tmp_path / "data.csv"),
                                            "schema": str(path)})
        del cfg["dataset"]["synth"]
        config.write_text(json.dumps(cfg))
        assert run_cli(["train", "--config", config]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: ")
        assert fragment in err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert not (tmp_path / "out").exists()


class TestSweep:
    def test_rows_flags_and_echo(self, trained):
        config, out = trained
        assert run_cli(["sweep", "--config", config, "--seeds", "1",
                        "--p-values", "0.5,1.0,3.0"]) == 0
        with open(out / "sweep.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 3
        assert [float(r["p"]) for r in rows] == [0.5, 1.0, 3.0]
        assert all(r["success"] in ("0", "1") for r in rows)
        meta = json.loads((out / "sweep.json").read_text())
        assert meta["rows"] == 3

    def test_default_p_values(self, trained):
        config, out = trained
        assert run_cli(["sweep", "--config", config, "--seeds", "1"]) == 0
        with open(out / "sweep.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [float(r["p"]) for r in rows] == [0.5, 1.0, 1.5, 2.0, 2.5, 3.0]

    def test_failed_runs_flagged_not_omitted(self, tmp_path):
        config = tmp_path / "config.json"
        write_config(config, search={"n_l": 6, "n_u": 7, "t": 0.9999,
                                     "max_iterations": 100},
                     seeds=[1])
        run_cli(["train", "--config", config])
        assert run_cli(["sweep", "--config", config, "--p-values", "3.0"]) == 0
        with open(tmp_path / "out" / "sweep.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 1
        assert rows[0]["success"] == "0"


def readme_example_config() -> dict:
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("### Experiment config", 1)[1]
    return json.loads(section.split("```json", 1)[1].split("```", 1)[0])


class TestConfig:
    def test_readme_example_is_what_omitted_keys_resolve_to(self):
        example = readme_example_config()
        resolved = resolve_config({"dataset": {"synth": {}}}, argparse.Namespace())
        # n_u follows the documented 25% rule rather than a fixed number
        assert resolved["search"].pop("n_u") is None
        assert example["search"].pop("n_u") == default_n_u(
            resolved["search"]["n_l"], sum(resolved["model"]["hidden_sizes"]))
        assert resolved == example

    def test_fully_stated_config_echoes_unchanged(self, tmp_path):
        cfg = readme_example_config()
        cfg["dataset"]["synth"].update(n_rows=600, n_features=6)
        cfg["model"] = {"hidden_sizes": [8], "train": {"learning_rate": 0.5, "epochs": 5,
                                                       "batch_size": 64,
                                                       "train_dropout_prob": 0.0}}
        cfg["seeds"] = [1]
        cfg["output_dir"] = str(tmp_path / "out")
        config = tmp_path / "config.json"
        config.write_text(json.dumps(cfg))
        assert run_cli(["train", "--config", config]) == 0
        report = json.loads((tmp_path / "out" / "train_report.json").read_text())
        assert report["config"] == cfg

    @pytest.mark.parametrize("section,override,name", [
        ("search", {"max_iteration": 50}, "search.max_iteration"),
        ("dataset", {"synth": {"n_row": 600}}, "dataset.synth.n_row"),
        ("model", {"train": {"lr": 0.1}}, "model.train.lr"),
        ("seed", 3, "seed"),
    ])
    def test_unknown_key_is_operational_error(self, tmp_path, capsys, section, override,
                                              name):
        config = tmp_path / "config.json"
        write_config(config, **{section: override})
        assert run_cli(["train", "--config", config]) == 1
        assert f"unknown config key {name}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("section,override,message", [
        ("seeds", 5, "config seeds must be a list of integers, got 5"),
        ("search", {"p": "x"}, "config search.p must be a number, got 'x'"),
        ("model", {"hidden_sizes": [8, 2.5]}, "config model.hidden_sizes must be a list"),
        ("search", {"max_iterations": 1.5}, "config search.max_iterations must be an integer"),
        ("dataset", {"synth": {"n_rows": True}}, "config dataset.synth.n_rows must be an integer"),
    ])
    def test_wrong_value_type_is_operational_error(self, tmp_path, capsys, section, override,
                                                   message):
        config = tmp_path / "config.json"
        write_config(config, **{section: override})
        assert run_cli(["train", "--config", config]) == 1
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["train", "repair", "oracle"])
    @pytest.mark.parametrize("section,override,message", [
        ("search", {"p": math.nan}, "config search.p must be a number, got nan"),
        ("search", {"time_limit_s": math.nan}, "config search.time_limit_s must be a number"),
        ("search", {"max_iterations": None, "time_limit_s": math.inf},
         "config search.time_limit_s must be a number, got inf"),
        ("search", {"t0_value": -math.inf}, "config search.t0_value must be a number"),
        ("search", {"p": 10**400}, "config search.p must be a number"),
        ("oracle", {"good_margin": math.inf}, "config oracle.good_margin must be a number"),
        ("model", {"train": {"learning_rate": math.nan}},
         "config model.train.learning_rate must be a number"),
    ])
    def test_non_finite_number_is_operational_error(self, tmp_path, capsys, command, section,
                                                    override, message):
        config = tmp_path / "config.json"
        write_config(config, **{section: override})
        assert run_cli([command, "--config", config]) == 1
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["train", "repair"])
    def test_duplicate_seeds_are_operational_error(self, tmp_path, capsys, command):
        # a repeated seed would be trained once but searched and averaged twice
        config = tmp_path / "config.json"
        write_config(config, seeds=[1, 2, 1])
        assert run_cli([command, "--config", config]) == 1
        assert "seeds list must not repeat a seed, got [1, 2, 1]" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["repair", "sweep", "oracle"])
    @pytest.mark.parametrize("setting,value,message", [
        ("target_acceptance", 1.0, "target_acceptance must lie in (0, 1)"),
        ("target_acceptance", 1.5, "target_acceptance must lie in (0, 1)"),
        ("target_acceptance", 0.0, "target_acceptance must lie in (0, 1)"),
        ("target_acceptance", -0.5, "target_acceptance must lie in (0, 1)"),
        ("t0_sample_size", 0, "t0_sample_size must be >= 1"),
        ("t0_sample_size", -3, "t0_sample_size must be >= 1"),
    ])
    def test_bad_t0_setting_is_operational_error(self, trained, capsys, command, setting,
                                                 value, message):
        config, out = trained
        cfg = json.loads(config.read_text())
        cfg["search"][setting] = value
        config.write_text(json.dumps(cfg))
        written = sorted(os.listdir(out))
        assert run_cli([command, "--config", config]) == 1
        assert f"error: {message}" in capsys.readouterr().err
        assert sorted(os.listdir(out)) == written

    def test_null_allowed_where_the_default_is_null(self):
        cfg = resolve_config({"dataset": {"synth": {}},
                              "search": {"n_u": None, "t0_value": None, "time_limit_s": 2}},
                             argparse.Namespace())
        assert cfg["search"]["time_limit_s"] == 2 and cfg["search"]["n_u"] is None

    def test_every_null_default_has_a_value_type(self):
        def null_keys(table, path=""):
            for key, default in table.items():
                name = f"{path}.{key}" if path else key
                if isinstance(default, dict):
                    yield from null_keys(default, name)
                elif default is None:
                    yield name
        assert sorted(null_keys(fairdrop.cli.DEFAULT_CONFIG)) == sorted(
            fairdrop.cli._NULLABLE_TYPES)


class TestFlagValidation:
    @pytest.mark.parametrize("argv", [
        ["repair", "--t", "1.5"],
        ["repair", "--t", "0"],
        ["repair", "--p", "-1"],
        ["repair", "--p", "nan"],
        ["repair", "--p", "inf"],
        ["repair", "--iterations", "-5"],
        ["repair", "--time-limit-s", "0"],
        ["repair", "--time-limit-s", "nan"],
        ["repair", "--time-limit-s", "inf"],
        ["repair", "--seeds", "1,x"],
        ["repair", "--seeds", "1,1"],
        ["repair", "--n-l", "-1"],
        ["sweep", "--p-values", "0.5,-2"],
        ["sweep", "--p-values", "0.5,nan"],
        ["sweep", "--p-values", "inf"],
        ["synth", "--n-rows", "50"],
        ["synth", "--n-features", "0"],
        ["synth", "--bias-strength", "1.5"],
    ], ids=" ".join)
    def test_bad_value_is_usage_error_before_any_work(self, tmp_path, capsys, argv):
        # getting past parsing would exit 1 (the config does not exist) or,
        # for synth, write to out/
        work = (["--out", tmp_path / "out"] if argv[0] == "synth"
                else ["--config", tmp_path / "absent.json"])
        with pytest.raises(SystemExit) as exc:
            run_cli(argv + work)
        assert exc.value.code == 2
        assert f"argument {argv[1]}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestOracleCommand:
    def test_report_and_delta(self, trained):
        config, out = trained
        run_cli(["repair", "--config", config, "--seeds", "1"])
        assert run_cli(["oracle", "--config", config, "--seed", "1",
                        "--sa-result", out / "repair_seed1_sa.json",
                        "--dump-costs"]) == 0
        report = json.loads((out / "oracle_report.json").read_text())
        assert report["eod_delta"] >= 0.0
        assert report["cardinality"] == report["census"]["total"]
        counts = report["census"]
        assert counts["best_count"] + counts["good_count"] + counts["bad_count"] \
            <= counts["total"]
        with open(out / "oracle_costs.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == report["cardinality"]

    def test_dump_costs_prices_each_state_once(self, trained, monkeypatch):
        config, out = trained
        original = fairdrop.search.predict_batch
        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)
        for module in (fairdrop.search, fairdrop.oracle, fairdrop.cli):
            monkeypatch.setattr(module, "predict_batch", counting)
        assert run_cli(["oracle", "--config", config, "--seed", "1", "--dump-costs"]) == 0
        report = json.loads((out / "oracle_report.json").read_text())
        cardinality, hidden_total = report["cardinality"], 8
        # the space once, the single-neuron scan, the baseline and the two
        # single-neuron reports
        assert len(calls) <= cardinality + hidden_total + 3
        dump = (out / "oracle_costs.csv").read_text()
        assert "np.float64(" not in dump
        assert len(dump.splitlines()) == cardinality + 1

    @pytest.mark.parametrize("text", ["{}", "[1]", '{"run": {"best_cost": "x"}}', "{not json",
                                      '{"best_cost": 0.1}'])
    def test_sa_result_without_best_cost_fails_before_enumerating(self, trained, capsys,
                                                                  monkeypatch, text):
        config, out = trained
        sa_result = out.parent / "not_a_result.json"
        sa_result.write_text(text)
        enumerated = []
        monkeypatch.setattr(fairdrop.cli, "price_space", lambda *a, **k: enumerated.append(1))
        assert run_cli(["oracle", "--config", config, "--seed", "1",
                        "--sa-result", sa_result]) == 1
        err = capsys.readouterr().err
        assert f"error: --sa-result {sa_result} is not" in err
        assert enumerated == []
        assert not (out / "oracle_report.json").exists()

    @pytest.mark.parametrize("flags, field", [
        (["--n-l", 1, "--n-u", 3], "bounds"),
        (["--seed", 2], "seed"),
        (["--p", 2.0], "p"),
        (["--t", 0.9], "t"),
    ], ids=["bounds", "seed", "p", "t"])
    def test_sa_result_from_another_instance_fails_before_enumerating(
            self, trained, capsys, monkeypatch, flags, field):
        config, out = trained
        assert run_cli(["repair", "--config", config, "--seeds", "1",
                        "--n-l", 2, "--n-u", 8]) in (0, 3)
        enumerated = []
        monkeypatch.setattr(fairdrop.cli, "price_space", lambda *a, **k: enumerated.append(1))
        argv = ["oracle", "--config", config, "--n-l", 2, "--n-u", 8, "--seed", 1]
        assert run_cli(argv + flags + ["--sa-result", out / "repair_seed1_sa.json"]) == 1
        err = capsys.readouterr().err
        assert f"does not match the enumerated instance: its {field} is" in err
        assert enumerated == []
        assert not (out / "oracle_report.json").exists()

    def test_fixed_weight_window_enumerates_but_does_not_search(self, trained, capsys):
        config, out = trained
        capsys.readouterr()
        assert run_cli(["oracle", "--config", config, "--n-l", 3, "--n-u", 3]) == 0
        assert capsys.readouterr().err == ""
        assert json.loads((out / "oracle_report.json").read_text())["cardinality"] == 56
        assert run_cli(["repair", "--config", config, "--n-l", 3, "--n-u", 3]) == 1
        assert ("error: state of weight 3 has no neighbors within bounds (3, 3)"
                in capsys.readouterr().err)

    def test_budget_refusal_clean(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        write_config(config, oracle={"budget": 5}, seeds=[1])
        run_cli(["train", "--config", config])
        assert run_cli(["oracle", "--config", config]) == 1
        err = capsys.readouterr().err
        assert "refusing to enumerate" in err
        assert str(sum(math.comb(8, k) for k in (2, 3, 4))) in err


class TestCsvConfigPath:
    def test_train_and_repair_from_csv(self, tmp_path):
        out = tmp_path / "synthdir"
        run_cli(["synth", "--out", out, "--n-rows", 600, "--n-features", 6,
                 "--bias-strength", 0.8, "--seed", 21])
        config = tmp_path / "config.json"
        write_config(config, dataset={"csv": str(out / "synthetic.csv"),
                                      "schema": str(out / "synthetic_schema.json")},
                     seeds=[1])
        # encoded width: 6 features + the protected column kept as an input
        cfg = json.loads(config.read_text())
        del cfg["dataset"]["synth"]
        config.write_text(json.dumps(cfg))
        assert run_cli(["train", "--config", config]) == 0
        assert run_cli(["repair", "--config", config]) in (0, 3)
        doc = json.loads((tmp_path / "out" / "repair_seed1_sa.json").read_text())
        assert doc["run"]["best_cost"] <= doc["run"]["initial_cost"]


class TestTimeLimitFlag:
    def test_time_limit_flag_enables_timed_mode(self, trained):
        config, out = trained
        assert run_cli(["repair", "--config", config, "--seeds", "1",
                        "--time-limit-s", "0.2"]) in (0, 3)
        doc = json.loads((out / "repair_seed1_sa.json").read_text())
        assert doc["config"]["search"]["time_limit_s"] == 0.2
        with open(out / "trace_seed1_sa.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert any(float(r["elapsed_ms"]) > 0.0 for r in rows)


class TestSummaryStatistics:
    def test_mean_ci_hand_check(self):
        # pinned per-seed values, spreadsheet-style recomputation
        values = [0.10, 0.12, 0.08, 0.11, 0.09]
        out = mean_ci(values)
        mean = sum(values) / 5
        sd = math.sqrt(sum((v - mean) ** 2 for v in values) / 4)
        assert out["mean"] == pytest.approx(0.10, abs=1e-12)
        assert out["ci95"] == pytest.approx(1.96 * sd / math.sqrt(5), abs=1e-12)
        assert out["n"] == 5

    def test_single_value_ci_zero(self):
        assert mean_ci([0.5]) == {"mean": 0.5, "ci95": 0.0, "n": 1}


class TestAtomicWrites:
    def test_no_temp_files_left(self, trained):
        config, out = trained
        run_cli(["repair", "--config", config, "--seeds", "1"])
        leftovers = [f for f in os.listdir(out) if f.startswith(".tmp-")]
        assert leftovers == []
