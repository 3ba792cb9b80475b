"""Tests of the benchmark's own parts: the reference pricer, the output checks
and the tracer.

    PYTHONPATH=src python -m pytest perfbench -q
"""

import dataclasses
import json
import os
import random
import shutil
import subprocess
import sys
import time

import numpy as np
import pytest

import fairdrop as fd
from fairdrop import cli
from fairdrop.oracle import iter_states
from fairdrop.search import CostEvaluator

from perfbench import calibration, checks, tracer, workloads
from perfbench.reference import ReferenceModel, ReferencePricer

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_reference_agrees_with_fairdrop_on_every_demo_state(tmp_path):
    """The 2,500-state space of demos/04_oracle_census.py, priced both ways."""
    data = fd.synthesize_biased(1500, 6, 0.8, seed=21)
    parts = fd.split(data, 5)
    model = fd.train(parts, fd.MlpArchitecture((6, 8, 8, 1)),
                     fd.TrainConfig(learning_rate=0.3, epochs=25, batch_size=64,
                                    train_dropout_prob=0.1, seed=4))
    params = fd.baseline_cost_params(model, parts.validation, p=3.0, t=0.98)
    fd.save_model(model, tmp_path / "model.json")
    v = parts.validation
    pricer = ReferencePricer(ReferenceModel(tmp_path / "model.json"), v.features, v.labels,
                             v.protected, p=3.0, t=0.98)
    assert (pricer.baseline.eod, pricer.baseline.f1) == (params.eod_baseline,
                                                         params.f1_baseline)
    evaluator = CostEvaluator(model, v, params)
    states = list(iter_states(fd.SearchSpaceBounds(16, 2, 4)))
    assert len(states) == 2500
    for state in states:
        ev = evaluator.evaluate(state)
        assert pricer.price(state.bits) == (ev.cost, ev.eod, ev.f1), state.key_hex()


def test_reference_thresholds_the_probability_not_the_logit(tmp_path):
    """A logit in [-4.4e-17, 0) has probability exactly 0.5: label 1."""
    doc = {"format_version": 1, "layer_sizes": [1, 1, 1], "neuron_order": [[0, 0]],
           "layers": [{"weights": [[1.0]], "bias": [0.0]},
                      {"weights": [[1.0]], "bias": [-3e-17]}]}
    (tmp_path / "m.json").write_text(json.dumps(doc))
    x = np.zeros((1, 1))
    assert ReferenceModel(tmp_path / "m.json").predict(x).tolist() == [1]
    assert fd.predict_batch(fd.load_model(tmp_path / "m.json"), x).tolist() == [1]


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    """The census instance trained and run through the CLI on small windows."""
    out = str(tmp_path_factory.mktemp("run"))
    sa = workloads.Workload(workloads.CENSUS_INSTANCE, {"n_l": 1, "n_u": 2, "max_iterations": 400},
                            "sa", seeds=1, setups=1)
    seed = 3
    cfgs = {}
    for name, command, wl in (("train", ["train"], sa), ("sa", ["repair"], sa),
                              ("rw", ["repair"], dataclasses.replace(sa, alg="rw")),
                              ("oracle", ["oracle", "--dump-costs"],
                               dataclasses.replace(sa, alg=None))):
        cfgs[name] = wl.config([seed], out)
        path = os.path.join(out, f"{name}.json")
        with open(path, "w") as fh:
            json.dump(cfgs[name], fh)
        code, err = workloads.call_cli(cli, command + ["--config", path])
        assert code == 0, err
    synth = cfgs["train"]["dataset"]["synth"]
    parts = fd.split(fd.synthesize_biased(synth["n_rows"], synth["n_features"],
                                          synth["bias_strength"], synth["seed"]), seed)
    pricer = checks.reference_for(out, cfgs["train"], seed, parts)
    return {"out": out, "cfgs": cfgs, "seed": seed, "pricer": pricer, "test": parts.test}


def _copy(run, tmp_path):
    out = str(tmp_path / "copy")
    shutil.copytree(run["out"], out)
    return out


def _repair_problems(run, out, alg):
    return checks.check_repair(out, run["cfgs"][alg], alg, run["seed"], run["pricer"],
                               run["test"], random.Random(0))


def _oracle_problems(run, out):
    return checks.check_oracle(out, run["cfgs"]["oracle"], run["seed"], run["pricer"],
                               run["test"], random.Random(0))


def test_checks_pass_on_true_outputs(small_run):
    for alg in ("sa", "rw"):
        assert _repair_problems(small_run, small_run["out"], alg) == []
    assert _oracle_problems(small_run, small_run["out"]) == []


def _edit(path, edit):
    with open(path) as fh:
        text = fh.read()
    with open(path, "w") as fh:
        fh.write(edit(text))


def test_checks_catch_a_changed_config_echo(small_run, tmp_path):
    out = _copy(small_run, tmp_path)
    _edit(os.path.join(out, "repair_seed3_sa.json"),
          lambda t: t.replace('"max_iterations": 400', '"max_iterations": 401'))
    assert any("echoed config" in p for p in _repair_problems(small_run, out, "sa"))


def test_checks_catch_a_wrong_trace_row(small_run, tmp_path):
    out = _copy(small_run, tmp_path)
    path = os.path.join(out, "trace_seed3_rw.csv")
    with open(path) as fh:
        lines = fh.read().splitlines()
    cells = lines[5].split(",")
    cells[4] = "0"  # a random walk rejecting a finite-cost move
    lines[5] = ",".join(cells)
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    assert any("random walk rejected" in p for p in _repair_problems(small_run, out, "rw"))


def test_checks_catch_a_wrong_census(small_run, tmp_path):
    out = _copy(small_run, tmp_path)
    path = os.path.join(out, "oracle_report.json")
    with open(path) as fh:
        report = json.load(fh)
    report["census"]["bad_count"] += 1
    report["optimal_cost"] += 1e-12
    with open(path, "w") as fh:
        json.dump(report, fh)
    problems = _oracle_problems(small_run, out)
    assert any(p.startswith("census") for p in problems)
    assert any(p.startswith("optimal_cost") for p in problems)


def test_exit_3_fails_only_the_searches_below_the_floor(tmp_path):
    for seed, success in ((1, True), (2, False)):
        (tmp_path / f"repair_seed{seed}_sa.json").write_text(
            json.dumps({"run": {"success": success}}))
    command = workloads.Command("repair sa", [], {"search": {"alg_type": "sa"}}, [1, 2], [])
    calls = [workloads.Call(3, "", 1.0, {"f": "x"}) for _ in range(3)]
    outcome = workloads.Outcome()
    workloads._account(command, calls, str(tmp_path), lambda s: [], outcome)
    assert (outcome.attempted, outcome.failed, outcome.correct) == (6, 3, True)


def test_a_round_unlike_the_last_fails_all_its_operations():
    command = workloads.Command("repair sa", [], {"search": {"alg_type": "sa"}}, [1, 2], [])
    calls = [workloads.Call(0, "", 1.0, {"f": "x"}), workloads.Call(0, "", 1.0, {"f": "y"}),
             workloads.Call(0, "", 1.0, {"f": "y"})]
    outcome = workloads.Outcome()
    workloads._account(command, calls, "", lambda s: ["wrong"] if s == 2 else [], outcome)
    assert (outcome.attempted, outcome.failed) == (6, 2 + 1 + 1)
    assert any("round 1" in p for p in outcome.problems)


def test_scaling_takes_out_the_machine_speed():
    ref = calibration.REFERENCE_S
    assert workloads.scaled(workloads.Call(0, "", 3.0, {}, [ref, ref])) == pytest.approx(3.0)
    # the same work on a machine running at half speed reads the same
    slow = workloads.Call(0, "", 6.0, {}, [2 * ref, 1.5 * ref, 2.5 * ref])
    assert workloads.scaled(slow) == pytest.approx(3.0)


def test_a_calibrated_call_is_paused_for_the_job_and_not_charged_for_it(tmp_path):
    class BusyCli:  # computes for 2.5 intervals of its own CPU time
        @staticmethod
        def main(argv):
            end = time.process_time() + 2.5 * calibration.INTERVAL_S
            while time.process_time() < end:
                pass
            return 0

    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {max(cpus)})  # as run.py does
    try:
        with calibration.Yardstick() as yardstick:
            call = workloads.call_in_child(BusyCli, [], [], None, str(tmp_path), yardstick)
    finally:
        os.sched_setaffinity(0, cpus)
    assert call.code == 0 and len(call.job_s) >= 3  # two pauses or more, one job after
    assert call.seconds == pytest.approx(2.5 * calibration.INTERVAL_S, rel=0.05)


def test_the_yardstick_measures_in_a_child_and_ends_it():
    with calibration.Yardstick() as yardstick:
        assert yardstick.measure() > 0 and yardstick.measure() > 0
        pid = yardstick.pid
        assert pid != os.getpid()
    with pytest.raises(ChildProcessError):
        os.waitpid(pid, 0)


def test_a_child_call_returns_its_exit_code_and_spans(tmp_path):
    t = tracer.Tracer()
    undo = tracer.install(t)
    try:
        with t.span(tracer.ROUND):
            call = workloads.call_in_child(
                cli, ["oracle", "--config", str(tmp_path / "missing.json")], [], t,
                str(tmp_path))
    finally:
        tracer.uninstall(undo)
    assert call.code == 1 and "missing.json" in call.err and call.seconds > 0
    spans = tracer.Spans(t)
    assert [spans.names[i] for i in spans.nid] == [tracer.ROUND, "cli.main"]
    assert spans.parent.tolist() == [-1, 0]
    assert list(tmp_path.iterdir()) == []


def test_self_time_is_duration_minus_children():
    t = tracer.Tracer()
    with t.span(tracer.ROUND) as root:
        with t.span("cli.main") as outer:
            with t.span("model.predict") as inner:
                pass
    for idx, (start, end) in ((root, (0.0, 10.0)), (outer, (1.0, 9.0)), (inner, (2.0, 5.0))):
        t.start[idx], t.end[idx] = start, end
    spans = tracer.Spans(t)
    assert spans.self_time.tolist() == [2.0, 5.0, 3.0]
    assert spans.under("cli.main").tolist() == [False, False, True]
    assert tracer.per_layer_metrics(spans)["cli.self_s"] == 5.0


def test_install_wraps_every_binding_and_uninstall_restores_them():
    original = fd.model.predict_batch
    t = tracer.Tracer()
    undo = tracer.install(t)
    try:
        assert fd.search.predict_batch is fd.oracle.predict_batch is cli.predict_batch
        assert cli.predict_batch is not original
    finally:
        tracer.uninstall(undo)
    assert fd.search.predict_batch is fd.oracle.predict_batch is cli.predict_batch is original


def test_metric_names_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    per_layer = tracer.per_layer_metrics(tracer.Spans(tracer.Tracer()))
    assert sorted(per_layer) == sorted(m["name"] for m in spec["per_layer"])
    outcome = workloads.Outcome(setup_s=[1.0], round_s=[2.0], work_per_round=10)
    e2e = workloads.end_to_end(outcome, peak_rss_mb=1.0)
    assert sorted(e2e) == sorted(m["name"] for m in spec["end_to_end"])
    assert sorted(workloads.WORKLOADS) == sorted(w["name"] for w in spec["workloads"])


def test_run_fails_without_the_program_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("runs", "__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "oracle_census",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120,
                          env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})
    assert proc.returncode != 0
    assert proc.stdout == ""
