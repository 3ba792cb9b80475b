"""Correctness checks on the reports a workload's commands leave on disk.

Each check returns a list of problems (empty when the outputs are correct).
Expected values come from the reference pricer and from the method's own
properties as the README states them, never from a stored copy of earlier
output.
"""

from __future__ import annotations

import csv
import json
import math
import os
from itertools import combinations

from .reference import ReferenceModel, ReferencePricer, SplitMetrics, split_metrics

TRACE_HEADER = ["iteration", "elapsed_ms", "temperature", "candidate_cost",
                "accepted", "best_cost", "hamming_weight", "state_key_hex"]
DUMP_HEADER = ["state_key_hex", "cost", "eod", "f1"]
SAMPLED_ROWS = 48


def _as_report(m: SplitMetrics) -> dict:
    return {"eod": "undefined" if m.eod is None else m.eod, "f1": m.f1, "accuracy": m.accuracy}


def _compare(problems: list, what: str, got, want) -> None:
    if got != want:
        problems.append(f"{what}: reported {got!r}, expected {want!r}")


def _load_json(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def check_config_echo(problems: list, doc: dict, requested: dict, what: str) -> None:
    """The resolved config a report echoes must be exactly the one asked for:
    every key is stated, so a default or a misspelled key shows as a
    difference."""
    if doc.get("config") != requested:
        problems.append(f"{what}: echoed config differs from the requested one: "
                        f"{doc.get('config')!r} != {requested!r}")


def check_repair(out_dir: str, cfg: dict, alg: str, seed: int, pricer: ReferencePricer,
                 test_split, sample_rng) -> list[str]:
    """Repair report and trace of one (seed, algorithm) search."""
    problems: list[str] = []
    s = cfg["search"]
    model = pricer.model
    doc = _load_json(os.path.join(out_dir, f"repair_seed{seed}_{alg}.json"))
    check_config_echo(problems, doc, cfg, "repair report")
    run = doc["run"]
    for key, want in (("seed", seed), ("alg_type", alg), ("p", s["p"]), ("t", s["t"]),
                      ("bounds", {"n_l": s["n_l"], "n_u": s["n_u"]})):
        _compare(problems, key, run[key], want)

    best_bits = int(run["best_state_hex"], 16)
    _compare(problems, "dropped_per_layer", run["dropped_per_layer"],
             model.dropped_per_layer(best_bits))
    test_baseline = split_metrics(model.predict(test_split.features), test_split.labels,
                                  test_split.protected)
    test_repaired = split_metrics(model.predict(test_split.features, best_bits),
                                  test_split.labels, test_split.protected)
    repaired = pricer.metrics(best_bits)
    _compare(problems, "baseline validation", run["baseline"]["validation"],
             _as_report(pricer.baseline))
    _compare(problems, "baseline test", run["baseline"]["test"], _as_report(test_baseline))
    _compare(problems, "repaired validation", run["repaired"]["validation"],
             _as_report(repaired))
    _compare(problems, "repaired test", run["repaired"]["test"], _as_report(test_repaired))
    _compare(problems, "best_cost", run["best_cost"], pricer.cost(repaired))
    _compare(problems, "success", run["success"], repaired.f1 >= s["t"] * pricer.baseline.f1)

    with open(os.path.join(out_dir, run["trace_file"]), newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    _compare(problems, "trace header", rows[0], TRACE_HEADER)
    rows = rows[1:]
    _compare(problems, "trace rows", len(rows), s["max_iterations"])
    problems += _check_trace(rows, run, s, alg)
    if rows:
        for i in sorted(sample_rng.sample(range(len(rows)), min(SAMPLED_ROWS, len(rows)))):
            bits = int(rows[i][7], 16)
            _compare(problems, f"trace row {i} candidate_cost", float(rows[i][3]),
                     pricer.price(bits)[0])
    return problems


def _check_trace(rows: list, run: dict, s: dict, alg: str) -> list[str]:
    """Invariants of the search loop, row by row."""
    problems: list[str] = []
    t0 = run["t0"]
    best = run["initial_cost"]
    current_cost = run["initial_cost"]
    current_bits = None  # the initial state is not in the outputs
    first_candidates = set()
    for i, row in enumerate(rows):
        if len(problems) >= 10:
            problems.append("further trace problems not listed")
            break
        it, elapsed, temp, cand, accepted, best_col, weight, key = row
        cand = float(cand)
        bits = int(key, 16)
        if int(it) != i or float(elapsed) != 0.0:
            problems.append(f"row {i}: iteration {it}, elapsed_ms {elapsed}")
        if float(temp) != t0 / math.log(2 + i):
            problems.append(f"row {i}: temperature {temp} off the schedule t0/ln(2+m)")
        if int(weight) != bits.bit_count() or not s["n_l"] <= int(weight) <= s["n_u"]:
            problems.append(f"row {i}: weight {weight} of key {key} outside "
                            f"[{s['n_l']}, {s['n_u']}] or not its popcount")
        if current_bits is None:
            first_candidates.add(bits)
        elif (bits ^ current_bits).bit_count() != 1:
            problems.append(f"row {i}: candidate {key} is not one flip from the current state")
        finite = math.isfinite(cand)
        if accepted not in ("0", "1"):
            problems.append(f"row {i}: accepted {accepted!r}")
        took = accepted == "1"
        if not finite and took:
            problems.append(f"row {i}: undefined-cost candidate accepted")
        if finite and cand <= current_cost and not took:
            problems.append(f"row {i}: downhill move rejected")
        if alg == "rw" and finite and not took:
            problems.append(f"row {i}: random walk rejected a finite-cost candidate")
        if took:
            current_bits, current_cost = bits, cand
        if finite and cand <= best:
            best = cand
        if float(best_col) != best:
            problems.append(f"row {i}: best_cost {best_col}, expected {best!r}")
    # candidates drawn before the first acceptance are all neighbours of the
    # initial state, so any two of them are at most two flips apart
    if any((a ^ b).bit_count() > 2 for a, b in combinations(first_candidates, 2)):
        problems.append("candidates before the first acceptance do not share a neighbour")
    if rows and float(rows[-1][5]) != run["best_cost"]:
        problems.append(f"last trace best_cost {rows[-1][5]} != reported {run['best_cost']!r}")
    return problems


def check_oracle(out_dir: str, cfg: dict, seed: int, pricer: ReferencePricer, test_split,
                 sample_rng) -> list[str]:
    """Oracle report and per-state cost dump."""
    problems: list[str] = []
    s = cfg["search"]
    model = pricer.model
    n = model.n_hidden
    report = _load_json(os.path.join(out_dir, "oracle_report.json"))
    check_config_echo(problems, report, cfg, "oracle report")
    cardinality = sum(math.comb(n, k) for k in range(s["n_l"], s["n_u"] + 1))
    _compare(problems, "seed", report["seed"], seed)
    _compare(problems, "cardinality", report["cardinality"], cardinality)

    with open(os.path.join(out_dir, "oracle_costs.csv"), newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    _compare(problems, "dump header", rows[0], DUMP_HEADER)
    rows = rows[1:]
    _compare(problems, "dump rows", len(rows), cardinality)
    dump = {}
    for key, cost, eod, f1 in rows:
        bits = int(key, 16)
        if bits >= 1 << n or not s["n_l"] <= bits.bit_count() <= s["n_u"]:
            problems.append(f"dump key {key} outside the window")
        dump[bits] = (float(cost), None if eod == "undefined" else float(eod), float(f1))
    _compare(problems, "distinct dump keys", len(dump), len(rows))
    if not dump:
        return problems + ["empty dump"]

    optimum = min(c for c, _, _ in dump.values())
    first_optimal = min(bits for bits, (c, _, _) in dump.items() if c == optimum)
    _compare(problems, "optimal_cost", report["optimal_cost"], optimum)
    _compare(problems, "optimal_state_hex", int(report["optimal_state_hex"], 16), first_optimal)

    floor = pricer.f1_floor
    margin = cfg["oracle"]["good_margin"]
    best = good = bad = 0
    for c, _, f1 in dump.values():
        if f1 < floor:
            bad += 1
        elif c == optimum:
            best += 1
        elif c <= optimum + margin:
            good += 1
    total = len(dump)
    _compare(problems, "census", report["census"], {
        "best_count": best, "best_likelihood": best / total,
        "good_count": good, "good_likelihood": good / total,
        "bad_count": bad, "bad_likelihood": bad / total,
        "total": total, "optimal_cost": optimum, "good_margin": margin, "f1_floor": floor,
    })

    keys = sorted(dump)
    for bits in [first_optimal] + sample_rng.sample(keys, min(SAMPLED_ROWS, len(keys))):
        _compare(problems, f"dump row {bits:04x}", dump[bits], pricer.price(bits))

    single = report["single_neuron_baseline"]
    singles = sorted((dump[1 << i][0], i) for i in range(n) if (1 << i) in dump)
    if not singles:
        return problems + ["window holds no weight-1 states"]
    cost1, index1 = singles[0]
    _compare(problems, "single-neuron cost", single["cost"], cost1)
    _compare(problems, "single-neuron index", single["neuron_index"], index1)
    _compare(problems, "single-neuron (layer, unit)", (single["layer"], single["unit"]),
             model.neuron_order[index1])
    if not single["cost"] >= report["optimal_cost"]:
        problems.append("single-neuron baseline beats the enumerated optimum")
    _compare(problems, "single-neuron validation", single["validation"],
             _as_report(pricer.metrics(1 << index1)))
    _compare(problems, "single-neuron test", single["test"], _as_report(split_metrics(
        model.predict(test_split.features, 1 << index1), test_split.labels,
        test_split.protected)))
    return problems


def reference_for(out_dir: str, cfg: dict, seed: int, parts) -> ReferencePricer:
    """Reference pricer on the validation split of one trained seed."""
    model = ReferenceModel(os.path.join(out_dir, f"model_seed{seed}.json"))
    v = parts.validation
    return ReferencePricer(model, v.features, v.labels, v.protected,
                           p=cfg["search"]["p"], t=cfg["search"]["t"])
