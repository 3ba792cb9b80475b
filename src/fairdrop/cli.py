"""Command-line front end: synth, train, repair, sweep, and oracle runs.

Every command reads a JSON experiment config (sections ``dataset``,
``model``, ``search``, ``oracle``, plus ``seeds`` and ``output_dir``) and
accepts flag overrides; flags win over file values.  All machine-readable
outputs embed the fully resolved config, and every file is written
atomically.  Exit codes: 0 on success, 1 on operational errors, 2 on usage
errors, and 3 from ``repair`` when at least one run finished below the F1
floor.
"""

from __future__ import annotations

import argparse
import copy
import io
import json
import math
import os
import sys

import numpy as np

from . import __version__
from .dataset import (MIN_SYNTH_FEATURES, MIN_SYNTH_ROWS, DatasetSchema, SplitDataset,
                      TabularDataset, load_csv, split, synthesize_biased)
from .ioutil import atomic_write_text
from .metrics import prediction_metrics
from .model import (MlpArchitecture, MlpModel, TrainConfig, load_model, predict_batch,
                    save_model, train)
from .oracle import (DEFAULT_ENUMERATION_BUDGET, EnumerationBudgetError, price_space,
                     single_neuron_baseline)
from .search import (SearchConfig, SearchResult, SearchSpaceBounds, baseline_cost_params,
                     run_search, write_trace_csv)

DEFAULT_SEEDS = list(range(1, 11))
# What an omitted config key resolves to (the README's example config); a key
# absent from this table is rejected.  ``dataset`` keeps only the keys given:
# either ``synth`` or ``csv`` + ``schema``.
DEFAULT_CONFIG = {
    "dataset": {
        "synth": {"n_rows": 10_000, "n_features": 10, "bias_strength": 0.8, "seed": 7},
        "csv": None,
        "schema": None,
    },
    "model": {
        "hidden_sizes": [16, 16],
        "train": {"learning_rate": 0.3, "epochs": 30, "batch_size": 128,
                  "train_dropout_prob": 0.1},
    },
    "search": {
        "alg_type": "sa", "p": 3.0, "t": 0.98, "n_l": 2,
        "n_u": None,  # None -> 25% of hidden neurons, at least n_l + 1
        "max_iterations": None, "time_limit_s": None,  # both None -> 20,000 iterations
        "t0_mode": "ben_ameur", "t0_value": None,
        "target_acceptance": 0.75, "t0_sample_size": 100,
    },
    "oracle": {"budget": DEFAULT_ENUMERATION_BUDGET, "good_margin": 0.05},
    "seeds": DEFAULT_SEEDS,
    "output_dir": "out",
}
DEFAULT_SWEEP_P_VALUES = (0.5, 1.0, 1.5, 2.0, 2.5, 3.0)
CI_FORMULA = "mean +/- 1.96*sd/sqrt(n), sample sd (ddof=1)"


class CliError(RuntimeError):
    """Operational CLI failure, reported on stderr with exit code 1."""


# ---------------------------------------------------------------- config

def load_config(path) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise CliError(f"config file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise CliError(f"config file {path} is not valid JSON: {exc}") from exc


# The value type of each key whose default is None; a None value stays allowed.
_NULLABLE_TYPES = {"dataset.csv": str, "dataset.schema": str, "search.n_u": int,
                   "search.max_iterations": int, "search.time_limit_s": float,
                   "search.t0_value": float}
_TYPE_NAMES = {int: "an integer", float: "a number", str: "a string",
               list: "a list of integers"}


def _has_type(value, kind) -> bool:
    if isinstance(value, bool):
        return False
    if kind is float:
        # NaN, the infinities and integers past float range all fail the bound
        return isinstance(value, (int, float)) and abs(value) <= sys.float_info.max
    if kind is list:
        return isinstance(value, list) and all(_has_type(v, int) for v in value)
    return isinstance(value, kind)


def _with_defaults(raw, defaults: dict, path: str) -> dict:
    """``raw`` with omitted keys filled from ``defaults``, nested sections
    too; a key the table does not hold, or a value of another type than its
    default's, is an error naming its path."""
    def name(key):
        return f"{path}.{key}" if path else key

    if not isinstance(raw, dict):
        raise CliError(f"config {path or 'file'} must be a JSON object")
    for key, value in raw.items():
        if key not in defaults:
            raise CliError(f"unknown config key {name(key)}")
        default = defaults[key]
        if isinstance(default, dict) or (default is None and value is None):
            continue
        kind = _NULLABLE_TYPES[name(key)] if default is None else type(default)
        if not _has_type(value, kind):
            raise CliError(f"config {name(key)} must be {_TYPE_NAMES[kind]}, got {value!r}")
    cfg = {}
    for key, default in defaults.items():
        if path == "dataset" and key not in raw:
            continue
        cfg[key] = (_with_defaults(raw.get(key, {}), default, name(key))
                    if isinstance(default, dict) else copy.deepcopy(raw.get(key, default)))
    return cfg


def resolve_config(raw: dict, args) -> dict:
    """Fill defaults, reject unknown keys and apply flag overrides (flags win)."""
    cfg = _with_defaults(raw, DEFAULT_CONFIG, "")
    search = cfg["search"]
    if getattr(args, "seeds", None):
        cfg["seeds"] = list(args.seeds)
    if getattr(args, "out", None):
        cfg["output_dir"] = args.out
    for flag, key in (("alg", "alg_type"), ("p", "p"), ("t", "t"),
                      ("n_l", "n_l"), ("n_u", "n_u"),
                      ("iterations", "max_iterations"), ("time_limit_s", "time_limit_s")):
        value = getattr(args, flag, None)
        if value is not None:
            search[key] = value
    # only after flag overrides: a stopping criterion must exist, and the
    # deterministic iteration cap is the default one
    if search["max_iterations"] is None and search["time_limit_s"] is None:
        search["max_iterations"] = 20_000
    if not cfg["seeds"]:
        raise CliError("seeds list must not be empty")
    if len(set(cfg["seeds"])) != len(cfg["seeds"]):
        raise CliError(f"seeds list must not repeat a seed, got {cfg['seeds']}")
    return cfg


def default_n_u(n_l: int, hidden_total: int) -> int:
    return max(n_l + 1, math.ceil(0.25 * hidden_total))


def build_dataset(cfg: dict) -> TabularDataset:
    ds = cfg["dataset"]
    if "synth" in ds:
        s = ds["synth"]
        return synthesize_biased(int(s["n_rows"]), int(s["n_features"]),
                                 float(s["bias_strength"]), int(s["seed"]))
    if "csv" in ds:
        if "schema" not in ds:
            raise CliError("dataset.csv needs a companion dataset.schema path")
        return load_csv(ds["csv"], DatasetSchema.load(ds["schema"]))
    raise CliError("config needs dataset.synth parameters or dataset.csv + dataset.schema")


def model_path(cfg: dict, seed: int) -> str:
    return os.path.join(cfg["output_dir"], f"model_seed{seed}.json")


def search_config(cfg: dict, seed: int, hidden_total: int, params) -> SearchConfig:
    s = cfg["search"]
    n_l = int(s["n_l"])
    n_u = int(s["n_u"]) if s["n_u"] is not None else default_n_u(n_l, hidden_total)
    return SearchConfig(
        alg_type=s["alg_type"],
        bounds=SearchSpaceBounds(n_total=hidden_total, n_l=n_l, n_u=n_u),
        cost_params=params,
        seed=seed,
        max_iterations=(None if s.get("max_iterations") is None else int(s["max_iterations"])),
        time_limit_s=(None if s.get("time_limit_s") is None else float(s["time_limit_s"])),
        t0_mode=s["t0_mode"],
        t0_value=s.get("t0_value"),
        target_acceptance=float(s["target_acceptance"]),
        t0_sample_size=int(s["t0_sample_size"]),
    )


def write_json(path, payload: dict) -> None:
    atomic_write_text(path, json.dumps(payload, indent=1, sort_keys=True) + "\n")


def _split_reports(model: MlpModel, parts: SplitDataset, mask=None) -> dict:
    """EOD / F1 / accuracy of the (masked) model on the validation and test splits."""
    reports = {}
    for name, data in (("validation", parts.validation), ("test", parts.test)):
        preds = predict_batch(model, data, mask)
        reports[name] = prediction_metrics(preds, data.labels, data.protected).to_dict()
    return reports


def mean_ci(values) -> dict:
    arr = np.asarray(values, dtype=np.float64)
    mean = float(arr.mean())
    if len(arr) < 2:
        return {"mean": mean, "ci95": 0.0, "n": int(len(arr))}
    sd = float(arr.std(ddof=1))
    return {"mean": mean, "ci95": 1.96 * sd / math.sqrt(len(arr)), "n": int(len(arr))}


# ---------------------------------------------------------------- commands

def cmd_synth(args) -> int:
    data = synthesize_biased(args.n_rows, args.n_features, args.bias_strength, args.seed)
    os.makedirs(args.out, exist_ok=True)
    buf = io.StringIO()
    header = list(data.feature_names) + ["group", "label"]
    buf.write(",".join(header) + "\n")
    for i in range(data.n_rows):
        cells = [repr(float(v)) for v in data.features[i]]
        cells.append(str(int(data.protected[i])))
        cells.append(str(int(data.labels[i])))
        buf.write(",".join(cells) + "\n")
    csv_path = os.path.join(args.out, "synthetic.csv")
    atomic_write_text(csv_path, buf.getvalue())
    schema = DatasetSchema(
        column_names=tuple(header),
        categorical_columns=frozenset(),
        numerical_columns=frozenset(data.feature_names),
        protected_column="group",
        protected_values={"0": 0, "1": 1},
        label_column="label",
        label_values={"0": 0, "1": 1},
        scaling="min_max",
        drop_protected_from_features=False,
    )
    schema.dump(os.path.join(args.out, "synthetic_schema.json"))
    print(f"wrote {csv_path} ({data.n_rows} rows, {len(data.feature_names)} features) "
          f"and synthetic_schema.json")
    return 0


def cmd_train(args) -> int:
    cfg = resolve_config(load_config(args.config), args)
    data = build_dataset(cfg)
    out = cfg["output_dir"]
    os.makedirs(out, exist_ok=True)
    hidden = [int(h) for h in cfg["model"]["hidden_sizes"]]
    arch = MlpArchitecture(tuple([data.features.shape[1]] + hidden + [1]))
    tr = cfg["model"]["train"]
    per_seed = {}
    for seed in cfg["seeds"]:
        parts = split(data, seed)
        model = train(parts, arch, TrainConfig(
            learning_rate=float(tr["learning_rate"]),
            epochs=int(tr["epochs"]),
            batch_size=int(tr["batch_size"]),
            train_dropout_prob=float(tr["train_dropout_prob"]),
            seed=seed,
        ))
        path = model_path(cfg, seed)
        save_model(model, path)
        per_seed[str(seed)] = {"model_file": os.path.basename(path),
                               **_split_reports(model, parts)}
        v, t = per_seed[str(seed)]["validation"], per_seed[str(seed)]["test"]
        print(f"seed {seed}: val EOD {_pct(v['eod'])} F1 {v['f1']:.3f} acc {v['accuracy']:.3f} "
              f"| test EOD {_pct(t['eod'])} F1 {t['f1']:.3f} acc {t['accuracy']:.3f}")
    write_json(os.path.join(out, "train_report.json"),
               {"config": cfg, "runs": per_seed})
    print(f"wrote {len(per_seed)} model file(s) and train_report.json to {out}")
    return 0


def _pct(value) -> str:
    return "undefined" if value == "undefined" else f"{100.0 * value:.3f}%"


def _load_instance(cfg: dict, data: TabularDataset, seed: int) -> tuple[SplitDataset, MlpModel]:
    parts = split(data, seed)
    path = model_path(cfg, seed)
    if not os.path.exists(path):
        raise CliError(f"model file {path} not found; run `train` first")
    return parts, load_model(path)


def _repair_one(cfg: dict, data: TabularDataset, seed: int,
                p: float | None = None) -> tuple[SearchResult, dict]:
    """One seed's search: its result and its report record."""
    parts, model = _load_instance(cfg, data, seed)
    s = cfg["search"]
    params = baseline_cost_params(model, parts.validation,
                                  p=float(s["p"] if p is None else p), t=float(s["t"]))
    if params.f1_baseline == 0:
        print(f"seed {seed}: the unmasked model's validation F1 is 0, so every mask "
              f"meets the F1 floor", file=sys.stderr)
    config = search_config(cfg, seed, model.hidden_total, params)
    result = run_search(model, parts.validation, config)
    dropped = model.masked_units_per_layer(result.best_state)
    return result, {
        "seed": seed,
        "alg_type": config.alg_type,
        "p": params.p,
        "t": params.t,
        "bounds": {"n_l": config.bounds.n_l, "n_u": config.bounds.n_u},
        "t0": result.t0,
        "best_state_hex": result.best_state.key_hex(),
        "dropped_per_layer": dropped,
        "best_cost": result.best_cost,
        "initial_cost": result.initial_cost,
        "success": result.success,
        "evaluations": result.evaluations,
        "baseline": _split_reports(model, parts),
        "repaired": _split_reports(model, parts, result.best_state),
    }


def cmd_repair(args) -> int:
    cfg = resolve_config(load_config(args.config), args)
    data = build_dataset(cfg)
    out = cfg["output_dir"]
    os.makedirs(out, exist_ok=True)
    alg = cfg["search"]["alg_type"]
    records = []
    for seed in cfg["seeds"]:
        result, record = _repair_one(cfg, data, seed)
        trace_file = os.path.join(out, f"trace_seed{seed}_{alg}.csv")
        write_trace_csv(trace_file, result.trace)
        record["trace_file"] = os.path.basename(trace_file)
        write_json(os.path.join(out, f"repair_seed{seed}_{alg}.json"),
                   {"config": cfg, "run": record})
        records.append(record)
        rep, base = record["repaired"], record["baseline"]
        print(f"seed {seed}: {'ok' if record['success'] else 'FAILED F1 floor'} "
              f"| val EOD {_pct(base['validation']['eod'])} -> {_pct(rep['validation']['eod'])} "
              f"| val F1 {base['validation']['f1']:.3f} -> {rep['validation']['f1']:.3f}")

    summary = {
        "config": cfg,
        "ci_formula": CI_FORMULA,
        "seeds": cfg["seeds"],
        "successes": sum(1 for r in records if r["success"]),
        "runs": len(records),
    }
    for phase in ("validation", "test"):
        for metric in ("eod", "f1", "accuracy"):
            base_vals = [r["baseline"][phase][metric] for r in records
                         if r["baseline"][phase][metric] != "undefined"]
            rep_vals = [r["repaired"][phase][metric] for r in records
                        if r["repaired"][phase][metric] != "undefined"]
            if base_vals:
                summary[f"baseline_{phase}_{metric}"] = mean_ci(base_vals)
            if rep_vals:
                summary[f"repaired_{phase}_{metric}"] = mean_ci(rep_vals)
    write_json(os.path.join(out, f"repair_summary_{alg}.json"), summary)

    if "repaired_validation_eod" in summary and "baseline_validation_eod" in summary:
        b = summary["baseline_validation_eod"]
        r = summary["repaired_validation_eod"]
        print(f"validation EOD mean {_pct(b['mean'])} -> {_pct(r['mean'])} "
              f"(+/- {100.0 * r['ci95']:.3f} points, {CI_FORMULA})")
    print(f"{summary['successes']}/{summary['runs']} runs met the F1 floor; "
          f"reports in {out}")
    return 0 if summary["successes"] == summary["runs"] else 3


def cmd_sweep(args) -> int:
    cfg = resolve_config(load_config(args.config), args)
    p_values = args.p_values or list(DEFAULT_SWEEP_P_VALUES)
    data = build_dataset(cfg)
    out = cfg["output_dir"]
    os.makedirs(out, exist_ok=True)
    rows = ["p,seed,validation_eod,test_eod,success"]
    for p in p_values:
        for seed in cfg["seeds"]:
            _, rec = _repair_one(cfg, data, seed, p=p)
            val_eod = rec["repaired"]["validation"]["eod"]
            test_eod = rec["repaired"]["test"]["eod"]
            rows.append(",".join((
                repr(p), str(seed),
                "undefined" if val_eod == "undefined" else repr(val_eod),
                "undefined" if test_eod == "undefined" else repr(test_eod),
                "1" if rec["success"] else "0",
            )))
            print(f"p={p} seed={seed}: val EOD {_pct(val_eod)} "
                  f"{'ok' if rec['success'] else 'FAILED F1 floor'}")
    csv_path = os.path.join(out, "sweep.csv")
    atomic_write_text(csv_path, "\n".join(rows) + "\n")
    write_json(os.path.join(out, "sweep.json"),
               {"config": cfg, "p_values": p_values, "rows": len(rows) - 1,
                "csv_file": os.path.basename(csv_path)})
    print(f"wrote {csv_path} ({len(rows) - 1} rows)")
    return 0


def _sa_run(path) -> dict:
    """The ``run`` record of a result file that ``repair`` wrote, which must
    hold a numeric ``best_cost``."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise CliError(f"--sa-result {path} is not valid JSON: {exc}") from exc
    run = doc.get("run") if isinstance(doc, dict) else None
    cost = run.get("best_cost") if isinstance(run, dict) else None
    if isinstance(cost, bool) or not isinstance(cost, (int, float)):
        raise CliError(f"--sa-result {path} is not a repair result: no numeric best_cost")
    return run


def _check_sa_run(run: dict, path, seed: int, params, bounds) -> None:
    """A repair result is comparable only with the space it searched: each of
    its seed, p, t and weight window that it records must be the oracle's."""
    instance = {"seed": seed, "p": params.p, "t": params.t,
                "bounds": {"n_l": bounds.n_l, "n_u": bounds.n_u}}
    for field, value in instance.items():
        if field in run and run[field] != value:
            raise CliError(f"--sa-result {path} does not match the enumerated instance: "
                           f"its {field} is {run[field]!r}, the oracle's is {value!r}")


def cmd_oracle(args) -> int:
    cfg = resolve_config(load_config(args.config), args)
    sa_run = _sa_run(args.sa_result) if args.sa_result else None
    data = build_dataset(cfg)
    out = cfg["output_dir"]
    os.makedirs(out, exist_ok=True)
    seed = args.seed if args.seed is not None else cfg["seeds"][0]
    parts, model = _load_instance(cfg, data, seed)
    s = cfg["search"]
    params = baseline_cost_params(model, parts.validation, p=float(s["p"]), t=float(s["t"]))
    config = search_config(cfg, seed, model.hidden_total, params)
    if sa_run is not None:
        _check_sa_run(sa_run, args.sa_result, seed, params, config.bounds)
    try:
        space = price_space(model, parts.validation, config.bounds, params,
                            budget=int(cfg["oracle"]["budget"]))
    except EnumerationBudgetError as exc:
        print(f"refusing to enumerate: {exc}", file=sys.stderr)
        return 1
    best_state, best_cost = space.best()
    counts = space.census(float(cfg["oracle"]["good_margin"]))
    baseline = single_neuron_baseline(model, parts.validation, parts.test, params)
    report = {
        "config": cfg,
        "seed": seed,
        "cardinality": config.bounds.size(),
        "optimal_state_hex": best_state.key_hex(),
        "optimal_cost": best_cost,
        "census": counts.to_dict(),
        "single_neuron_baseline": baseline,
    }
    if sa_run is not None:
        report["sa_best_cost"] = sa_run["best_cost"]
        report["eod_delta"] = sa_run["best_cost"] - best_cost
    if args.dump_costs:
        atomic_write_text(os.path.join(out, "oracle_costs.csv"), space.csv_text())
    write_json(os.path.join(out, "oracle_report.json"), report)
    print(f"enumerated {report['cardinality']} states: optimal cost {best_cost:.6f} "
          f"(state {report['optimal_state_hex']}), census best/good/bad = "
          f"{counts.best_count}/{counts.good_count}/{counts.bad_count}")
    if "eod_delta" in report:
        print(f"EOD delta vs supplied search result: {report['eod_delta']:.6f}")
    print(f"wrote oracle_report.json to {out}")
    return 0


def _flag_type(convert, ok, expected: str):
    """argparse ``type=``: convert the text and check it, so a bad value is a
    usage error before any work."""
    def parse(text: str):
        try:
            value = convert(text)
            valid = ok(value)
        except ValueError:
            valid = False
        if not valid:
            raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}")
        return value
    return parse


def _comma_list(convert):
    return lambda text: [convert(v) for v in text.split(",")]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fairdrop",
        description="Repair group unfairness in a ReLU classifier by searching "
                    "inference-time dropout masks.")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_synth = sub.add_parser("synth", help="generate a synthetic biased dataset")
    p_synth.add_argument("--out", default="out", help="output directory")
    p_synth.add_argument("--n-rows", default=10_000,
                         type=_flag_type(int, lambda v: v >= MIN_SYNTH_ROWS,
                                         f"an integer >= {MIN_SYNTH_ROWS}"))
    p_synth.add_argument("--n-features", default=10,
                         type=_flag_type(int, lambda v: v >= MIN_SYNTH_FEATURES,
                                         f"an integer >= {MIN_SYNTH_FEATURES}"))
    p_synth.add_argument("--bias-strength", default=0.5,
                         type=_flag_type(float, lambda v: 0.0 <= v <= 1.0,
                                         "a number in [0, 1]"))
    p_synth.add_argument("--seed", type=int, default=1)
    p_synth.set_defaults(func=cmd_synth)

    count = _flag_type(int, lambda v: v >= 0, "an integer >= 0")
    penalty = _flag_type(float, lambda v: 0 <= v < math.inf, "a finite number >= 0")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", required=True, help="experiment config JSON")
    common.add_argument("--seeds", type=_flag_type(_comma_list(int),
                                                   lambda v: len(set(v)) == len(v),
                                                   "comma-separated distinct integers"),
                        help="comma-separated seed list override")
    common.add_argument("--out", help="output directory override")
    common.add_argument("--alg", choices=["sa", "rw"], help="search algorithm override")
    common.add_argument("--p", type=penalty, help="penalty multiplier override")
    common.add_argument("--t", type=_flag_type(float, lambda v: 0.0 < v < 1.0,
                                               "a number in (0, 1)"),
                        help="threshold multiplier override")
    common.add_argument("--n-l", dest="n_l", type=count, help="minimum neurons to drop")
    common.add_argument("--n-u", dest="n_u", type=count, help="maximum neurons to drop")
    common.add_argument("--iterations", type=count, help="max_iterations override")
    common.add_argument("--time-limit-s", dest="time_limit_s",
                        type=_flag_type(float, lambda v: 0 < v < math.inf,
                                        "a finite number > 0"),
                        help="wall-clock limit override (seconds)")

    p_train = sub.add_parser("train", parents=[common],
                             help="train per-seed baseline models")
    p_train.set_defaults(func=cmd_train)

    p_repair = sub.add_parser("repair", parents=[common],
                              help="search dropout masks per seed and report")
    p_repair.set_defaults(func=cmd_repair)

    p_sweep = sub.add_parser("sweep", parents=[common],
                             help="repeat repair across penalty multipliers")
    p_sweep.add_argument("--p-values",
                         type=_flag_type(_comma_list(float),
                                         lambda vs: all(0 <= v < math.inf for v in vs),
                                         "comma-separated finite numbers >= 0"),
                         help="comma-separated penalty multipliers")
    p_sweep.set_defaults(func=cmd_sweep)

    p_oracle = sub.add_parser("oracle", parents=[common],
                              help="enumerate the space, census it, and run the "
                                   "single-neuron baseline")
    p_oracle.add_argument("--seed", type=int, help="which seed's instance to enumerate")
    p_oracle.add_argument("--sa-result", help="repair result JSON to compare against")
    p_oracle.add_argument("--dump-costs", action="store_true",
                          help="write per-state costs CSV")
    p_oracle.set_defaults(func=cmd_oracle)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (CliError, OSError, ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def console_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_entry()
