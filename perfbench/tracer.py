"""Spans recorded around calls into fairdrop's public functions.

The traced run wraps each module's public functions from outside the
program: every binding of a wrapped function is replaced, because ``search``,
``oracle`` and ``cli`` import ``predict_batch``, ``confusion``, ``f1`` and
``fairness`` by name.  A span holds its name, start, end, parent span and one
number the wrapper measures (page faults, bytes written, cache misses, ...).
Spans stay in memory in flat arrays and are written out when the run ends;
a span's self time is its duration minus the durations of its children.

The benchmark opens one root span per set-up (``bench.setup``) and per
measured round (``bench.round``); per-layer metrics are averaged per set-up
or per round from the spans under those roots.  The CLI call under each root
runs in a forked child, which hands its spans back with ``since`` and
``extend``.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import os
import resource
import sys
import time
from array import array

import numpy as np

SETUP = "bench.setup"
ROUND = "bench.round"


class Tracer:
    """In-memory span store with a stack of open spans."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.value = array("d")
        self._open = [-1]

    def name_index(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def enter(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._open[-1])
        self.end.append(0.0)
        self.value.append(0.0)
        self._open.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def exit(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._open.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self.enter(self.name_index(name))
        try:
            yield idx
        finally:
            self.exit(idx)

    def since(self, first: int) -> dict:
        """The spans from index ``first`` on, to hand to another process's
        ``extend``."""
        return {"names": list(self.names), "name_id": self.name_id[first:],
                "parent": self.parent[first:], "start": self.start[first:],
                "end": self.end[first:], "value": self.value[first:]}

    def extend(self, part: dict) -> None:
        """Append spans a forked child recorded with ``since``; their parent
        indices hold because this tracer recorded nothing in the meantime."""
        self.name_id.extend(self.name_index(part["names"][i]) for i in part["name_id"])
        for key in ("parent", "start", "end", "value"):
            getattr(self, key).extend(part[key])

    def save(self, path: str) -> None:
        """Write every span as flat arrays (``numpy.load`` reads them back)."""
        np.savez(path, names=np.array(self.names), name_id=np.frombuffer(self.name_id, np.int32),
                 parent=np.frombuffer(self.parent, np.int32),
                 start=np.frombuffer(self.start), end=np.frombuffer(self.end),
                 value=np.frombuffer(self.value))


# ------------------------------------------------------------------ wrappers
#
# Each wrapper opens a span around the original call; the ones that measure
# something store it as the span's value.

def _plain(tracer, nid, func):
    @functools.wraps(func)
    def traced(*args, **kwargs):
        idx = tracer.enter(nid)
        try:
            return func(*args, **kwargs)
        finally:
            tracer.exit(idx)
    return traced


def _minor_faults(tracer, nid, func):
    @functools.wraps(func)
    def traced(*args, **kwargs):
        idx = tracer.enter(nid)
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        try:
            return func(*args, **kwargs)
        finally:
            tracer.value[idx] = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
            tracer.exit(idx)
    return traced


def _cache_miss(tracer, nid, func):
    """CostEvaluator.evaluate: value 1 when the call priced a new state."""
    @functools.wraps(func)
    def traced(self, state):
        idx = tracer.enter(nid)
        before = self.evaluations
        try:
            return func(self, state)
        finally:
            tracer.value[idx] = self.evaluations - before
            tracer.exit(idx)
    return traced


def _file_bytes(tracer, nid, func):
    """Writers whose first argument is the output path: value = bytes on disk."""
    @functools.wraps(func)
    def traced(path, *args, **kwargs):
        idx = tracer.enter(nid)
        try:
            func(path, *args, **kwargs)
        finally:
            tracer.exit(idx)
        tracer.value[idx] = os.path.getsize(path)
    return traced


def _result_measure(measure):
    def factory(tracer, nid, func):
        @functools.wraps(func)
        def traced(*args, **kwargs):
            idx = tracer.enter(nid)
            try:
                result = func(*args, **kwargs)
            finally:
                tracer.exit(idx)
            tracer.value[idx] = measure(result)
            return result
        return traced
    return factory


def _generator(tracer, nid, func):
    """A generator function: one span per resumption, so the caller's work
    between items stays the caller's."""
    @functools.wraps(func)
    def traced(*args, **kwargs):
        gen = func(*args, **kwargs)

        def resumed():
            while True:
                idx = tracer.enter(nid)
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    tracer.exit(idx)
                yield item
        return resumed()
    return traced


# (module, attribute, span name, wrapper); a dotted attribute is a method
WRAPPED = (
    ("prng", "XorShift64Star.uniform_block", "prng.uniform_block", _plain),
    ("dataset", "synthesize_biased", "dataset.synthesize", _plain),
    ("dataset", "split", "dataset.split", _plain),
    ("model", "train", "model.train", _plain),
    ("model", "predict_batch", "model.predict", _minor_faults),
    ("model", "save_model", "model.save", _plain),
    ("model", "load_model", "model.load", _plain),
    ("metrics", "confusion", "metrics.confusion", _plain),
    ("metrics", "fairness", "metrics.fairness", _plain),
    ("metrics", "f1", "metrics.f1", _plain),
    ("metrics", "accuracy", "metrics.accuracy", _plain),
    ("search", "CostEvaluator.evaluate", "search.evaluate", _cache_miss),
    ("search", "generate_neighbor", "search.neighbor", _plain),
    ("search", "run_search", "search.run_search", _result_measure(lambda r: len(r.trace))),
    ("search", "baseline_cost_params", "search.baseline_params", _plain),
    ("search", "write_trace_csv", "search.trace_write", _file_bytes),
    ("oracle", "enumerate_best", "oracle.enumerate_best", _plain),
    ("oracle", "census", "oracle.census", _result_measure(lambda c: c.total)),
    ("oracle", "per_state_cost_rows", "oracle.dump", _generator),
    ("oracle", "single_neuron_baseline", "oracle.single_neuron", _plain),
    ("cli", "main", "cli.main", _plain),
    ("ioutil", "atomic_write_text", "ioutil.write", _file_bytes),
)


def install(tracer: Tracer) -> list:
    """Wrap every binding of the functions in ``WRAPPED``; returns what
    ``uninstall`` needs to put the originals back."""
    owners = {module: importlib.import_module(f"fairdrop.{module}")
              for module, _, _, _ in WRAPPED}
    modules = [m for name, m in sorted(sys.modules.items())
               if m is not None and (name == "fairdrop" or name.startswith("fairdrop."))]
    undo = []
    for module, attr, span_name, factory in WRAPPED:
        owner = owners[module]
        nid = tracer.name_index(span_name)
        if "." in attr:
            cls_name, method = attr.split(".")
            cls = getattr(owner, cls_name)
            original = cls.__dict__[method]
            setattr(cls, method, factory(tracer, nid, original))
            undo.append((cls, method, original))
            continue
        original = getattr(owner, attr)
        traced = factory(tracer, nid, original)
        for m in modules:
            if getattr(m, attr, None) is original:
                setattr(m, attr, traced)
                undo.append((m, attr, original))
    return undo


def uninstall(undo: list) -> None:
    for owner, attr, original in reversed(undo):
        setattr(owner, attr, original)


# ------------------------------------------------------------------ analysis

class Spans:
    """Span arrays with each span's self time and phase root."""

    def __init__(self, tracer: Tracer):
        self.names = list(tracer.names)
        self.nid = np.frombuffer(tracer.name_id, np.int32).astype(np.int64)
        self.parent = np.frombuffer(tracer.parent, np.int32).astype(np.int64)
        self.dur = np.frombuffer(tracer.end) - np.frombuffer(tracer.start)
        self.value = np.frombuffer(tracer.value).copy()
        n = len(self.nid)
        has_parent = self.parent >= 0
        child_time = np.bincount(self.parent[has_parent], weights=self.dur[has_parent],
                                 minlength=n)
        self.self_time = self.dur - child_time[:n]
        root = np.arange(n)
        while True:
            up = self.parent[root]
            moving = up >= 0
            if not moving.any():
                break
            root[moving] = up[moving]
        self.root_nid = self.nid[root]

    def ids(self, *names: str) -> list[int]:
        return [self.names.index(n) for n in names if n in self.names]

    def is_named(self, *names: str) -> np.ndarray:
        return np.isin(self.nid, self.ids(*names))

    def in_phase(self, phase: str) -> np.ndarray:
        return np.isin(self.root_nid, self.ids(phase))

    def under(self, *names: str) -> np.ndarray:
        """True for spans with an ancestor of one of these names."""
        target = self.is_named(*names)
        flag = np.zeros(len(self.nid), dtype=bool)
        anc = self.parent.copy()
        while True:
            live = anc >= 0
            if not live.any():
                return flag
            flag[live] |= target[anc[live]]
            anc[live] = self.parent[anc[live]]

    def count(self, phase: str) -> int:
        return int((self.is_named(phase) & (self.parent < 0)).sum())


def per_layer_metrics(spans: Spans) -> dict[str, float]:
    """Per-layer figures: set-up layers per set-up, the rest per round."""
    setups = max(spans.count(SETUP), 1)
    rounds = max(spans.count(ROUND), 1)
    in_setup = spans.in_phase(SETUP)
    in_round = spans.in_phase(ROUND)

    def sel(phase_mask, *names):
        return phase_mask & spans.is_named(*names)

    def per_setup(*names):
        return float(spans.dur[sel(in_setup, *names)].sum()) / setups

    def per_round(*names, field=None, mask=None):
        m = sel(in_round, *names) if mask is None else mask
        return float((spans.dur if field is None else field)[m].sum()) / rounds

    def calls(*names, mask=None):
        return float((sel(in_round, *names) if mask is None else mask).sum()) / rounds

    def mean_us(mask):
        return float(spans.dur[mask].mean()) * 1e6 if mask.any() else 0.0

    predict = sel(in_round, "model.predict")
    evaluate = sel(in_round, "search.evaluate")
    miss = evaluate & (spans.value > 0)
    metric_fns = ("metrics.confusion", "metrics.fairness", "metrics.f1", "metrics.accuracy")
    eval_calls = float(evaluate.sum())
    states = per_round("oracle.census", field=spans.value)
    oracle_misses = calls(mask=miss & spans.under("oracle.enumerate_best", "oracle.census",
                                                  "oracle.dump", "oracle.single_neuron"))
    return {
        "prng.uniform_block_s": per_setup("prng.uniform_block"),
        "prng.uniform_block_calls": float(sel(in_setup, "prng.uniform_block").sum()) / setups,
        "dataset.synthesize_s": per_setup("dataset.synthesize"),
        "dataset.split_s": per_setup("dataset.split"),
        "model.train_s": per_setup("model.train"),
        "model.save_s": per_setup("model.save"),
        "model.load_s": per_round("model.load"),
        "model.predict_calls": calls(mask=predict),
        "model.predict_us": mean_us(predict),
        "model.predict_busy_s": per_round(mask=predict),
        "model.minor_faults_per_call": (float(spans.value[predict].mean())
                                        if predict.any() else 0.0),
        "metrics.calls": calls(*metric_fns),
        "metrics.confusion_us": mean_us(sel(in_round, "metrics.confusion")),
        "metrics.fairness_us": mean_us(sel(in_round, "metrics.fairness")),
        "metrics.busy_s": per_round(*metric_fns),
        "search.iterations": per_round("search.run_search", field=spans.value),
        "search.evaluate_calls": calls(mask=evaluate),
        "search.unique_evals": calls(mask=miss),
        "search.cache_hit_ratio": 1.0 - float(miss.sum()) / eval_calls if eval_calls else 0.0,
        "search.evaluate_miss_us": mean_us(miss),
        "search.evaluate_hit_us": mean_us(evaluate & ~miss),
        "search.neighbor_us": mean_us(sel(in_round, "search.neighbor")),
        "search.loop_self_s": per_round(field=spans.self_time,
                                        mask=sel(in_round, "search.run_search")),
        "search.baseline_params_s": per_round("search.baseline_params"),
        "search.trace_write_s": per_round("search.trace_write"),
        "search.trace_bytes": per_round("search.trace_write", field=spans.value),
        "oracle.states": states,
        "oracle.evals_per_state": oracle_misses / states if states else 0.0,
        "oracle.enumerate_best_s": per_round("oracle.enumerate_best"),
        "oracle.census_s": per_round("oracle.census"),
        "oracle.dump_s": per_round("oracle.dump"),
        "oracle.single_neuron_s": per_round("oracle.single_neuron"),
        "cli.self_s": per_round(field=spans.self_time, mask=sel(in_round, "cli.main")),
        "cli.report_predict_calls": calls(mask=predict & ~spans.under("search.evaluate")),
        "ioutil.write_calls": calls("ioutil.write"),
        "ioutil.write_bytes": per_round("ioutil.write", field=spans.value),
        "ioutil.write_s": per_round("ioutil.write"),
    }
