"""Exhaustive ground truth for bounded mask spaces at desk scale.

Enumeration prices every mask with weight in [n_l, n_u] exactly once, with
the cost the randomized searches use (many masks per batched pass, each
priced exactly as one search evaluation would), into columns; the global
optimum, the census (how many states are globally optimal, near-optimal, or
below the F1 floor) and the per-state cost dump are reductions over them.  The
single-neuron-drop baseline is the best state of the weight-1 window, priced
by the same pass: the strongest repair a one-neuron method could ever reach.

Every reduction is order-independent: the optimum carries a deterministic
tie-break (smallest canonical state key), and census counters are plain sums,
so enumeration chunks may be processed in any order or concurrently and
merged by min / addition.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .dataset import TabularDataset
from .metrics import prediction_metrics
from .model import MlpModel, predict_batch
from .search import CostEvaluator, CostParams, DropoutState, SearchSpaceBounds, key_hex_format

DEFAULT_ENUMERATION_BUDGET = 10_000_000


class EnumerationBudgetError(RuntimeError):
    """The bounded space is too large to enumerate; carries the cardinality."""

    def __init__(self, cardinality: int, budget: int):
        super().__init__(f"search space holds {cardinality} states, "
                         f"over the enumeration budget of {budget}")
        self.cardinality = cardinality
        self.budget = budget


def iter_states(bounds: SearchSpaceBounds) -> Iterator[DropoutState]:
    """All states with weight in [n_l, n_u], by weight then position tuple."""
    for k in range(bounds.n_l, bounds.n_u + 1):
        for combo in itertools.combinations(range(bounds.n_total), k):
            yield DropoutState.from_indices(bounds.n_total, combo)


def _check_budget(bounds: SearchSpaceBounds, budget: int) -> int:
    cardinality = bounds.size()
    if cardinality > budget:
        raise EnumerationBudgetError(cardinality, budget)
    return cardinality


@dataclass(frozen=True)
class StateCensus:
    """Counts of globally optimal, near-optimal and floor-violating states.

    A state below the F1 floor is Bad regardless of cost; Best states have
    exactly the optimal cost (and are not Bad); Good states sit within
    ``good_margin`` above the optimum (and are neither Best nor Bad).  The
    remaining states are ordinary, so the three counts sum to at most total.
    """

    best_count: int
    good_count: int
    bad_count: int
    total: int
    optimal_cost: float
    good_margin: float
    f1_floor: float

    @property
    def best_likelihood(self) -> float:
        return self.best_count / self.total

    @property
    def good_likelihood(self) -> float:
        return self.good_count / self.total

    @property
    def bad_likelihood(self) -> float:
        return self.bad_count / self.total

    def to_dict(self) -> dict:
        return {
            "best_count": self.best_count, "best_likelihood": self.best_likelihood,
            "good_count": self.good_count, "good_likelihood": self.good_likelihood,
            "bad_count": self.bad_count, "bad_likelihood": self.bad_likelihood,
            "total": self.total,
            "optimal_cost": self.optimal_cost,
            "good_margin": self.good_margin,
            "f1_floor": self.f1_floor,
        }


@dataclass(frozen=True, eq=False)
class PricedSpace:
    """Every state of a bounded space priced once, as columns in ``iter_states``
    order: the state keys (bits), cost, EOD (NaN where undefined) and F1."""

    n_total: int
    f1_floor: float
    keys: np.ndarray
    cost: np.ndarray
    eod: np.ndarray
    f1: np.ndarray

    def _state(self, bits: int) -> DropoutState:
        return DropoutState(n=self.n_total, bits=bits)

    def best(self) -> tuple[DropoutState, float]:
        """Global optimum; cost ties break to the smallest canonical state key."""
        optimal = self.cost.min()
        return self._state(int(self.keys[self.cost == optimal].min())), float(optimal)

    def census(self, good_margin: float = 0.05) -> StateCensus:
        """Classify every state against the global optimum."""
        if not 0 <= good_margin < np.inf:
            raise ValueError("good_margin must be finite and >= 0")
        optimal = float(self.cost.min())
        bad = self.f1 < self.f1_floor
        best = (self.cost == optimal) & ~bad
        good = (self.cost <= optimal + good_margin) & ~best & ~bad
        return StateCensus(best_count=int(best.sum()), good_count=int(good.sum()),
                           bad_count=int(bad.sum()), total=len(self.cost), optimal_cost=optimal,
                           good_margin=good_margin, f1_floor=self.f1_floor)

    def rows(self) -> Iterator[tuple[str, float, float, float]]:
        """(state_key_hex, cost, eod, f1) per state, as Python floats."""
        width = key_hex_format(self.n_total)
        for bits, c, eod, f1_s in zip(self.keys.tolist(), self.cost.tolist(),
                                      self.eod.tolist(), self.f1.tolist()):
            yield format(bits, width), c, eod, f1_s


def price_space(model: MlpModel, validation_data: TabularDataset, bounds: SearchSpaceBounds,
                params: CostParams, budget: int = DEFAULT_ENUMERATION_BUDGET) -> PricedSpace:
    """Price every state in the bounded space exactly once, without the
    evaluator's memo cache: no state comes back, so it would only hold memory.

    States stream from ``itertools.combinations`` in ``iter_states`` order,
    one batch of ``CostEvaluator.price_many`` at a time, so no more than one
    batch of masks is ever held beside the columns.
    """
    total = _check_budget(bounds, budget)
    evaluator = CostEvaluator(model, validation_data, params)
    n = bounds.n_total
    keys = np.empty(total, dtype=np.uint64 if n <= 64 else object)
    cost, eod, f1s = np.empty((3, total), dtype=np.float64)
    start = 0
    for k in range(bounds.n_l, bounds.n_u + 1):
        combos = itertools.combinations(range(n), k)
        while chunk := list(itertools.islice(combos, evaluator.batch_size)):
            dropped = np.fromiter(itertools.chain.from_iterable(chunk), np.intp,
                                  len(chunk) * k).reshape(len(chunk), k)
            keep = np.ones((len(chunk), n))
            keep[np.arange(len(chunk))[:, None], dropped] = 0.0
            stop = start + len(chunk)
            cost[start:stop], eod[start:stop], f1s[start:stop] = evaluator.price_many(keep)
            if n <= 64:
                keys[start:stop] = np.bitwise_or.reduce(
                    np.uint64(1) << dropped.astype(np.uint64), axis=1)
            else:
                keys[start:stop] = [sum(1 << i for i in combo) for combo in chunk]
            start = stop
    return PricedSpace(n, params.f1_floor, keys, cost, eod, f1s)


def enumerate_best(model: MlpModel, validation_data: TabularDataset,
                   bounds: SearchSpaceBounds, params: CostParams,
                   budget: int = DEFAULT_ENUMERATION_BUDGET
                   ) -> tuple[DropoutState, float]:
    """Global optimum over the bounded space; cost ties break to the smallest
    canonical state key."""
    return price_space(model, validation_data, bounds, params, budget).best()


def census(model: MlpModel, validation_data: TabularDataset, bounds: SearchSpaceBounds,
           params: CostParams, good_margin: float = 0.05,
           budget: int = DEFAULT_ENUMERATION_BUDGET) -> StateCensus:
    """Classify every state in the bounded space against the global optimum."""
    return price_space(model, validation_data, bounds, params, budget).census(good_margin)


def per_state_cost_rows(model: MlpModel, validation_data: TabularDataset,
                        bounds: SearchSpaceBounds, params: CostParams,
                        budget: int = DEFAULT_ENUMERATION_BUDGET
                        ) -> Iterator[tuple[str, float, float, float]]:
    """(state_key_hex, cost, eod, f1) for every state, for offline analysis."""
    return price_space(model, validation_data, bounds, params, budget).rows()


def single_neuron_baseline(model: MlpModel, validation_data: TabularDataset,
                           test_data: TabularDataset, params: CostParams) -> dict:
    """Best single-neuron drop by validation cost, evaluated on both splits.

    Enumerates the N states of the weight-1 window (bounds (1, 1)); cost ties
    break to the smallest key, which is the lowest neuron index.
    """
    space = price_space(model, validation_data,
                        SearchSpaceBounds(model.hidden_total, 1, 1), params)
    best_state, cost = space.best()
    (best_index,) = best_state.indices()
    layer, unit = model.neuron_order[best_index]
    report = {
        "neuron_index": best_index,
        "layer": layer,
        "unit": unit,
        "cost": cost,
        "evaluations": len(space.cost),
    }
    for name, data in (("validation", validation_data), ("test", test_data)):
        preds = predict_batch(model, data, best_state)
        report[name] = prediction_metrics(preds, data.labels, data.protected).to_dict()
    return report
