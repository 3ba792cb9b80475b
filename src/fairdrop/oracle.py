"""Exhaustive ground truth for bounded mask spaces at desk scale.

Enumeration prices every mask with weight in [n_l, n_u] exactly once, with
the cost the randomized searches use, into columns; the global optimum, the
census (how many states are globally optimal, near-optimal, or below the F1
floor) and the per-state cost dump are reductions over them.  The pricing is
factored (``price_space``): the hidden layers before the last run once per
*prefix* (a mask's bits in them), the output layer is one GEMM per block of
*suffixes* (bits in the last hidden layer) sharing a prefix, and one more
GEMM against the (group, label) indicator counts the cells, each logit
certified as in the searches' batched pass, so every value equals one search
evaluation's.  The cost dump renders each distinct value once.  The
single-neuron-drop baseline is the best state of the weight-1 window, priced
by the same pass: the strongest repair a one-neuron method could ever reach.

Every reduction is order-independent: the optimum carries a deterministic
tie-break (smallest canonical state key), and census counters are plain sums,
so enumeration chunks may be processed in any order or concurrently and
merged by min / addition.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .dataset import TabularDataset
from .metrics import cell_costs, group_label_indicator, positive_cells, prediction_metrics
from .model import _BATCH_ELEMENTS, MaskedForward, MlpModel, predict_batch
from .search import (CostParams, DropoutState, SearchSpaceBounds, SearchSpaceError,
                     key_hex_format)

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

    def key_hex(self) -> list[str]:
        """Each state's ``DropoutState.key_hex``: for keys of up to 64 bits,
        hex digits cut from the keys by shifts and looked up in one table."""
        width = key_hex_format(self.n_total)
        if self.keys.dtype == object:
            return [format(bits, width) for bits in self.keys.tolist()]
        digits = len(format(0, width))
        shifts = np.arange(4 * (digits - 1), -1, -4, dtype=np.uint64)
        nibbles = (self.keys[:, None] >> shifts) & np.uint64(15)
        return _HEX_DIGITS[nibbles].view(f"S{digits}").ravel().astype(str).tolist()

    def rows(self) -> Iterator[tuple[str, float, float, float]]:
        """(state_key_hex, cost, eod, f1) per state, as Python floats."""
        return zip(self.key_hex(), self.cost.tolist(), self.eod.tolist(), self.f1.tolist())

    def csv_text(self) -> str:
        """The per-state cost dump: ``state_key_hex,cost,eod,f1`` rows, each
        value its ``repr`` (an undefined EOD reads ``undefined``).  Each
        column holds few distinct values, so each is rendered once."""
        columns = (self.key_hex(), _distinct_text(self.cost),
                   _distinct_text(self.eod, nan="undefined"), _distinct_text(self.f1))
        return "state_key_hex,cost,eod,f1\n" + "".join(map("{},{},{},{}\n".format, *columns))


_HEX_DIGITS = np.frombuffer(b"0123456789abcdef", dtype=np.uint8)


def _distinct_text(column: np.ndarray, nan: str = "nan") -> np.ndarray:
    """``repr`` of each value of a float column, and ``nan`` for NaN,
    computed once per distinct bit pattern."""
    distinct, inverse = np.unique(column.view(np.uint64), return_inverse=True)
    text = [repr(v) if v == v else nan for v in distinct.view(np.float64).tolist()]
    return np.array(text, dtype=object)[inverse]


def _combinations(items: int, k: int) -> np.ndarray:
    """All k-subsets of range(items) as rows (subsets, k), in
    ``itertools.combinations`` order."""
    count = math.comb(items, k)
    flat = itertools.chain.from_iterable(itertools.combinations(range(items), k))
    return np.fromiter(flat, np.intp, count * k).reshape(count, k)


def _position_bits(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Per bit position i out of n, ``1 << i`` and its mirror image
    ``1 << (top - i)``: uint64 with top 63, or Python ints in object arrays
    with top n - 1 when n > 64."""
    if n > 64:
        return (np.array([1 << i for i in range(n)], dtype=object),
                np.array([1 << (n - 1 - i) for i in range(n)], dtype=object))
    i = np.arange(n, dtype=np.uint64)
    return np.uint64(1) << i, np.uint64(1) << (np.uint64(63) - i)


def _set_keys(dropped: np.ndarray, bits: np.ndarray,
              mirror_bits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The state key and an order key of each set of bit positions, given
    as rows of a boolean matrix whose columns have the ``_position_bits``
    ``bits`` and ``mirror_bits``.  The key sums the set's bits; the order
    key complements the sum of its mirror bits, so that sets of one weight
    sort in ``itertools.combinations`` order.  Keys of disjoint sets
    combine by OR, order keys by AND."""
    return (np.where(dropped, bits, 0).sum(axis=1),
            ~np.where(dropped, mirror_bits, 0).sum(axis=1))


def _subset_blocks(items: int, sizes: range, block: int) -> Iterator[np.ndarray]:
    """Every subset of range(items) with a size in ``sizes``, by size then
    in ``itertools.combinations`` order, as boolean rows (subsets, items),
    at most ``block`` rows at a time."""
    subsets = itertools.chain.from_iterable(itertools.combinations(range(items), k)
                                            for k in sizes)
    while chunk := list(itertools.islice(subsets, block)):
        sizes_of = [len(subset) for subset in chunk]
        members = np.fromiter(itertools.chain.from_iterable(chunk), np.intp, sum(sizes_of))
        rows = np.zeros((len(chunk), items), dtype=bool)
        rows[np.repeat(np.arange(len(chunk)), sizes_of), members] = True
        yield rows


def price_space(model: MlpModel, validation_data: TabularDataset, bounds: SearchSpaceBounds,
                params: CostParams, budget: int = DEFAULT_ENUMERATION_BUDGET) -> PricedSpace:
    """Price every state in the bounded space exactly once, each with the
    cost ``CostEvaluator.evaluate`` gives it, by a factored enumeration.

    A mask splits into a *prefix*, its bits in every hidden layer but the
    last, and a *suffix*, its bits in the last hidden layer (the positions
    come from the model's ``neuron_order``).  Prefixes go by weight w; the
    suffixes that pair with weight w stream from ``itertools.combinations``
    in blocks.  For each block, its rows (the output weights times each
    suffix's keep factors, with the output bias as last column) are built
    once, and each prefix of weight w runs through the hidden layers, many
    prefixes per batch of ``MaskedForward``'s batched pass, to its
    last-hidden-layer activations; one GEMM of the block's rows against
    them gives the logits of every mask in the block that shares the
    prefix.  When the suffixes of a weight fill one block, as they do on
    desk-scale spaces, each prefix runs through the hidden layers once; a
    wider last layer runs them once per block instead of holding every
    suffix.  Every row is certified as in ``predict_many``: a mask with
    any row within the slack goes through the exact pass.  A second GEMM,
    of the block's 0/1 predictions against ``group_label_indicator``,
    counts the cells, and ``cell_costs`` prices them.  Last, one
    permutation puts the columns in ``iter_states`` order, which ``best``'s
    tie-break and the dump follow.

    Memory: beside the per-state columns (the keys; until the sort, an
    order key and the weight; four int32 counts; the permutation) and the
    prefixes of one weight, a suffix block's logits (which then carry its
    0/1 predictions), a prefix batch's layer outputs, and all that
    ``cell_costs`` holds for one chunk of states each come to about
    ``_BATCH_ELEMENTS`` values.  Nothing of it is a setting.
    """
    total = _check_budget(bounds, budget)
    n = bounds.n_total
    if n != model.hidden_total:
        raise SearchSpaceError(f"bounds cover {n} neurons, model has {model.hidden_total}")
    kernel = MaskedForward(model, validation_data.features)
    indicator = group_label_indicator(validation_data.labels, validation_data.protected)
    batched = kernel._slack is not None
    rows = kernel._first.shape[0]
    bits, mirror_bits = _position_bits(n)
    last = kernel._bits[-1]
    prefix_bits = np.concatenate([np.empty(0, np.intp), *kernel._bits[:-1]])
    h = len(last)

    block = max(1, _BATCH_ELEMENTS // max(rows, h + 1))
    out_rows = np.empty((block, h + 1))
    out_rows[:, -1] = model.biases[-1]
    logits = np.empty((block, rows))
    keys = np.empty(total, dtype=bits.dtype)
    order_key = np.empty_like(keys)
    weight = np.empty(total, dtype=np.min_scalar_type(n))
    positives = np.empty((total, 4), dtype=np.int32)

    def full_keep(i):  # keep factors of the block's suffix i joined to prefix b
        row = keep[b].copy()
        row[last] = ~dropped[i]
        return row

    f = 0
    for w in range(max(0, bounds.n_l - h), min(bounds.n_u, len(prefix_bits)) + 1):
        prefixes = prefix_bits[_combinations(len(prefix_bits), w)]
        suffix_sizes = range(max(0, bounds.n_l - w), min(h, bounds.n_u - w) + 1)
        for dropped in _subset_blocks(h, suffix_sizes, block):
            m = len(dropped)
            suffix_key, suffix_order = _set_keys(dropped, bits[last], mirror_bits[last])
            suffix_weight = w + dropped.sum(axis=1)
            if batched:
                np.multiply(model.weights[-1][0], ~dropped, out=out_rows[:m, :-1])
            for first in range(0, len(prefixes), kernel.batch_size):
                batch = prefixes[first:first + kernel.batch_size]
                keep = np.ones((len(batch), n))
                keep[np.arange(len(batch))[:, None], batch] = 0.0
                prefix_key, prefix_order = _set_keys(keep == 0.0, bits, mirror_bits)
                span = slice(f, f + len(batch) * m)
                keys[span] = (prefix_key[:, None] | suffix_key).ravel()
                order_key[span] = (prefix_order[:, None] & suffix_order).ravel()
                weight[span] = np.tile(suffix_weight, len(batch))
                hidden = kernel._batch_hidden(keep) if batched else None
                for b in range(len(batch)):
                    z = np.matmul(out_rows[:m], hidden[b], out=logits[:m]) if batched else None
                    # the 0/1 predictions go through the logits' buffer as floats
                    np.copyto(logits[:m], kernel._certified(z, m, full_keep))
                    positives[f:f + m] = logits[:m] @ indicator
                    f += m
    order = np.lexsort((order_key, weight))
    del order_key, weight
    totals = indicator.sum(axis=0)
    penalty = params.p * params.eod_baseline
    cost, eod, f1s = np.empty((3, total))
    chunk = _BATCH_ELEMENTS // 64  # cell_costs holds some eight arrays of 8 * chunk values
    for s in range(0, total, chunk):
        cells = positive_cells(positives[order[s:s + chunk]], totals)
        cost[s:s + chunk], eod[s:s + chunk], f1s[s:s + chunk] = cell_costs(
            cells, params.f1_floor, penalty)
    return PricedSpace(n, params.f1_floor, keys[order], cost, eod, f1s)


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
