"""Exhaustive ground truth for bounded mask spaces at desk scale.

Enumeration prices every mask with weight in [n_l, n_u] exactly once, with
the cost the randomized searches use, into columns; the global optimum, the
census (how many states are globally optimal, near-optimal, or below the F1
floor) and the per-state cost dump are reductions over them.  The pricing is
factored (``price_space``): the hidden layers before the last run once per
*prefix* (a mask's bits in them), the output layer is one GEMM per block of
*suffixes* (bits in the last hidden layer) sharing a prefix, and one more
GEMM against the (group, label) indicator counts each mask's predicted
positives per (group, label), each logit certified as in the searches'
batched pass, so every value equals one search evaluation's.  The cost dump
renders each distinct (cost, EOD, F1) triple once.  The single-neuron-drop
baseline is the best state of the weight-1 window, priced by the same pass:
the strongest repair a one-neuron method could ever reach.

The columns ascend by state key, so the dump lists the states in key order
and the optimum's tie-break (the smallest state key) is the first minimum;
census counters are plain sums.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .dataset import TabularDataset
from .metrics import cell_costs, prediction_metrics
from .model import _BATCH_ELEMENTS, MaskedForward, MlpModel, predict_batch
from .search import (CostParams, DropoutState, SearchSpaceBounds, SearchSpaceError,
                     key_hex_format, split_indicator)

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
    """Every state of a bounded space priced once, as columns in ascending
    key order: the state keys (bits), cost, EOD and F1."""

    n_total: int
    f1_floor: float
    keys: np.ndarray
    cost: np.ndarray
    eod: np.ndarray
    f1: np.ndarray

    def _state(self, bits: int) -> DropoutState:
        return DropoutState(n=self.n_total, bits=bits)

    def best(self) -> tuple[DropoutState, float]:
        """Global optimum; cost ties break to the smallest state key, which
        ascending keys make the first minimum."""
        i = int(self.cost.argmin())
        return self._state(int(self.keys[i])), float(self.cost[i])

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
        value its ``repr``.  The states share few (cost, EOD, F1) triples, so
        each distinct one, told apart by its bit pattern (``-0.0`` is not
        ``0.0``), is rendered once as the tail of its rows."""
        triples = np.stack((self.cost, self.eod, self.f1), axis=1).view(np.dtype((np.void, 24)))
        distinct, inverse = np.unique(triples.ravel(), return_inverse=True)
        tails = np.array([",{!r},{!r},{!r}\n".format(*triple)
                          for triple in distinct.view(np.float64).reshape(-1, 3).tolist()],
                         dtype=object)
        return "state_key_hex,cost,eod,f1\n" + "".join(map(str.__add__, self.key_hex(),
                                                          tails[inverse].tolist()))


_HEX_DIGITS = np.frombuffer(b"0123456789abcdef", dtype=np.uint8)


def _subset_keys(positions, sizes: range, dtype, block: int) -> Iterator[np.ndarray]:
    """The state key of every subset of the bit ``positions`` with a size in
    ``sizes``, by size then in ``itertools.combinations`` order, at most
    ``block`` keys at a time, as ``dtype`` (uint64, or object for Python
    ints).  Keys of disjoint subsets combine by OR."""
    bits = [1 << position for position in positions.tolist()]
    keys = itertools.chain.from_iterable(map(sum, itertools.combinations(bits, k)) for k in sizes)
    while chunk := list(itertools.islice(keys, block)):
        yield np.array(chunk, dtype=dtype)


def price_space(model: MlpModel, validation_data: TabularDataset, bounds: SearchSpaceBounds,
                params: CostParams, budget: int = DEFAULT_ENUMERATION_BUDGET) -> PricedSpace:
    """Price every state in the bounded space exactly once, each with the
    cost ``CostEvaluator.evaluate`` gives it, by a factored enumeration.

    A mask splits into a *prefix*, its bits in every hidden layer but the
    last, and a *suffix*, its bits in the last hidden layer (the positions
    come from the model's ``neuron_order``).  Prefixes go by weight w; their
    state keys and those of the suffixes that pair with weight w stream from
    ``_subset_keys`` in ``itertools.combinations`` order, and a mask's key
    is its prefix's OR its suffix's.  For each suffix block, its output
    rows (``MaskedForward._output_rows``) are built once, and each prefix of
    weight w runs through the hidden layers, many prefixes per batch of
    ``MaskedForward``'s batched pass, to its last-hidden-layer activations;
    one float32 GEMM of the block's rows against them gives the logits of
    every mask in the block that shares the prefix.  When the suffixes of a
    weight fill one block, as they do on desk-scale spaces, each prefix runs
    through the hidden layers once; a wider last layer runs them once per
    block instead of holding every suffix.  Every row is certified one
    prefix at a time (``MaskedForward._certified``, on the masks' keys), its
    prediction written as 0.0/1.0 into a float32 block: a mask with any row
    within the slack takes the row check, then, if that does not settle it,
    the exact pass.  A second float32 GEMM, of that block against
    ``split_indicator``'s (group, label) indicator, counts each mask's
    predicted positives per (group, label) exactly.  Last, one ``argsort``
    puts the counts in ascending key order, and ``cell_costs`` prices them
    against the split's totals.  A split with an empty (group, label) cell
    is rejected before any pricing.

    Memory: beside the per-state columns (the keys, four int32 counts and
    the permutation), a suffix block's logits, its 0/1 predictions and a
    prefix batch's layer outputs each come to about ``_BATCH_ELEMENTS``
    values (float32), and all that ``cell_costs`` holds for one chunk of
    states to about a quarter of that.
    Nothing of it is a setting.
    """
    total = _check_budget(bounds, budget)
    n = bounds.n_total
    if n != model.hidden_total:
        raise SearchSpaceError(f"bounds cover {n} neurons, model has {model.hidden_total}")
    indicator, totals = split_indicator(validation_data)
    kernel = MaskedForward(model, validation_data.features)
    rows = len(indicator)
    dtype = np.uint64 if n <= 64 else object
    last, prefix_bits = kernel.suffix_bits, kernel.prefix_bits
    h = len(last)

    block = max(1, _BATCH_ELEMENTS // max(rows, h + 1))
    logits, preds = np.empty((2, block, rows), dtype=np.float32)
    keys = np.empty(total, dtype=dtype)
    positives = np.empty((total, 4), dtype=np.int32)
    f = 0
    for w in range(max(0, bounds.n_l - h), min(bounds.n_u, len(prefix_bits)) + 1):
        suffix_sizes = range(max(0, bounds.n_l - w), min(h, bounds.n_u - w) + 1)
        for suffix_key in _subset_keys(last, suffix_sizes, dtype, block):
            m = len(suffix_key)
            out_rows = kernel._output_rows(suffix_key)
            z_block, preds_block = logits[:m], preds[:m]
            for prefix_key in _subset_keys(prefix_bits, range(w, w + 1), dtype,
                                           kernel.batch_size):
                keys[f:f + len(prefix_key) * m] = (prefix_key[:, None] | suffix_key).ravel()
                hidden = None if out_rows is None else kernel._batch_hidden(prefix_key)
                for b in range(len(prefix_key)):
                    z = None if hidden is None else np.matmul(out_rows, hidden[b], out=z_block)
                    kernel._certified(z, keys[f:f + m], preds_block)
                    positives[f:f + m] = preds_block @ indicator
                    f += m
    order = np.argsort(keys)
    cost, eod, f1s = np.empty((3, total))
    chunk = _BATCH_ELEMENTS // 64  # cell_costs holds some sixteen arrays of chunk values
    for s in range(0, total, chunk):
        cost[s:s + chunk], eod[s:s + chunk], f1s[s:s + chunk] = cell_costs(
            positives[order[s:s + chunk]], totals, params.f1_floor, params.penalty)
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
    return {
        "neuron_index": best_index,
        "layer": layer,
        "unit": unit,
        "cost": cost,
        "evaluations": len(space.cost),
        **split_reports(model, validation_data, test_data, best_state),
    }


def split_reports(model: MlpModel, validation_data: TabularDataset, test_data: TabularDataset,
                  mask=None) -> dict:
    """EOD / F1 / accuracy of the (masked) model on the validation and test
    splits, by the exact pass."""
    reports = {}
    for name, data in (("validation", validation_data), ("test", test_data)):
        preds = predict_batch(model, data, mask)
        reports[name] = prediction_metrics(preds, data.labels, data.protected).to_dict()
    return reports
