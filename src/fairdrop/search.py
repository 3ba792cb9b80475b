"""Bounded-Hamming-weight mask search: state space, cost, cooling, and the
unified annealing / random-walk loop.

The search space is the set of dropout masks over N hidden neurons whose
Hamming weight lies in [n_l, n_u]; its graph has an edge between states at
Hamming distance 1 (single bit flips that stay within the weight bounds).
Each candidate mask is priced on the validation split:

    cost(s) = EOD(s) + p * EOD_baseline * [F1(s) < t * F1_baseline]

so unfairness is minimized while a configurable F1 floor is enforced through
the penalty term.  The annealing variant accepts uphill moves with
probability exp(-dE / T) under the logarithmic schedule T_m = T0 / ln(2 + m);
the random-walk variant accepts every move.  Both track the best state seen.

The initial temperature can be fitted so that a target fraction of sampled
uphill moves would be accepted (the Ben-Ameur back-computation), set to a
pessimistic bound scaled to the maximal cost and the weight-window width, or
given explicitly.
"""

from __future__ import annotations

import math
import operator
import time
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .dataset import TabularDataset
from .ioutil import atomic_write_text, has_type
from .metrics import cell_costs, cell_metrics, group_label_indicator
from .model import MaskedForward, MlpModel, predict_batch
from .prng import XorShift64Star

ALG_TYPES = ("sa", "rw")
T0_MODES = ("ben_ameur", "worst_case", "explicit")


class SearchSpaceError(ValueError):
    """Infeasible bounds or an empty neighborhood."""


@dataclass(frozen=True)
class SearchSpaceBounds:
    """Weight window [n_l, n_u] over n_total hidden neurons.

    A fixed-weight window (n_l == n_u) can be enumerated, but no single flip
    stays inside it, so a search on it stops with ``generate_neighbor``'s
    ``SearchSpaceError``.
    """

    n_total: int
    n_l: int
    n_u: int

    def __post_init__(self):
        if not (has_type(self.n_total, int) and self.n_total >= 1):
            raise SearchSpaceError(f"n_total must be a positive integer, got {self.n_total!r}")
        if not (has_type(self.n_l, int) and has_type(self.n_u, int)
                and 0 <= self.n_l <= self.n_u <= self.n_total):
            raise SearchSpaceError(f"need integers 0 <= n_l <= n_u <= {self.n_total}, "
                                   f"got n_l={self.n_l!r}, n_u={self.n_u!r}")

    def size(self) -> int:
        """Number of states, sum of C(n_total, k) for k in [n_l, n_u]."""
        return sum(math.comb(self.n_total, k) for k in range(self.n_l, self.n_u + 1))


def key_hex_format(n: int) -> str:
    """Format spec of the state key over n neurons: hex, one digit per four."""
    return f"0{max(1, (n + 3) // 4)}x"


@dataclass(frozen=True)
class DropoutState:
    """Bit-vector over hidden neurons; bit i set means neuron i is dropped.

    Bits are packed into an arbitrary-width integer (bit i of ``bits`` is
    neuron i).  ``key_hex`` is the canonical lowercase zero-padded hex form
    used for memoization and trace output.
    """

    n: int
    bits: int

    def __post_init__(self):
        if not 0 <= self.bits < (1 << self.n):
            raise ValueError(f"bits out of range for {self.n} neurons")

    @property
    def weight(self) -> int:
        """Hamming weight: the number of dropped neurons."""
        return self.bits.bit_count()

    @classmethod
    def from_indices(cls, n: int, indices) -> "DropoutState":
        """The state that drops the neurons at ``indices``, each any integer
        (numpy's too, taken as a Python int)."""
        bits = 0
        for i in map(operator.index, indices):
            if not 0 <= i < n:
                raise ValueError(f"neuron index {i} out of range({n})")
            if bits >> i & 1:
                raise ValueError(f"duplicate neuron index {i}")
            bits |= 1 << i
        return cls(n=n, bits=bits)

    def flip(self, i: int) -> "DropoutState":
        return DropoutState(n=self.n, bits=self.bits ^ (1 << i))

    def indices(self) -> tuple[int, ...]:
        return tuple(i for i in range(self.n) if self.bits >> i & 1)

    def key_hex(self) -> str:
        return format(self.bits, key_hex_format(self.n))


@dataclass(frozen=True)
class CostParams:
    """Penalty multiplier p, threshold multiplier t, and the unmasked model's
    validation EOD / F1 that anchor the cost function."""

    p: float
    t: float
    eod_baseline: float
    f1_baseline: float

    def __post_init__(self):
        # The config rules of the CLI: no bools, NaNs or infinities.
        if not (has_type(self.p, float) and self.p >= 0):
            raise ValueError(f"penalty multiplier p must be finite and >= 0, got {self.p!r}")
        if not (has_type(self.t, float) and 0.0 < self.t < 1.0):
            raise ValueError(f"threshold multiplier t must lie in (0, 1), got {self.t!r}")
        for name in ("eod_baseline", "f1_baseline"):
            value = getattr(self, name)
            if not (has_type(value, float) and 0.0 <= value <= 1.0):
                raise ValueError(f"{name} must lie in [0, 1], got {value!r}")

    @property
    def f1_floor(self) -> float:
        return self.t * self.f1_baseline

    @property
    def penalty(self) -> float:
        """What a mask pays when its F1 falls below ``f1_floor``."""
        return self.p * self.eod_baseline


@dataclass(frozen=True)
class TemperatureSchedule:
    """Logarithmic cooling: T_m = t0 / ln(2 + m)."""

    t0: float

    def __post_init__(self):
        if not self.t0 > 0:
            raise ValueError("t0 must be positive")

    def temperature(self, m: int) -> float:
        if m < 0:
            raise ValueError("iteration index must be >= 0")
        return self.t0 / math.log(2 + m)


def penalized_cost(eod_s: float | None, f1_s: float, params: CostParams) -> float:
    """EOD plus the F1-floor penalty; undefined EOD prices as +inf."""
    if eod_s is None:
        return math.inf
    return eod_s + (params.penalty if f1_s < params.f1_floor else 0.0)


class CostEvaluation(NamedTuple):
    cost: float
    eod: float
    f1: float


def _count_cost(positives, totals, f1_floor: float, penalty: float) -> CostEvaluation:
    """A mask's price from its predicted positives and the split's (all
    positive) ``totals`` per (group, label), in Python scalars: the correctly
    rounded operations of ``cell_metrics`` and ``penalized_cost``."""
    p0, p1, p2, p3 = positives
    t0, t1, t2, t3 = totals
    eod = max(abs(p1 / t1 - p3 / t3), abs(p0 / t0 - p2 / t2))
    tp = p1 + p3
    f1 = 2.0 * tp / (2 * tp + (p0 + p2) + (t1 + t3 - tp))
    return CostEvaluation(eod + (penalty if f1 < f1_floor else 0.0), eod, f1)


def split_indicator(data: TabularDataset) -> tuple[np.ndarray, np.ndarray]:
    """``group_label_indicator`` of a split that masks are priced on, and
    its rows per (group, label).  Each EOD denominator is one of these
    totals, so EOD is undefined for every mask or for none: a split with an
    empty (group, label) cell is rejected here, before any pricing."""
    indicator = group_label_indicator(data.labels, data.protected)
    totals = indicator.sum(axis=0)
    if totals.min() == 0:
        raise ValueError("baseline EOD undefined: a protected group lacks "
                         "positive or negative labels in the validation split")
    return indicator, totals


class CostEvaluator:
    """Prices masks on a fixed (model, validation) pair, memoized by state key.

    Cost evaluation runs a full validation forward pass and dominates search
    runtime, while walks revisit states constantly; the cache is scoped to
    one evaluator (one run), never shared.  Everything that does not depend
    on the mask is done once, when the evaluator is built: the labels and
    protected bits are checked and folded into ``split_indicator``'s
    (group, label) indicator and totals, and the forward pass caches its
    first hidden layer (``MaskedForward``).

    A mask's *prefix* is its bits in every hidden layer but the last
    (``MaskedForward.prefix_bits``, from the model's ``neuron_order``).
    The last hidden layer's activations depend on the prefix alone, so a
    walk's flips in the last layer leave them as they were.  The evaluator
    keeps those of the two most recent prefixes in float32 buffers of its
    own, and a price whose prefix is one of them runs only the output
    layer; a new prefix runs the hidden layers for its one mask
    (``MaskedForward._batch_hidden``).  A price is then the batched pass's
    own steps for one mask: one float32 GEMV of its output row
    (``MaskedForward._output_rows``) against that layer, its predictions
    certified as 0.0/1.0 (``MaskedForward._certified``), and one GEMV of
    them against the (4, rows) float32 indicator, which counts the mask's
    predicted positives per (group, label); ``_count_cost`` prices the
    counts.  ``evaluate_many`` prices many masks in one factored pass.
    """

    def __init__(self, model: MlpModel, validation_data: TabularDataset, params: CostParams):
        self.params = params
        indicator, self._totals = split_indicator(validation_data)
        # (4, rows): one GEMV of a float32 0/1 row against it counts a mask
        self._indicator = np.ascontiguousarray(indicator.T)
        # the totals, F1 floor and penalty that every price reads
        self._cost_terms = (tuple(self._totals.tolist()), params.f1_floor, params.penalty)
        self._forward = forward = MaskedForward(model, validation_data.features)
        self._prefix_mask = forward._prefix_key
        units = len(forward.suffix_bits)
        rows = len(indicator)
        # a walk price's logits and its predictions as 0.0/1.0, one mask each
        self._z, self._preds = np.empty((2, 1, rows), dtype=np.float32)
        # (prefix, its last hidden layer as MaskedForward._batch_hidden lays it
        # out), most recent first; the batched pass's own buffers are
        # overwritten by its next call, so they are never kept
        self._recent = [(None, np.ones((1, units + 1, rows), dtype=np.float32))
                        for _ in range(2)]
        self._cache: dict[int, CostEvaluation] = {}
        self.evaluations = 0

    def price(self, state: DropoutState) -> CostEvaluation:
        """Price one mask, bypassing the memo cache."""
        forward = self._forward
        forward.model.check_mask(state)
        keys = (state.bits,)
        z = None
        row = forward._output_rows(keys)
        if row is not None:
            z = self._z
            np.matmul(row, self._hidden(state.bits & self._prefix_mask), out=z)
        preds = forward._certified(z, keys, self._preds)
        return _count_cost(np.matmul(self._indicator, preds[0]).tolist(), *self._cost_terms)

    def _hidden(self, prefix: int) -> np.ndarray:
        """The last hidden layer (units + 1, rows) for ``prefix``: kept, or
        computed into the buffer of the less recent prefix."""
        recent = self._recent
        if recent[0][0] != prefix:
            if recent[1][0] != prefix:
                recent[1] = (prefix, self._forward._batch_hidden([prefix], out=recent[1][1]))
            recent.reverse()
        return recent[0][1][0]

    def evaluate_many(self, states) -> list[CostEvaluation]:
        """``evaluate`` of each of ``states``, in order, with those not
        memoized priced in one factored pass: they are memoized and counted
        in the order that evaluating them one by one would.

        The fresh states are grouped by prefix.  Each prefix runs through
        the hidden layers once, many prefixes per batch of the batched
        pass, and one float32 GEMM of its members' output rows against its
        last hidden layer gives the group's logits, certified a whole batch
        of prefixes at once as in ``price``.  One more GEMM of their 0.0/1.0
        predictions against the indicator counts each state's predicted
        positives per (group, label), and ``cell_costs`` prices them: the
        values ``price`` gives.
        """
        states = list(states)
        for state in states:
            self._forward.model.check_mask(state)
        fresh = dict.fromkeys(s.bits for s in states if s.bits not in self._cache)
        if fresh:
            groups: dict[int, list[int]] = {}
            for bits in fresh:
                groups.setdefault(bits & self._prefix_mask, []).append(bits)
            prefixes = list(groups)
            # the states' keys by prefix, each group one slice of them
            keys = [bits for group in groups.values() for bits in group]
            ends = np.cumsum([len(group) for group in groups.values()]).tolist()
            forward = self._forward
            rows = forward._output_rows(keys)
            starts = [0, *ends[:-1]]
            positives = np.empty((len(keys), 4))
            for first in range(0, len(ends), forward.batch_size):
                batch = slice(first, first + forward.batch_size)
                lo, hi = starts[first], ends[batch][-1]
                z = None
                preds = np.empty((hi - lo, self._indicator.shape[1]), dtype=np.float32)
                if rows is not None:
                    hidden = forward._batch_hidden(prefixes[batch])
                    z = np.empty_like(preds)
                    for b, (start, end) in enumerate(zip(starts[batch], ends[batch])):
                        np.matmul(rows[start:end], hidden[b], out=z[start - lo:end - lo])
                forward._certified(z, keys[lo:hi], preds)
                positives[lo:hi] = preds @ self._indicator.T
            cost, eod, f1s = cell_costs(positives, self._totals, *self._cost_terms[1:])
            priced = {bits: CostEvaluation(*values)
                      for bits, *values in zip(keys, cost.tolist(), eod.tolist(), f1s.tolist())}
            self._cache.update((bits, priced[bits]) for bits in fresh)
            self.evaluations += len(fresh)
        return [self._cache[s.bits] for s in states]

    def evaluate(self, state: DropoutState) -> CostEvaluation:
        hit = self._cache.get(state.bits)
        if hit is not None:
            self._forward.model.check_mask(state)
            return hit
        result = self.price(state)
        self._cache[state.bits] = result
        self.evaluations += 1
        return result


def baseline_cost_params(model: MlpModel, validation_data: TabularDataset,
                         p: float, t: float) -> CostParams:
    """CostParams anchored to the unmasked model's validation EOD and F1."""
    indicator, totals = split_indicator(validation_data)
    m = cell_metrics(predict_batch(model, validation_data) @ indicator, totals)
    return CostParams(p=p, t=t, eod_baseline=m.eod, f1_baseline=m.f1)


def random_state(bounds: SearchSpaceBounds, rng: XorShift64Star) -> DropoutState:
    """Uniform weight k in [n_l, n_u], then a uniform k-subset of neurons."""
    k = rng.randint(bounds.n_l, bounds.n_u)
    return DropoutState.from_indices(bounds.n_total, rng.sample_indices(bounds.n_total, k))


def _nth_set_bit(bits: int, r: int) -> int:
    """Position of the r-th (from 0) lowest set bit of ``bits``."""
    for _ in range(r):
        bits &= bits - 1
    return (bits & -bits).bit_length() - 1


def generate_neighbor(state: DropoutState, bounds: SearchSpaceBounds,
                      rng: XorShift64Star) -> DropoutState:
    """Uniform draw over the in-bounds Hamming-distance-1 neighbors.

    A flip may set a bit when the weight can rise (weight + 1 <= n_u) and
    clear one when it can fall (weight - 1 >= n_l).  One ``randrange`` over
    those positions, without building their list: every position when the
    weight can both rise and fall, else the set bits (only lowering) or the
    unset bits (only raising).
    """
    can_raise = state.weight + 1 <= bounds.n_u
    can_lower = state.weight - 1 >= bounds.n_l
    if can_raise and can_lower:
        return state.flip(rng.randrange(state.n))
    if can_lower:
        return state.flip(_nth_set_bit(state.bits, rng.randrange(state.weight)))
    if can_raise:
        unset = ~state.bits & ((1 << state.n) - 1)
        return state.flip(_nth_set_bit(unset, rng.randrange(state.n - state.weight)))
    raise SearchSpaceError(f"state of weight {state.weight} has no neighbors "
                           f"within bounds ({bounds.n_l}, {bounds.n_u})")


def worst_case_t0(params: CostParams, bounds: SearchSpaceBounds) -> float:
    """Pessimistic initial temperature (1 + p * EOD_baseline) * (n_u - n_l).

    Scales the largest possible cost (EOD plus full penalty) by the width of
    the weight window, i.e. the depth of the wells the walk may need to climb
    out of.  Requires n_u > n_l.
    """
    if bounds.n_u <= bounds.n_l:
        raise SearchSpaceError("worst-case t0 needs n_u > n_l")
    return (1.0 + params.penalty) * (bounds.n_u - bounds.n_l)


def _mean_acceptance(deltas: list[float], t: float) -> float:
    return sum(math.exp(-d / t) for d in deltas) / len(deltas)


def _fit_temperature(deltas: list[float], target: float, tol: float = 1e-4) -> float:
    """Solve mean(exp(-d/T)) = target for T > 0.

    Runs the multiplicative back-computation T <- T * ln(chi(T)) / ln(target)
    (exact in one step for a single transition); if it has not converged
    within its iteration budget, falls back to bisection on the same strictly
    increasing acceptance curve.
    """
    t = max(sum(deltas) / len(deltas), 1e-12)
    for _ in range(100):
        chi = _mean_acceptance(deltas, t)
        if abs(chi - target) <= tol:
            return t
        if chi <= 0.0:
            t *= 2.0
            continue
        t = t * (math.log(chi) / math.log(target))

    lo, hi = t, t
    while _mean_acceptance(deltas, lo) > target:
        lo /= 2.0
    while _mean_acceptance(deltas, hi) < target:
        hi *= 2.0
    for _ in range(200):
        mid = (lo + hi) / 2.0
        chi = _mean_acceptance(deltas, mid)
        if abs(chi - target) <= tol:
            return mid
        if chi < target:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2.0


def _sample_positive_transitions(evaluator: CostEvaluator, bounds: SearchSpaceBounds,
                                 rng: XorShift64Star, sample_size: int,
                                 deadline: float | None = None) -> list[float]:
    """Up to ``sample_size`` positive cost deltas of random transitions, out
    of at most max(100, 10 * sample_size) of them.

    Transitions are drawn in chunks of as many pairs as deltas are still
    wanted (or draws left, if fewer), so a chunk never holds a pair that
    drawing one pair at a time would not have drawn, and each chunk's
    states are priced in one ``CostEvaluator.evaluate_many``: the deltas,
    the draws after them and the evaluator's memo and count are those of
    drawing and pricing one pair at a time.  Drawing stops early, between
    chunks, once ``time.perf_counter()`` passes ``deadline``.
    """
    deltas: list[float] = []
    draws = max(100, 10 * sample_size)
    while draws > 0 and len(deltas) < sample_size:
        if deadline is not None and time.perf_counter() > deadline:
            break
        pairs = min(draws, sample_size - len(deltas))
        draws -= pairs
        states = []
        for _ in range(pairs):
            s = random_state(bounds, rng)
            states += (generate_neighbor(s, bounds, rng), s)
        costs = [e.cost for e in evaluator.evaluate_many(states)]
        for cost_next, cost in zip(costs[::2], costs[1::2]):
            if cost_next > cost:
                deltas.append(cost_next - cost)
    return deltas


def _estimate_t0(evaluator: CostEvaluator, bounds: SearchSpaceBounds, rng: XorShift64Star,
                 target_acceptance: float, sample_size: int,
                 deadline: float | None = None) -> float:
    """Back-compute T0 so sampled uphill moves are accepted at the target rate.

    Fits T so the mean of exp(-dE/T) over the sampled cost increases equals
    ``target_acceptance`` to within 1e-4.  If no cost-increasing pair turns
    up within the draw and time budget, returns the worst-case bound instead
    (with a warning).
    """
    deltas = _sample_positive_transitions(evaluator, bounds, rng, sample_size, deadline)
    if not deltas:
        t0 = worst_case_t0(evaluator.params, bounds)
        warnings.warn("no cost-increasing transition found while estimating the "
                      "initial temperature within its draw and time budget; "
                      f"using the worst-case bound {t0}",
                      stacklevel=2)
        return t0
    return _fit_temperature(deltas, target_acceptance)


@dataclass(frozen=True)
class SearchConfig:
    """Knobs for one search run; at least one stopping criterion is required.

    ``time_limit_s`` is a wall-clock budget for the whole run, T0 estimation
    included: estimation checks it between the chunks of transitions it
    draws and prices, and the loop checks it before each iteration.
    ``max_iterations`` gives platform-independent, fully deterministic runs.
    """

    alg_type: str
    bounds: SearchSpaceBounds
    cost_params: CostParams
    seed: int
    max_iterations: int | None = None
    time_limit_s: float | None = None
    t0_mode: str = "ben_ameur"
    t0_value: float | None = None
    target_acceptance: float = 0.75
    t0_sample_size: int = 100

    def __post_init__(self):
        # The config rules of the CLI: no bools, NaNs, infinities or
        # fractional counts.
        if self.alg_type not in ALG_TYPES:
            raise ValueError(f"alg_type must be one of {ALG_TYPES}, got {self.alg_type!r}")
        if not has_type(self.seed, int):
            raise ValueError(f"seed must be an integer, got {self.seed!r}")
        if self.max_iterations is None and self.time_limit_s is None:
            raise ValueError("set max_iterations and/or time_limit_s")
        if self.max_iterations is not None and not (has_type(self.max_iterations, int)
                                                    and self.max_iterations >= 0):
            raise ValueError(f"max_iterations must be an integer >= 0, "
                             f"got {self.max_iterations!r}")
        if self.time_limit_s is not None and not (has_type(self.time_limit_s, float)
                                                  and self.time_limit_s > 0):
            raise ValueError(f"time_limit_s must be positive and finite, "
                             f"got {self.time_limit_s!r}")
        if self.t0_mode not in T0_MODES:
            raise ValueError(f"t0_mode must be one of {T0_MODES}, got {self.t0_mode!r}")
        if self.t0_mode == "explicit" and not (has_type(self.t0_value, float)
                                               and self.t0_value > 0):
            raise ValueError(f"explicit t0_mode needs a positive, finite t0_value, "
                             f"got {self.t0_value!r}")
        if not (has_type(self.target_acceptance, float) and 0.0 < self.target_acceptance < 1.0):
            raise ValueError(f"target_acceptance must lie in (0, 1), "
                             f"got {self.target_acceptance!r}")
        if not (has_type(self.t0_sample_size, int) and self.t0_sample_size >= 1):
            raise ValueError(f"t0_sample_size must be >= 1 and an integer, "
                             f"got {self.t0_sample_size!r}")


class TraceRecord(NamedTuple):
    """One search iteration: the candidate evaluated, whether it was accepted,
    and the running best cost after the update.

    ``hamming_weight`` and ``state_key_hex`` describe the candidate.
    ``elapsed_ms`` is wall-clock from the start of the run (before T0
    estimation) when a time limit governs the run and 0.0 otherwise, so
    iteration-bounded runs trace identically across executions.  A named
    tuple whose fields are the trace file's columns: the walk builds one per
    iteration, at a fraction of a frozen dataclass's cost.
    """

    iteration: int
    elapsed_ms: float
    temperature: float
    candidate_cost: float
    accepted: bool
    best_cost: float
    hamming_weight: int
    state_key_hex: str


TRACE_COLUMNS = TraceRecord._fields


@dataclass(frozen=True)
class SearchResult:
    best_state: DropoutState
    best_cost: float
    best_eod: float
    success: bool
    trace: tuple[TraceRecord, ...]
    evaluations: int
    t0: float
    initial_cost: float


def run_search(model: MlpModel, validation_data: TabularDataset,
               config: SearchConfig) -> SearchResult:
    """One annealing or random-walk run over the bounded mask space.

    Order of random draws (pinned for reproducibility): the initial state,
    then the temperature-estimation transitions (ben_ameur mode only), then
    per iteration the neighbor draw and, for annealing uphill moves, the
    acceptance draw.  Downhill or equal-cost moves are always accepted; the
    random walk accepts every candidate.  The best state tracks
    every evaluated candidate with cost <= the incumbent best, so the most
    recent tie wins.  Success means the best state's validation F1 stayed at
    or above t * F1_baseline.
    """
    bounds = config.bounds
    params = config.cost_params
    if bounds.n_total != model.hidden_total:
        raise SearchSpaceError(f"bounds cover {bounds.n_total} neurons, "
                               f"model has {model.hidden_total}")
    timed = config.time_limit_s is not None
    start = time.perf_counter()
    deadline = start + config.time_limit_s if timed else None
    rng = XorShift64Star(config.seed)
    evaluator = CostEvaluator(model, validation_data, params)

    current = random_state(bounds, rng)
    current_cost = evaluator.evaluate(current).cost
    best = current
    best_cost = current_cost
    initial_cost = current_cost

    if config.t0_mode == "explicit":
        t0 = config.t0_value
    elif config.t0_mode == "worst_case":
        t0 = worst_case_t0(params, bounds)
    else:
        t0 = _estimate_t0(evaluator, bounds, rng, config.target_acceptance,
                          config.t0_sample_size, deadline)
    schedule = TemperatureSchedule(t0)

    trace: list[TraceRecord] = []
    key_format = key_hex_format(bounds.n_total)
    m = 0
    while True:
        if config.max_iterations is not None and m >= config.max_iterations:
            break
        elapsed = time.perf_counter() - start if timed else 0.0
        if timed and elapsed > config.time_limit_s:
            break
        temperature = schedule.temperature(m)
        candidate = generate_neighbor(current, bounds, rng)
        candidate_cost = evaluator.evaluate(candidate).cost

        delta = candidate_cost - current_cost
        if delta <= 0.0 or config.alg_type == "rw":
            accepted = True
        else:
            accepted = math.exp(-delta / temperature) >= rng.random()
        if accepted:
            current = candidate
            current_cost = candidate_cost
        if candidate_cost <= best_cost:
            best = candidate
            best_cost = candidate_cost

        # positional: keywords double a record's cost
        trace.append(TraceRecord(m, elapsed * 1000.0 if timed else 0.0, temperature,
                                 candidate_cost, accepted, best_cost, candidate.weight,
                                 format(candidate.bits, key_format)))
        m += 1

    best_eval = evaluator.evaluate(best)
    return SearchResult(
        best_state=best,
        best_cost=best_cost,
        best_eod=best_eval.eod,
        success=best_eval.f1 >= params.f1_floor,
        trace=tuple(trace),
        evaluations=evaluator.evaluations,
        t0=t0,
        initial_cost=initial_cost,
    )


def trace_csv_text(trace) -> str:
    """Render trace records in the fixed trace-file column order."""
    # %d writes a bool as 1 or 0, and %r a float as its repr
    return ",".join(TRACE_COLUMNS) + "\n" + "".join(
        "%d,%r,%r,%r,%d,%r,%d,%s\n" % r for r in trace)


def write_trace_csv(path, trace) -> None:
    atomic_write_text(path, trace_csv_text(trace))
