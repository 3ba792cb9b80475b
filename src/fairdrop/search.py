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
import time
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .dataset import TabularDataset
from .ioutil import atomic_write_text
from .metrics import cell_metrics, group_label_key, prediction_metrics
from .model import MaskedForward, MlpModel, predict_batch
from .prng import XorShift64Star

TRACE_COLUMNS = ("iteration", "elapsed_ms", "temperature", "candidate_cost",
                 "accepted", "best_cost", "hamming_weight", "state_key_hex")

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
        if self.n_total < 1:
            raise SearchSpaceError(f"n_total must be positive, got {self.n_total}")
        if not 0 <= self.n_l <= self.n_u <= self.n_total:
            raise SearchSpaceError(f"need 0 <= n_l <= n_u <= {self.n_total}, "
                                   f"got n_l={self.n_l}, n_u={self.n_u}")

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
    def empty(cls, n: int) -> "DropoutState":
        return cls(n=n, bits=0)

    @classmethod
    def from_indices(cls, n: int, indices) -> "DropoutState":
        bits = 0
        for i in indices:
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
        if not 0 <= self.p < math.inf:
            raise ValueError("penalty multiplier p must be finite and >= 0")
        if not 0.0 < self.t < 1.0:
            raise ValueError("threshold multiplier t must lie in (0, 1)")
        if not 0.0 <= self.eod_baseline <= 1.0:
            raise ValueError("eod_baseline must lie in [0, 1]")
        if not 0.0 <= self.f1_baseline <= 1.0:
            raise ValueError("f1_baseline must lie in [0, 1]")

    @property
    def f1_floor(self) -> float:
        return self.t * self.f1_baseline


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
    penalty = params.p * params.eod_baseline if f1_s < params.t * params.f1_baseline else 0.0
    return eod_s + penalty


class CostEvaluation(NamedTuple):
    cost: float
    eod: float | None
    f1: float


class CostEvaluator:
    """Prices masks on a fixed (model, validation) pair, memoized by state key.

    Cost evaluation runs a full validation forward pass and dominates search
    runtime, while walks revisit states constantly; the cache is scoped to
    one evaluator (one run), never shared.  Everything that does not depend
    on the mask is done once, when the evaluator is built: the labels and
    protected bits are checked and folded into one cell key per row, and the
    forward pass caches its first hidden layer (``MaskedForward``).  A price
    is then a batch of one through the certified batched pass
    (``MaskedForward.predict_many``), one ``bincount`` of eight cells and
    the cost formula.
    """

    def __init__(self, model: MlpModel, validation_data: TabularDataset, params: CostParams):
        self.model = model
        self.params = params
        self._forward = MaskedForward(model, validation_data.features)
        self._key = group_label_key(validation_data.labels, validation_data.protected)
        self._cell = np.empty_like(self._key)
        self._cache: dict[int, CostEvaluation] = {}
        self.evaluations = 0

    def price(self, state: DropoutState) -> CostEvaluation:
        """Price one mask, bypassing the memo cache."""
        preds = self._forward.predict_many(self._forward.keep(state)[None])
        np.add(self._key, preds[0], out=self._cell)
        m = cell_metrics(np.bincount(self._cell, minlength=8))
        return CostEvaluation(cost=penalized_cost(m.eod, m.f1, self.params), eod=m.eod, f1=m.f1)

    def evaluate(self, state: DropoutState) -> CostEvaluation:
        hit = self._cache.get(state.bits)
        if hit is not None:
            return hit
        result = self.price(state)
        self._cache[state.bits] = result
        self.evaluations += 1
        return result


def baseline_cost_params(model: MlpModel, validation_data: TabularDataset,
                         p: float, t: float) -> CostParams:
    """CostParams anchored to the unmasked model's validation EOD and F1."""
    m = prediction_metrics(predict_batch(model, validation_data),
                           validation_data.labels, validation_data.protected)
    if m.eod is None:
        raise ValueError("baseline EOD undefined: a protected group lacks "
                         "positive or negative labels in the validation split")
    return CostParams(p=p, t=t, eod_baseline=m.eod, f1_baseline=m.f1)


def random_state(bounds: SearchSpaceBounds, rng: XorShift64Star) -> DropoutState:
    """Uniform weight k in [n_l, n_u], then a uniform k-subset of neurons."""
    k = rng.randint(bounds.n_l, bounds.n_u)
    return DropoutState.from_indices(bounds.n_total, rng.sample_indices(bounds.n_total, k))


def valid_flip_positions(state: DropoutState, bounds: SearchSpaceBounds) -> list[int]:
    """Bit positions whose flip keeps the weight inside [n_l, n_u]."""
    can_raise = state.weight + 1 <= bounds.n_u
    can_lower = state.weight - 1 >= bounds.n_l
    return [i for i in range(state.n)
            if (can_lower if state.bits >> i & 1 else can_raise)]


def _nth_set_bit(bits: int, r: int) -> int:
    """Position of the r-th (from 0) lowest set bit of ``bits``."""
    for _ in range(r):
        bits &= bits - 1
    return (bits & -bits).bit_length() - 1


def generate_neighbor(state: DropoutState, bounds: SearchSpaceBounds,
                      rng: XorShift64Star) -> DropoutState:
    """Uniform draw over the in-bounds Hamming-distance-1 neighbors.

    One ``randrange`` over ``valid_flip_positions(state, bounds)``, without
    building the list: every position when the weight can both rise and
    fall, else the set bits (only lowering) or the unset bits (only raising).
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
    return (1.0 + params.p * params.eod_baseline) * (bounds.n_u - bounds.n_l)


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
    """Up to ``sample_size`` positive cost deltas of random transitions; draws
    stop early once ``time.perf_counter()`` passes ``deadline``."""
    deltas: list[float] = []
    max_draws = max(100, 10 * sample_size)
    for _ in range(max_draws):
        if len(deltas) >= sample_size:
            break
        if deadline is not None and time.perf_counter() > deadline:
            break
        s = random_state(bounds, rng)
        s_next = generate_neighbor(s, bounds, rng)
        d = evaluator.evaluate(s_next).cost - evaluator.evaluate(s).cost
        if math.isfinite(d) and d > 0.0:
            deltas.append(d)
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
    included: estimation stops drawing once it is spent, and the loop checks
    it before each iteration.  ``max_iterations`` gives platform-independent,
    fully deterministic runs.
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
        if self.alg_type not in ALG_TYPES:
            raise ValueError(f"alg_type must be one of {ALG_TYPES}, got {self.alg_type!r}")
        if self.max_iterations is None and self.time_limit_s is None:
            raise ValueError("set max_iterations and/or time_limit_s")
        if self.max_iterations is not None and self.max_iterations < 0:
            raise ValueError("max_iterations must be >= 0")
        if self.time_limit_s is not None and not 0 < self.time_limit_s < math.inf:
            raise ValueError("time_limit_s must be positive and finite")
        if self.t0_mode not in T0_MODES:
            raise ValueError(f"t0_mode must be one of {T0_MODES}, got {self.t0_mode!r}")
        if self.t0_mode == "explicit" and (self.t0_value is None
                                           or not 0 < self.t0_value < math.inf):
            raise ValueError("explicit t0_mode needs a positive, finite t0_value")
        if not 0.0 < self.target_acceptance < 1.0:
            raise ValueError("target_acceptance must lie in (0, 1)")
        if self.t0_sample_size < 1:
            raise ValueError("t0_sample_size must be >= 1")


@dataclass(frozen=True)
class TraceRecord:
    """One search iteration: the candidate evaluated, whether it was accepted,
    and the running best cost after the update.

    ``hamming_weight`` and ``state_key_hex`` describe the candidate.
    ``elapsed_ms`` is wall-clock from the start of the run (before T0
    estimation) when a time limit governs the run and 0.0 otherwise, so
    iteration-bounded runs trace identically across executions.
    """

    iteration: int
    elapsed_ms: float
    temperature: float
    candidate_cost: float
    accepted: bool
    best_cost: float
    hamming_weight: int
    state_key_hex: str


@dataclass(frozen=True)
class SearchResult:
    best_state: DropoutState
    best_cost: float
    best_eod: float | None
    best_f1: float
    success: bool
    trace: tuple[TraceRecord, ...]
    evaluations: int
    t0: float
    initial_state: DropoutState
    initial_cost: float


def run_search(model: MlpModel, validation_data: TabularDataset,
               config: SearchConfig) -> SearchResult:
    """One annealing or random-walk run over the bounded mask space.

    Order of random draws (pinned for reproducibility): the initial state,
    then the temperature-estimation transitions (ben_ameur mode only), then
    per iteration the neighbor draw and, for annealing uphill moves, the
    acceptance draw.  Downhill or equal-cost moves are always accepted; the
    random walk accepts every finite-cost candidate.  The best state tracks
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
    initial = current
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

        if not math.isfinite(candidate_cost):
            accepted = False  # undefined-EOD states are never entered, even by RW
        else:
            delta = candidate_cost - current_cost
            if delta <= 0.0:
                accepted = True
            elif config.alg_type == "rw":
                accepted = True
            else:
                accepted = math.exp(-delta / temperature) >= rng.random()
        if accepted:
            current = candidate
            current_cost = candidate_cost
        if math.isfinite(candidate_cost) and candidate_cost <= best_cost:
            best = candidate
            best_cost = candidate_cost

        trace.append(TraceRecord(
            iteration=m,
            elapsed_ms=elapsed * 1000.0 if timed else 0.0,
            temperature=temperature,
            candidate_cost=candidate_cost,
            accepted=accepted,
            best_cost=best_cost,
            hamming_weight=candidate.weight,
            state_key_hex=candidate.key_hex(),
        ))
        m += 1

    best_eval = evaluator.evaluate(best)
    return SearchResult(
        best_state=best,
        best_cost=best_cost,
        best_eod=best_eval.eod,
        best_f1=best_eval.f1,
        success=best_eval.f1 >= params.f1_floor,
        trace=tuple(trace),
        evaluations=evaluator.evaluations,
        t0=t0,
        initial_state=initial,
        initial_cost=initial_cost,
    )


def trace_csv_text(trace) -> str:
    """Render trace records in the fixed trace-file column order."""
    lines = [",".join(TRACE_COLUMNS)]
    for r in trace:
        lines.append(",".join((
            str(r.iteration),
            repr(r.elapsed_ms),
            repr(r.temperature),
            repr(r.candidate_cost),
            "1" if r.accepted else "0",
            repr(r.best_cost),
            str(r.hamming_weight),
            r.state_key_hex,
        )))
    return "\n".join(lines) + "\n"


def write_trace_csv(path, trace) -> None:
    atomic_write_text(path, trace_csv_text(trace))
