import math
import time
from collections import Counter, deque

import numpy as np
import pytest

import fairdrop as fd
from fairdrop.metrics import confusion, f1, fairness
from fairdrop.oracle import enumerate_best, iter_states
from fairdrop.prng import XorShift64Star
from fairdrop.search import (CostEvaluator, CostParams, DropoutState, SearchConfig,
                             SearchSpaceBounds, SearchSpaceError, TemperatureSchedule,
                             _estimate_t0, _fit_temperature, _mean_acceptance,
                             generate_neighbor, penalized_cost, random_state,
                             trace_csv_text, valid_flip_positions, worst_case_t0)

from conftest import bounds, random_small_model, reference_predictions

PARAMS = CostParams(p=3.0, t=0.98, eod_baseline=0.10, f1_baseline=0.68)


class TestBounds:
    def test_validation(self):
        with pytest.raises(SearchSpaceError):
            SearchSpaceBounds(8, 3, 2)
        with pytest.raises(SearchSpaceError):
            SearchSpaceBounds(8, 0, 9)

    def test_degenerate_bounds_warn(self):
        with pytest.warns(UserWarning):
            SearchSpaceBounds(8, 3, 3)

    def test_cardinality_binomial_sums(self):
        assert bounds(6, 2, 3).size() == 15 + 20
        assert bounds(16, 2, 4).size() == 120 + 560 + 1820
        assert bounds(16, 2, 4).size() == 2500
        assert bounds(4, 0, 4).size() == 16


class TestDropoutState:
    def test_from_indices_and_back(self):
        s = DropoutState.from_indices(8, (1, 5))
        assert s.weight == 2
        assert s.indices() == (1, 5)
        assert s.bits >> 1 & 1 == 1 and s.bits >> 0 & 1 == 0

    def test_flip(self):
        s = DropoutState.empty(4).flip(2)
        assert s.indices() == (2,)
        assert s.flip(2).weight == 0

    def test_duplicate_index_rejected(self):
        with pytest.raises(ValueError):
            DropoutState.from_indices(4, (1, 1))

    def test_key_hex_width(self):
        assert DropoutState.from_indices(16, (0,)).key_hex() == "0001"
        assert DropoutState.from_indices(16, range(16)).key_hex() == "ffff"
        assert DropoutState.empty(5).key_hex() == "00"


class TestCostFunction:
    def test_default_instantiation_penalized(self):
        # F1 0.60 below floor 0.98 * 0.68 = 0.6664: cost 0.05 + 3 * 0.10
        assert penalized_cost(0.05, 0.60, PARAMS) == pytest.approx(0.35, abs=1e-12)

    def test_above_floor_no_penalty(self):
        assert penalized_cost(0.05, 0.67, PARAMS) == pytest.approx(0.05, abs=1e-12)

    def test_floor_boundary_is_strict_less_than(self):
        floor = PARAMS.t * PARAMS.f1_baseline
        assert penalized_cost(0.05, floor, PARAMS) == pytest.approx(0.05, abs=1e-12)
        assert penalized_cost(0.05, np.nextafter(floor, 0.0), PARAMS) == \
            pytest.approx(0.35, abs=1e-12)

    def test_zero_penalty_multiplier(self):
        params = CostParams(p=0.0, t=0.98, eod_baseline=0.10, f1_baseline=0.68)
        assert penalized_cost(0.42, 0.0, params) == pytest.approx(0.42, abs=1e-12)

    def test_undefined_eod_prices_infinite(self):
        assert penalized_cost(None, 0.9, PARAMS) == math.inf

    def test_empty_mask_cost_is_baseline_eod(self, small_instance):
        parts, model, params = small_instance
        evaluator = CostEvaluator(model, parts.validation, params)
        c = evaluator.evaluate(DropoutState.empty(model.hidden_total)).cost
        assert c == pytest.approx(params.eod_baseline, abs=1e-12)

    def test_cost_lower_bound_is_eod(self, small_instance):
        parts, model, params = small_instance
        evaluator = CostEvaluator(model, parts.validation, params)
        rng = XorShift64Star(3)
        b = bounds(model.hidden_total, 2, 5)
        for _ in range(50):
            ev = evaluator.evaluate(random_state(b, rng))
            assert ev.cost >= ev.eod
            penalized = ev.f1 < params.t * params.f1_baseline
            assert ev.cost == pytest.approx(
                ev.eod + (params.p * params.eod_baseline if penalized else 0.0), abs=1e-15)

    def test_memoization_counts_misses_only(self, small_instance):
        parts, model, params = small_instance
        evaluator = CostEvaluator(model, parts.validation, params)
        s = DropoutState.from_indices(model.hidden_total, (1, 3))
        first = evaluator.evaluate(s)
        again = evaluator.evaluate(s)
        assert first == again
        assert evaluator.evaluations == 1

    def test_params_validation(self):
        with pytest.raises(ValueError):
            CostParams(p=-1.0, t=0.98, eod_baseline=0.1, f1_baseline=0.5)
        with pytest.raises(ValueError):
            CostParams(p=1.0, t=1.0, eod_baseline=0.1, f1_baseline=0.5)
        with pytest.raises(ValueError):
            CostParams(p=1.0, t=0.9, eod_baseline=1.1, f1_baseline=0.5)


class TestCostEvaluatorExactness:
    """The evaluator's cached, buffered path against the reference metrics."""

    @staticmethod
    def reference_price(model, data, state, params):
        preds = reference_predictions(model, data.features, state)
        eod = fairness(preds, data.labels, data.protected).eod
        f1_s = f1(confusion(preds, data.labels))
        return penalized_cost(eod, f1_s, params), eod, f1_s

    def test_random_masks_equal_reference(self, small_instance):
        parts, model, params = small_instance
        evaluator = CostEvaluator(model, parts.validation, params)
        rng = XorShift64Star(17)
        b = bounds(model.hidden_total, 0, model.hidden_total)
        for _ in range(300):
            state = random_state(b, rng)
            assert tuple(evaluator.price(state)) == self.reference_price(
                model, parts.validation, state, params), state.key_hex()

    def test_undefined_eod_prices_infinite(self, small_instance):
        parts, model, params = small_instance
        v = parts.validation
        # group 1 keeps no positive label: its TPR, hence EOD, is undefined
        labels = np.where(v.protected == 1, 0, v.labels)
        data = fd.TabularDataset(v.features, labels, v.protected, v.feature_names)
        evaluator = CostEvaluator(model, data, params)
        rng = XorShift64Star(5)
        b = bounds(model.hidden_total, 0, 6)
        for _ in range(50):
            state = random_state(b, rng)
            ev = evaluator.price(state)
            assert ev.cost == math.inf and ev.eod is None
            assert tuple(ev) == self.reference_price(model, data, state, params)

    @pytest.mark.parametrize("column", ["labels", "protected"])
    def test_non_binary_vectors_rejected_at_construction(self, small_instance, column):
        parts, model, params = small_instance
        v = parts.validation
        bad = {"labels": v.labels.copy(), "protected": v.protected.copy()}
        bad[column][3] = 2
        data = fd.TabularDataset(v.features, bad["labels"], bad["protected"], v.feature_names)
        with pytest.raises(ValueError, match=f"{column} must contain only 0 and 1"):
            CostEvaluator(model, data, params)


class TestTemperature:
    def test_first_iteration(self):
        sched = TemperatureSchedule(2.0)
        assert sched.temperature(0) == pytest.approx(2.0 / math.log(2), abs=1e-12)

    def test_m5(self):
        sched = TemperatureSchedule(1.0)
        assert sched.temperature(5) == pytest.approx(1.0 / math.log(7), abs=1e-12)

    def test_strictly_decreasing(self):
        sched = TemperatureSchedule(3.7)
        temps = [sched.temperature(m) for m in range(2000)]
        assert all(a > b for a, b in zip(temps, temps[1:]))

    def test_positive_t0_required(self):
        with pytest.raises(ValueError):
            TemperatureSchedule(0.0)


class TestWorstCaseT0:
    def test_direct_formula(self):
        params = CostParams(p=3.0, t=0.98, eod_baseline=0.10, f1_baseline=0.68)
        assert worst_case_t0(params, bounds(32, 2, 20)) == pytest.approx(23.4, abs=1e-12)

    def test_zero_penalty(self):
        params = CostParams(p=0.0, t=0.98, eod_baseline=0.10, f1_baseline=0.68)
        assert worst_case_t0(params, bounds(32, 2, 20)) == 18.0

    def test_zero_baseline_eod(self):
        params = CostParams(p=3.0, t=0.98, eod_baseline=0.0, f1_baseline=0.68)
        assert worst_case_t0(params, bounds(32, 2, 20)) == 18.0

    def test_degenerate_bounds_rejected(self):
        with pytest.raises(SearchSpaceError):
            worst_case_t0(PARAMS, bounds(8, 3, 3))


class TestTemperatureFit:
    def test_single_transition_closed_form(self):
        t = _fit_temperature([0.1], 0.75)
        assert t == pytest.approx(-0.1 / math.log(0.75), abs=1e-6)
        assert t == pytest.approx(0.3476059496782207, abs=1e-6)

    def test_two_transitions_pinned_bisection_value(self):
        # independent 200-step bisection oracle gave T* = 0.512951574426
        t = _fit_temperature([0.1, 0.2], 0.75)
        assert abs(_mean_acceptance([0.1, 0.2], t) - 0.75) <= 1e-4
        assert t == pytest.approx(0.512951574426, rel=1e-3)

    def test_higher_target_higher_temperature(self):
        deltas = [0.05, 0.4, 0.11]
        assert _fit_temperature(deltas, 0.99) > _fit_temperature(deltas, 0.75)

    def test_estimator_on_real_instance(self, small_instance):
        parts, model, params = small_instance
        b = bounds(model.hidden_total, 2, 5)
        evaluator = CostEvaluator(model, parts.validation, params)
        t = _estimate_t0(evaluator, b, XorShift64Star(4), 0.75, sample_size=40)
        assert t > 0

    def test_estimator_argument_validation(self):
        # SearchConfig checks the estimator's settings for every run
        for setting, value in (("target_acceptance", 1.0), ("target_acceptance", 1.5),
                               ("target_acceptance", 0.0), ("target_acceptance", -0.5),
                               ("target_acceptance", math.nan), ("t0_sample_size", 0),
                               ("t0_sample_size", -3)):
            with pytest.raises(ValueError, match=setting):
                SearchConfig(alg_type="sa", bounds=bounds(8, 1, 3), cost_params=PARAMS,
                             seed=1, max_iterations=5, **{setting: value})

    def test_flat_landscape_falls_back_with_warning(self):
        # all-zero model: every mask predicts identically, no uphill moves exist
        arch = fd.MlpArchitecture((2, 4, 1))
        model = fd.MlpModel(arch, [np.zeros((4, 2)), np.zeros((1, 4))],
                            [np.zeros(4), np.zeros(1)])
        rng = XorShift64Star(5)
        X = rng.uniform_block(400 * 2).reshape(400, 2)
        y = (rng.uniform_block(400) > 0.5).astype(np.int64)
        prot = (rng.uniform_block(400) > 0.5).astype(np.int64)
        data = fd.TabularDataset(X, y, prot, ("a", "b"))
        params = fd.baseline_cost_params(model, data, p=3.0, t=0.98)
        with pytest.warns(UserWarning, match="worst-case"):
            t = _estimate_t0(CostEvaluator(model, data, params), bounds(4, 1, 3),
                             XorShift64Star(6), 0.75, sample_size=10)
        assert t == worst_case_t0(params, bounds(4, 1, 3))


class TestRandomState:
    def test_forced_weight(self):
        rng = XorShift64Star(1)
        b = bounds(8, 3, 3)
        for _ in range(50):
            assert random_state(b, rng).weight == 3

    def test_weight_within_bounds(self):
        rng = XorShift64Star(2)
        b = bounds(16, 2, 4)
        assert all(2 <= random_state(b, rng).weight <= 4 for _ in range(10_000))

    def test_weight_distribution_roughly_uniform(self):
        rng = XorShift64Star(3)
        b = bounds(16, 2, 4)
        counts = Counter(random_state(b, rng).weight for _ in range(10_000))
        for k in (2, 3, 4):
            assert abs(counts[k] - 10_000 / 3) < 250  # ~5 sigma of Bin(10000, 1/3)


class TestGenerateNeighbor:
    def test_at_upper_bound_only_lowering_flips(self):
        b = bounds(4, 1, 2)
        s = DropoutState.from_indices(4, (0, 1))
        assert valid_flip_positions(s, b) == [0, 1]
        rng = XorShift64Star(4)
        hits = Counter(generate_neighbor(s, b, rng).bits for _ in range(1000))
        assert set(hits) == {s.flip(0).bits, s.flip(1).bits}
        assert all(abs(c - 500) < 80 for c in hits.values())

    def test_at_lower_bound_only_raising_flips(self):
        b = bounds(4, 1, 3)
        s = DropoutState.from_indices(4, (0,))
        assert valid_flip_positions(s, b) == [1, 2, 3]

    def test_interior_state_all_flips_valid(self):
        b = bounds(5, 1, 3)
        s = DropoutState.from_indices(5, (0, 2))
        assert valid_flip_positions(s, b) == [0, 1, 2, 3, 4]

    def test_no_neighbor_raises(self):
        b = bounds(4, 2, 2)
        with pytest.raises(SearchSpaceError):
            generate_neighbor(DropoutState.from_indices(4, (0, 1)), b, XorShift64Star(1))

    def test_draw_picks_the_same_position_as_the_list(self):
        # generate_neighbor makes one randrange(len(flips)) draw and flips
        # flips[r], without building the list; a stub rng returns each r.
        class FixedDraw:
            def __init__(self, r):
                self.r = r
                self.bound = None

            def randrange(self, n):
                self.bound = n
                return self.r

        rng = XorShift64Star(15)
        for _ in range(300):
            n = rng.randint(1, 70)
            lo = rng.randint(0, n)
            b = bounds(n, lo, rng.randint(lo, n))
            s = DropoutState.from_indices(n, rng.sample_indices(n, rng.randint(0, n)))
            flips = valid_flip_positions(s, b)
            if not flips:
                with pytest.raises(SearchSpaceError):
                    generate_neighbor(s, b, FixedDraw(0))
            for r, position in enumerate(flips):
                draw = FixedDraw(r)
                assert generate_neighbor(s, b, draw) == s.flip(position)
                assert draw.bound == len(flips)

    def test_neighbors_are_hamming_distance_one(self):
        b = bounds(10, 2, 5)
        rng = XorShift64Star(5)
        s = random_state(b, rng)
        for _ in range(200):
            t = generate_neighbor(s, b, rng)
            assert (s.bits ^ t.bits).bit_count() == 1
            assert b.n_l <= t.weight <= b.n_u
            s = t


def graph_states_and_adjacency(b: SearchSpaceBounds):
    states = list(iter_states(b))
    adjacency = {s.bits: [s.flip(i).bits for i in valid_flip_positions(s, b)]
                 for s in states}
    return states, adjacency


def bfs_distances(adjacency, start):
    dist = {start: 0}
    queue = deque([start])
    while queue:
        u = queue.popleft()
        for v in adjacency[u]:
            if v not in dist:
                dist[v] = dist[u] + 1
                queue.append(v)
    return dist


class TestSearchGraphStructure:
    def test_connected_and_distance_equals_hamming(self):
        # exhaustive for small spaces: every pair reachable at HD(s, s') steps
        for n, lo, hi in ((4, 1, 2), (5, 0, 2), (6, 2, 4)):
            b = bounds(n, lo, hi)
            states, adjacency = graph_states_and_adjacency(b)
            for s in states:
                dist = bfs_distances(adjacency, s.bits)
                assert len(dist) == len(states)  # connected
                for t in states:
                    assert dist[t.bits] == (s.bits ^ t.bits).bit_count()

    def test_fixed_weight_graph_has_no_edges(self):
        b = bounds(6, 2, 2)
        _, adjacency = graph_states_and_adjacency(b)
        assert all(not neighbors for neighbors in adjacency.values())


def run(model, validation, params, alg, seed, iters, n_l=2, n_u=4, **kw):
    config = SearchConfig(alg_type=alg, bounds=bounds(model.hidden_total, n_l, n_u),
                          cost_params=params, seed=seed, max_iterations=iters, **kw)
    return fd.run_search(model, validation, config)


class TestRunSearch:
    def test_zero_iterations_returns_initial(self, small_instance):
        parts, model, params = small_instance
        res = run(model, parts.validation, params, "sa", 3, 0)
        assert res.trace == ()
        assert res.best_state == res.initial_state
        assert res.best_cost == res.initial_cost

    def test_sa_matches_enumeration_on_tiny_space(self):
        # N=4 model, bounds (1,2): 10 states, fully enumerable
        model = random_small_model(XorShift64Star(11), (3, 4, 1))
        rng = XorShift64Star(12)
        X = rng.uniform_block(300 * 3).reshape(300, 3)
        y = (X[:, 0] + 0.2 * X[:, 1] > 0.6).astype(np.int64)
        prot = (X[:, 2] > 0.5).astype(np.int64)
        data = fd.TabularDataset(X, y, prot, ("a", "b", "c"))
        params = fd.baseline_cost_params(model, data, p=3.0, t=0.98)
        b = bounds(4, 1, 2)
        _, optimum = enumerate_best(model, data, b, params)
        res = run(model, data, params, "sa", 7, 500, n_l=1, n_u=2)
        assert res.best_cost == optimum
        for seed in (1, 2, 3, 4, 5):
            rw = run(model, data, params, "rw", seed, 500, n_l=1, n_u=2)
            assert rw.best_cost == optimum

    def test_seeded_determinism_bit_identical_traces(self, small_instance):
        parts, model, params = small_instance
        a = run(model, parts.validation, params, "sa", 9, 300)
        b2 = run(model, parts.validation, params, "sa", 9, 300)
        assert a.trace == b2.trace
        assert a.best_state == b2.best_state
        assert trace_csv_text(a.trace) == trace_csv_text(b2.trace)

    def test_trace_invariants(self, small_instance):
        parts, model, params = small_instance
        for alg, seed in (("sa", 1), ("sa", 2), ("rw", 1), ("rw", 2)):
            res = run(model, parts.validation, params, alg, seed, 400)
            assert len(res.trace) == 400
            best_costs = [r.best_cost for r in res.trace]
            assert all(a >= b for a, b in zip(best_costs, best_costs[1:]))
            assert res.best_cost == best_costs[-1]
            prev_cost = res.initial_cost
            for r in res.trace:
                if r.candidate_cost - prev_cost <= 0:
                    assert r.accepted
                if alg == "rw":
                    assert r.accepted
                if r.accepted:
                    prev_cost = r.candidate_cost
                assert 2 <= r.hamming_weight <= 4
                assert r.elapsed_ms == 0.0  # iteration-bounded run

    def test_best_cost_is_minimum_of_evaluated(self, small_instance):
        parts, model, params = small_instance
        res = run(model, parts.validation, params, "sa", 13, 250)
        seen = min([res.initial_cost] + [r.candidate_cost for r in res.trace])
        assert res.best_cost == seen

    def test_explicit_t0_mode(self, small_instance):
        parts, model, params = small_instance
        res = run(model, parts.validation, params, "sa", 1, 50,
                  t0_mode="explicit", t0_value=1.5)
        assert res.t0 == 1.5
        assert res.trace[0].temperature == pytest.approx(1.5 / math.log(2), abs=1e-12)

    def test_worst_case_t0_mode(self, small_instance):
        parts, model, params = small_instance
        res = run(model, parts.validation, params, "sa", 1, 10, t0_mode="worst_case")
        assert res.t0 == worst_case_t0(params, bounds(model.hidden_total, 2, 4))

    def test_time_limit_mode_terminates(self, small_instance):
        parts, model, params = small_instance
        config = SearchConfig(alg_type="sa", bounds=bounds(model.hidden_total, 2, 4),
                              cost_params=params, seed=2, time_limit_s=0.3)
        res = fd.run_search(model, parts.validation, config)
        assert len(res.trace) > 0
        assert res.trace[-1].elapsed_ms <= 2_000  # generous: loop exits after limit

    def test_time_limit_covers_temperature_estimation(self, small_instance, monkeypatch):
        parts, model, params = small_instance
        original = CostEvaluator.price

        def slow_price(self, state):
            time.sleep(0.002)
            return original(self, state)
        monkeypatch.setattr(CostEvaluator, "price", slow_price)
        # unbounded, fitting T0 would price hundreds of masks: over a second
        limit = 0.3
        config = SearchConfig(alg_type="sa", bounds=bounds(model.hidden_total, 2, 5),
                              cost_params=params, seed=2, time_limit_s=limit)
        start = time.perf_counter()
        res = fd.run_search(model, parts.validation, config)
        assert time.perf_counter() - start < limit + 0.25
        assert all(r.elapsed_ms <= limit * 1000.0 for r in res.trace)
        assert math.isfinite(res.best_cost)

    def test_bounds_must_match_model(self, small_instance):
        parts, model, params = small_instance
        config = SearchConfig(alg_type="sa", bounds=bounds(5, 1, 2),
                              cost_params=params, seed=1, max_iterations=5)
        with pytest.raises(SearchSpaceError):
            fd.run_search(model, parts.validation, config)

    def test_config_validation(self):
        b = bounds(8, 1, 3)
        with pytest.raises(ValueError):
            SearchConfig(alg_type="greedy", bounds=b, cost_params=PARAMS, seed=1,
                         max_iterations=5)
        with pytest.raises(ValueError):
            SearchConfig(alg_type="sa", bounds=b, cost_params=PARAMS, seed=1)
        with pytest.raises(ValueError):
            SearchConfig(alg_type="sa", bounds=b, cost_params=PARAMS, seed=1,
                         max_iterations=5, t0_mode="explicit")


class TestTraceCsv:
    def test_exact_header_and_row_shape(self, small_instance):
        parts, model, params = small_instance
        res = run(model, parts.validation, params, "sa", 5, 3)
        text = trace_csv_text(res.trace)
        lines = text.strip().split("\n")
        assert lines[0] == ("iteration,elapsed_ms,temperature,candidate_cost,"
                            "accepted,best_cost,hamming_weight,state_key_hex")
        assert len(lines) == 4
        first = lines[1].split(",")
        assert first[0] == "0"
        assert first[4] in ("0", "1")
        assert len(first) == 8
