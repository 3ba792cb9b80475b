import math

import numpy as np
import pytest

import fairdrop as fd
from fairdrop.oracle import (DEFAULT_ENUMERATION_BUDGET, EnumerationBudgetError,
                             census, enumerate_best, iter_states, per_state_cost_rows,
                             price_space, single_neuron_baseline)
from fairdrop.prng import XorShift64Star
from fairdrop.search import CostEvaluator, CostParams

from conftest import bounds, random_small_model

# Pinned after the first enumeration of the session fixture ([6,8,8,1] model,
# bounds (2,4), 2500 states); regression values for the full pipeline.
PINNED_OPTIMAL_HEX = "00e1"
PINNED_OPTIMAL_COST = 0.03455964325529537
PINNED_CENSUS = (1, 37, 1908)  # best, good, bad


def tiny_data(seed=12, n=300):
    rng = XorShift64Star(seed)
    X = rng.uniform_block(n * 3).reshape(n, 3)
    y = (X[:, 0] + 0.2 * X[:, 1] > 0.6).astype(np.int64)
    prot = (X[:, 2] > 0.5).astype(np.int64)
    return fd.TabularDataset(X, y, prot, ("a", "b", "c"))


class TestIterStates:
    def test_state_count_matches_cardinality(self):
        b = bounds(6, 2, 3)
        states = list(iter_states(b))
        assert len(states) == b.size() == 35
        assert len({s.bits for s in states}) == 35
        assert all(2 <= s.weight <= 3 for s in states)

    def test_n4_bounds_1_2_is_ten_states(self):
        assert len(list(iter_states(bounds(4, 1, 2)))) == 10


class TestEnumerateBest:
    def test_evaluation_count_is_cardinality(self):
        model = random_small_model(XorShift64Star(11), (3, 4, 1))
        data = tiny_data()
        params = fd.baseline_cost_params(model, data, p=3.0, t=0.98)
        evaluator = CostEvaluator(model, data, params)
        b = bounds(4, 1, 2)
        best = None
        for s in iter_states(b):
            c = evaluator.evaluate(s).cost
            if best is None or c < best:
                best = c
        assert evaluator.evaluations == 10
        _, cost = enumerate_best(model, data, b, params)
        assert cost == best

    def test_dominates_randomized_search(self):
        model = random_small_model(XorShift64Star(21), (3, 5, 1))
        data = tiny_data(seed=22)
        params = fd.baseline_cost_params(model, data, p=3.0, t=0.98)
        b = bounds(5, 1, 3)
        _, optimum = enumerate_best(model, data, b, params)
        for alg in ("sa", "rw"):
            for seed in (1, 2, 3):
                res = fd.run_search(model, data, fd.SearchConfig(
                    alg_type=alg, bounds=b, cost_params=params, seed=seed,
                    max_iterations=200))
                assert res.best_cost >= optimum

    def test_tie_break_smallest_key(self):
        # all-zero model: all masks cost the same, smallest key must win
        arch = fd.MlpArchitecture((3, 4, 1))
        model = fd.MlpModel(arch, [np.zeros((4, 3)), np.zeros((1, 4))],
                            [np.zeros(4), np.zeros(1)])
        data = tiny_data(seed=5, n=200)
        params = fd.baseline_cost_params(model, data, p=3.0, t=0.5001)
        b = bounds(4, 1, 2)
        state, _ = enumerate_best(model, data, b, params)
        assert state.bits == 1  # lowest-key weight-1 state

    def test_tie_break_smallest_key_enumerated_later(self):
        # Hidden units output a constant 1, so the model predicts all ones
        # (cost 0) exactly when the dropped output weights sum to at most -1.5:
        # for {2} (key 0b100, enumerated third), for {0, 1} (key 0b11, enumerated
        # after every weight-1 state) and for their supersets.  Every other mask
        # predicts all zeros and pays the F1 penalty.
        arch = fd.MlpArchitecture((3, 4, 1))
        model = fd.MlpModel(arch, [np.zeros((4, 3)), np.array([[-1.0, -1.0, -2.0, -0.1]])],
                            [np.ones(4), np.array([2.6])])
        data = tiny_data(seed=5, n=200)
        params = CostParams(p=1.0, t=0.5, eod_baseline=0.2, f1_baseline=0.5)
        b = bounds(4, 1, 2)
        evaluator = CostEvaluator(model, data, params)
        optimal = [s.bits for s in iter_states(b) if evaluator.evaluate(s).cost == 0.0]
        assert optimal[0] == 0b100 and min(optimal) == 0b11
        state, cost = enumerate_best(model, data, b, params)
        assert (state.bits, cost) == (0b11, 0.0)

    def test_budget_refusal_without_enumerating(self):
        model = random_small_model(XorShift64Star(2), (3, 4, 1))
        data = tiny_data()
        params = fd.baseline_cost_params(model, data, p=3.0, t=0.98)
        huge = bounds(4, 0, 4)
        with pytest.raises(EnumerationBudgetError) as exc:
            enumerate_best(model, data, huge, params, budget=10)
        assert exc.value.cardinality == 16
        assert exc.value.budget == 10

    def test_budget_check_is_arithmetic_not_enumeration(self):
        # cardinality beyond any enumerable size computes instantly
        b = bounds(384, 2, 96)
        assert b.size() > DEFAULT_ENUMERATION_BUDGET
        model = random_small_model(XorShift64Star(3), (3, 4, 1))
        data = tiny_data()
        params = fd.baseline_cost_params(model, data, p=3.0, t=0.98)
        with pytest.raises(EnumerationBudgetError):
            census(model, data, b, params)

    def test_pinned_session_fixture_optimum(self, small_instance):
        parts, model, params = small_instance
        state, cost = enumerate_best(model, parts.validation, bounds(16, 2, 4), params)
        assert state.key_hex() == PINNED_OPTIMAL_HEX
        assert cost == pytest.approx(PINNED_OPTIMAL_COST, abs=1e-12)


class TestPriceSpace:
    def test_columns_equal_evaluator_on_every_state(self, small_instance):
        parts, model, params = small_instance
        b = bounds(16, 2, 4)
        space = price_space(model, parts.validation, b, params)
        evaluator = CostEvaluator(model, parts.validation, params)
        states = list(iter_states(b))
        assert len(space.cost) == len(states) == 2500
        assert space.keys.tolist() == [s.bits for s in states]
        for i, state in enumerate(states):
            ev = evaluator.evaluate(state)
            assert space.cost[i] == ev.cost
            assert space.f1[i] == ev.f1
            if ev.eod is None:
                assert math.isnan(space.eod[i])
            else:
                assert space.eod[i] == ev.eod

    def test_keys_wider_than_64_bits(self):
        model = random_small_model(XorShift64Star(41), (3, 40, 30, 1))
        data = tiny_data(seed=42)
        params = fd.baseline_cost_params(model, data, p=3.0, t=0.98)
        b = bounds(70, 1, 1)
        space = price_space(model, data, b, params)
        evaluator = CostEvaluator(model, data, params)
        states = list(iter_states(b))
        assert [row[0] for row in space.rows()] == [s.key_hex() for s in states]
        state, cost = space.best()
        assert cost == min(evaluator.evaluate(s).cost for s in states)
        assert evaluator.evaluate(state).cost == cost

    def test_reductions_match_the_wrappers(self, small_instance):
        parts, model, params = small_instance
        b = bounds(16, 2, 3)
        space = price_space(model, parts.validation, b, params)
        assert space.best() == enumerate_best(model, parts.validation, b, params)
        assert space.census(0.05) == census(model, parts.validation, b, params)
        assert list(space.rows()) == list(per_state_cost_rows(model, parts.validation, b,
                                                              params))


class TestCensus:
    def test_partition_and_likelihoods(self, small_instance):
        parts, model, params = small_instance
        cen = census(model, parts.validation, bounds(16, 2, 4), params)
        assert (cen.best_count, cen.good_count, cen.bad_count) == PINNED_CENSUS
        assert cen.total == 2500
        assert cen.best_count + cen.good_count + cen.bad_count <= cen.total
        ordinary = cen.total - cen.best_count - cen.good_count - cen.bad_count
        total_likelihood = (cen.best_likelihood + cen.good_likelihood +
                            cen.bad_likelihood + ordinary / cen.total)
        assert total_likelihood == pytest.approx(1.0, abs=1e-12)
        assert cen.optimal_cost == pytest.approx(PINNED_OPTIMAL_COST, abs=1e-12)

    def test_impossible_floor_means_no_bad_states(self):
        model = random_small_model(XorShift64Star(31), (3, 4, 1))
        data = tiny_data(seed=32)
        # t tiny: the F1 floor is (almost) unreachable from below
        params = CostParams(p=0.0, t=1e-9, eod_baseline=0.2, f1_baseline=0.5)
        cen = census(model, data, bounds(4, 1, 2), params)
        assert cen.bad_count == 0

    def test_order_independence(self, small_instance):
        # classify states in a shuffled order with independent bookkeeping
        parts, model, params = small_instance
        b = bounds(16, 2, 4)
        cen = census(model, parts.validation, b, params)
        evaluator = CostEvaluator(model, parts.validation, params)
        states = list(iter_states(b))
        XorShift64Star(99).shuffle(states)
        evals = [evaluator.evaluate(s) for s in states]
        optimal = min(e.cost for e in evals)
        floor = params.f1_floor
        bad = sum(e.f1 < floor for e in evals)
        best = sum(e.cost == optimal and e.f1 >= floor for e in evals)
        good = sum(e.cost <= optimal + 0.05 and e.cost != optimal and e.f1 >= floor
                   for e in evals)
        assert optimal == cen.optimal_cost
        assert (best, good, bad) == (cen.best_count, cen.good_count, cen.bad_count)

    def test_margin_validation(self, small_instance):
        parts, model, params = small_instance
        with pytest.raises(ValueError):
            census(model, parts.validation, bounds(16, 2, 4), params, good_margin=-0.1)


class TestSingleNeuronBaseline:
    def test_linear_scan_count_and_identity_with_weight_one_enumeration(self, small_instance):
        parts, model, params = small_instance
        report = single_neuron_baseline(model, parts.validation, parts.test, params)
        assert report["evaluations"] == model.hidden_total == 16
        state, cost = enumerate_best(model, parts.validation,
                                     bounds(model.hidden_total, 1, 1), params)
        assert report["cost"] == cost
        assert state.indices() == (report["neuron_index"],)

    def test_report_fields(self, small_instance):
        parts, model, params = small_instance
        report = single_neuron_baseline(model, parts.validation, parts.test, params)
        assert model.neuron_order[report["neuron_index"]] == (report["layer"], report["unit"])
        for split_name in ("validation", "test"):
            block = report[split_name]
            assert set(block) == {"eod", "f1", "accuracy"}
            assert block["f1"] >= 0.0

    def test_selected_cost_no_better_than_wider_optimum(self, small_instance):
        parts, model, params = small_instance
        report = single_neuron_baseline(model, parts.validation, parts.test, params)
        _, optimum = enumerate_best(model, parts.validation, bounds(16, 1, 4), params)
        assert report["cost"] >= optimum


class TestPerStateCostDump:
    def test_rows_cover_space_with_consistent_values(self, small_instance):
        parts, model, params = small_instance
        b = bounds(16, 2, 2)
        rows = list(per_state_cost_rows(model, parts.validation, b, params))
        assert len(rows) == b.size() == 120
        keys = {r[0] for r in rows}
        assert len(keys) == 120
        for key, c, eod, f1_s in rows:
            assert c >= eod or math.isnan(eod)
            assert 0.0 <= f1_s <= 1.0
            assert type(c) is type(eod) is type(f1_s) is float
            assert "np." not in f"{c!r}{eod!r}{f1_s!r}"
