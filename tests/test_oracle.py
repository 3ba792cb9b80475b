import math

import numpy as np
import pytest

import fairdrop as fd
from fairdrop.model import _BATCH_ELEMENTS, _SIGMOID_HALF_WINDOW, MaskedForward
from fairdrop.oracle import (DEFAULT_ENUMERATION_BUDGET, EnumerationBudgetError, PricedSpace,
                             census, enumerate_best, iter_states, per_state_cost_rows,
                             price_space, single_neuron_baseline)
from fairdrop.prng import XorShift64Star
from fairdrop.search import CostEvaluator, CostParams, DropoutState, SearchSpaceBounds

from conftest import random_small_model

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
        b = SearchSpaceBounds(6, 2, 3)
        states = list(iter_states(b))
        assert len(states) == b.size() == 35
        assert len({s.bits for s in states}) == 35
        assert all(2 <= s.weight <= 3 for s in states)

    def test_n4_bounds_1_2_is_ten_states(self):
        assert len(list(iter_states(SearchSpaceBounds(4, 1, 2)))) == 10


class TestEnumerateBest:
    def test_evaluation_count_is_cardinality(self):
        model = random_small_model(XorShift64Star(11), (3, 4, 1))
        data = tiny_data()
        params = fd.baseline_cost_params(model, data, p=3.0, t=0.98)
        evaluator = CostEvaluator(model, data, params)
        b = SearchSpaceBounds(4, 1, 2)
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
        b = SearchSpaceBounds(5, 1, 3)
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
        b = SearchSpaceBounds(4, 1, 2)
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
        b = SearchSpaceBounds(4, 1, 2)
        evaluator = CostEvaluator(model, data, params)
        optimal = [s.bits for s in iter_states(b) if evaluator.evaluate(s).cost == 0.0]
        assert optimal[0] == 0b100 and min(optimal) == 0b11
        state, cost = enumerate_best(model, data, b, params)
        assert (state.bits, cost) == (0b11, 0.0)

    def test_budget_refusal_without_enumerating(self):
        model = random_small_model(XorShift64Star(2), (3, 4, 1))
        data = tiny_data()
        params = fd.baseline_cost_params(model, data, p=3.0, t=0.98)
        huge = SearchSpaceBounds(4, 0, 4)
        with pytest.raises(EnumerationBudgetError) as exc:
            enumerate_best(model, data, huge, params, budget=10)
        assert exc.value.cardinality == 16
        assert exc.value.budget == 10

    @pytest.mark.parametrize("n", [3, 5])
    def test_bounds_over_another_neuron_count_rejected(self, n):
        model = random_small_model(XorShift64Star(2), (3, 4, 1))
        data = tiny_data()
        params = fd.baseline_cost_params(model, data, p=3.0, t=0.98)
        with pytest.raises(fd.SearchSpaceError, match=f"bounds cover {n} neurons, model has 4"):
            price_space(model, data, SearchSpaceBounds(n, 1, 2), params)

    def test_budget_check_is_arithmetic_not_enumeration(self):
        # cardinality beyond any enumerable size computes instantly
        b = SearchSpaceBounds(384, 2, 96)
        assert b.size() > DEFAULT_ENUMERATION_BUDGET
        model = random_small_model(XorShift64Star(3), (3, 4, 1))
        data = tiny_data()
        params = fd.baseline_cost_params(model, data, p=3.0, t=0.98)
        with pytest.raises(EnumerationBudgetError):
            census(model, data, b, params)

    def test_pinned_session_fixture_optimum(self, small_instance):
        parts, model, params = small_instance
        state, cost = enumerate_best(model, parts.validation, SearchSpaceBounds(16, 2, 4), params)
        assert state.key_hex() == PINNED_OPTIMAL_HEX
        assert cost == pytest.approx(PINNED_OPTIMAL_COST, abs=1e-12)


def by_key(bounds) -> list:
    """``iter_states``, sorted by state key: the order of ``PricedSpace``'s columns."""
    return sorted(iter_states(bounds), key=lambda s: s.bits)


def assert_columns_equal_evaluator(model, data, bounds, params, step=1) -> PricedSpace:
    """``price_space``'s columns, in ascending key order, equal to
    ``CostEvaluator.evaluate`` on every ``step``-th state."""
    space = price_space(model, data, bounds, params)
    evaluator = CostEvaluator(model, data, params)
    states = by_key(bounds)
    assert space.keys.tolist() == [s.bits for s in states]
    for i in range(0, len(states), step):
        ev = evaluator.evaluate(states[i])
        assert (space.cost[i], space.f1[i]) == (ev.cost, ev.f1)
        assert math.isnan(space.eod[i]) if ev.eod is None else space.eod[i] == ev.eod
    return space


def shuffled_model(seed, sizes):
    rng = XorShift64Star(seed)
    base = random_small_model(rng, sizes)
    order = list(base.neuron_order)
    rng.shuffle(order)
    return fd.MlpModel(base.architecture, base.weights, base.biases, neuron_order=order)


class TestPriceSpace:
    def test_columns_equal_evaluator_on_every_state(self, small_instance):
        parts, model, params = small_instance
        space = assert_columns_equal_evaluator(model, parts.validation,
                                               SearchSpaceBounds(16, 2, 4), params)
        assert len(space.cost) == 2500

    def test_keys_wider_than_64_bits(self):
        model = random_small_model(XorShift64Star(41), (3, 40, 30, 1))
        data = tiny_data(seed=42)
        params = fd.baseline_cost_params(model, data, p=3.0, t=0.98)
        b = SearchSpaceBounds(70, 1, 1)
        space = price_space(model, data, b, params)
        evaluator = CostEvaluator(model, data, params)
        states = by_key(b)
        assert [row[0] for row in space.rows()] == [s.key_hex() for s in states]
        state, cost = space.best()
        assert cost == min(evaluator.evaluate(s).cost for s in states)
        assert evaluator.evaluate(state).cost == cost

    def test_two_bit_keys_wider_than_64_bits(self):
        model = random_small_model(XorShift64Star(43), (3, 40, 30, 1))
        data = tiny_data(seed=44)
        params = fd.baseline_cost_params(model, data, p=3.0, t=0.98)
        b = SearchSpaceBounds(70, 0, 2)
        space = assert_columns_equal_evaluator(model, data, b, params, step=23)
        assert [row[0] for row in space.rows()] == [s.key_hex() for s in by_key(b)]

    @pytest.mark.parametrize("sizes, n_l, n_u", [((3, 8, 8, 1), 1, 5), ((3, 40, 30, 1), 0, 2)],
                             ids=["census_size", "object_keys"])
    def test_rows_ascend_by_key_and_cover_the_space(self, sizes, n_l, n_u):
        model = random_small_model(XorShift64Star(47), sizes)
        data = tiny_data(seed=48)
        params = fd.baseline_cost_params(model, data, p=3.0, t=0.98)
        bounds = SearchSpaceBounds(model.hidden_total, n_l, n_u)
        space = price_space(model, data, bounds, params)
        assert space.keys.dtype == (object if bounds.n_total > 64 else np.uint64)
        keys = [int(key, 16) for key, *_ in space.rows()]
        assert all(a < b for a, b in zip(keys, keys[1:]))
        assert len(keys) == bounds.size() and set(keys) == {s.bits for s in iter_states(bounds)}

    @pytest.mark.parametrize("n, keys", [(4, [1, 2, 4, 6, 9]),
                                         (70, [3, 5, 1 << 64, 1 << 64 | 1, 1 << 69])],
                             ids=["uint64_keys", "object_keys"])
    def test_best_breaks_a_cost_tie_to_the_smallest_key(self, n, keys):
        cost = np.array([0.5, 0.2, 0.3, 0.2, 0.2])
        keys = np.array(keys, dtype=np.uint64 if n <= 64 else object)
        space = PricedSpace(n, 0.5, keys, cost, cost.copy(), np.ones(5))
        assert space.best() == (DropoutState(n, int(keys[1])), 0.2)

    def test_reductions_match_the_wrappers(self, small_instance):
        parts, model, params = small_instance
        b = SearchSpaceBounds(16, 2, 3)
        space = price_space(model, parts.validation, b, params)
        assert space.best() == enumerate_best(model, parts.validation, b, params)
        assert space.census(0.05) == census(model, parts.validation, b, params)
        assert list(space.rows()) == list(per_state_cost_rows(model, parts.validation, b,
                                                              params))


class TestFactoredPricing:
    def test_prefix_spans_two_layers_under_a_shuffled_order(self):
        # the last hidden layer's bits are scattered among the others, so a
        # prefix keyed by the low bit positions would price other masks
        model = shuffled_model(66, (3, 4, 5, 3, 1))
        assert sorted(model.neuron_order[-3:]) != [(2, 0), (2, 1), (2, 2)]
        data = tiny_data(seed=67)
        params = fd.baseline_cost_params(model, data, p=3.0, t=0.98)
        space = assert_columns_equal_evaluator(model, data, SearchSpaceBounds(12, 0, 12), params)
        assert len(set(space.cost.tolist())) > 100

    def test_one_hidden_layer_has_an_empty_prefix(self):
        model = shuffled_model(79, (3, 7, 1))
        data = tiny_data(seed=80)
        params = fd.baseline_cost_params(model, data, p=3.0, t=0.98)
        space = assert_columns_equal_evaluator(model, data, SearchSpaceBounds(7, 0, 7), params)
        assert len(set(space.cost.tolist())) > 30

    @pytest.mark.filterwarnings("ignore:invalid value encountered in matmul:RuntimeWarning")
    def test_nan_in_a_dropped_last_layer_unit_takes_the_exact_pass(self, monkeypatch):
        # a finite slack forced onto a model with a NaN unit in the last
        # hidden layer: every batched logit is NaN (the unit's output weight
        # is zeroed, not its activation), so every mask takes the exact pass,
        # and a mask that drops the unit prices as if the unit were clean
        model = random_small_model(XorShift64Star(65), (3, 4, 5, 3, 1))
        data = tiny_data(seed=66)
        params = fd.baseline_cost_params(model, data, p=3.0, t=0.98)
        biases = [b.copy() for b in model.biases]
        biases[2][1] = np.nan
        poisoned = fd.MlpModel(model.architecture, model.weights, biases)
        bit = model.neuron_order.index((2, 1))
        exact_calls = []
        exact = MaskedForward._exact
        monkeypatch.setattr(MaskedForward, "_slack", np.full(300, _SIGMOID_HALF_WINDOW))
        monkeypatch.setattr(MaskedForward, "_exact",
                            lambda self, keep: exact_calls.append(1) or exact(self, keep))
        bounds = SearchSpaceBounds(12, 1, 3)
        space = price_space(poisoned, data, bounds, params)
        assert len(exact_calls) == bounds.size()
        clean = CostEvaluator(model, data, params)
        for i, state in enumerate(by_key(bounds)):
            if state.bits >> bit & 1:
                assert (space.cost[i], space.f1[i]) == tuple(clean.evaluate(state))[::2]
            else:
                assert space.f1[i] == 0.0  # NaN logits predict no positives
        assert np.isfinite(space.cost).all()

    def test_census_seed_8_needs_no_whole_exact_pass(self, fallbacks, monkeypatch):
        # The oracle_census benchmark instance at CLI seed 8: one validation
        # row's logit lies about 2.5e-6 from 0, inside its float32 slack, in
        # 163 masks of [1,5] (the CLI's single-neuron scan adds one more).
        # The row check settles each on that row alone, and the columns
        # equal those of the whole exact pass.
        data = fd.synthesize_biased(1500, 6, 0.8, seed=21)
        parts = fd.split(data, 8)
        model = fd.train(parts, fd.MlpArchitecture((6, 8, 8, 1)),
                         fd.TrainConfig(learning_rate=0.3, epochs=25, batch_size=64,
                                        train_dropout_prob=0.1, seed=8))
        params = fd.baseline_cost_params(model, parts.validation, p=3.0, t=0.98)
        bounds = SearchSpaceBounds(16, 1, 5)
        space = fd.oracle.price_space(model, parts.validation, bounds, params)
        assert (len(fallbacks), len(fallbacks.settled)) == (0, 163)
        monkeypatch.setattr(MaskedForward, "_settled", lambda *args: False)
        whole = fd.oracle.price_space(model, parts.validation, bounds, params)
        assert len(fallbacks) == 163
        for column in ("keys", "cost", "eod", "f1"):
            assert np.array_equal(getattr(space, column), getattr(whole, column))

    def test_gemm_blocks_and_prefix_batches_stay_within_one_batch(self, monkeypatch):
        # 466 suffixes pair with the empty prefix, over two GEMM blocks of
        # at most _BATCH_ELEMENTS // 300 = 436 suffixes
        model = random_small_model(XorShift64Star(43), (3, 40, 30, 1))
        data = tiny_data(seed=44)
        params = fd.baseline_cost_params(model, data, p=3.0, t=0.98)
        blocks, batches = [], []
        certified, hidden = MaskedForward._certified, MaskedForward._batch_hidden

        def spy_certified(self, z, count, keep_of):
            blocks.append(z.shape)
            return certified(self, z, count, keep_of)

        def spy_hidden(self, keep, out=None):
            batches.append((len(keep), self.batch_size))
            return hidden(self, keep, out)
        monkeypatch.setattr(MaskedForward, "_certified", spy_certified)
        monkeypatch.setattr(MaskedForward, "_batch_hidden", spy_hidden)
        assert_columns_equal_evaluator(model, data, SearchSpaceBounds(70, 0, 2), params, step=23)
        assert max(rows * count for count, rows in blocks) <= _BATCH_ELEMENTS
        assert (436, 300) in blocks
        assert all(size <= limit for size, limit in batches)
        assert sum(size for size, _ in batches) > max(limit for _, limit in batches)


class TestCostDump:
    @staticmethod
    def row_by_row(space: PricedSpace) -> str:
        """The dump as it was first written: one formatted line per state."""
        lines = ["state_key_hex,cost,eod,f1\n"]
        for bits, c, eod, f1_s in zip(space.keys.tolist(), space.cost.tolist(),
                                      space.eod.tolist(), space.f1.tolist()):
            lines.append(f"{DropoutState(space.n_total, bits).key_hex()},{c!r},{eod!r},"
                         f"{f1_s!r}\n")
        return "".join(lines)

    def test_equals_row_by_row_rendering(self, small_instance):
        parts, model, params = small_instance
        space = price_space(model, parts.validation, SearchSpaceBounds(16, 1, 3), params)
        assert space.csv_text() == self.row_by_row(space)
        assert [row[0] for row in space.rows()] == space.key_hex()

    def test_empty_group_label_cell_rejected_and_wide_keys(self, monkeypatch):
        model = random_small_model(XorShift64Star(41), (3, 40, 30, 1))
        v = tiny_data(seed=42)
        params = CostParams(p=3.0, t=0.98, eod_baseline=0.2, f1_baseline=0.5)
        space = price_space(model, v, SearchSpaceBounds(70, 0, 2), params)
        text = space.csv_text()
        assert text == self.row_by_row(space)
        assert len(text.splitlines()[-1].split(",")[0]) == 18
        # group 1 has no positive label, so every EOD would be undefined
        data = fd.TabularDataset(v.features, np.where(v.protected == 1, 0, v.labels),
                                 v.protected, v.feature_names)
        priced = []
        monkeypatch.setattr(MaskedForward, "__init__", lambda *a: priced.append(1))
        with pytest.raises(ValueError, match="^baseline EOD undefined: a protected group "
                                             "lacks positive or negative labels"):
            price_space(model, data, SearchSpaceBounds(70, 0, 2), params)
        assert priced == []

    @pytest.mark.parametrize("n", [1, 5, 63, 64])
    def test_key_widths(self, n):
        keys = np.array([0, 1, (1 << n) - 1, 1 << (n - 1)], dtype=np.uint64)
        column = np.array([0.1, 1 / 3, np.inf, np.nan])
        space = PricedSpace(n, 0.5, keys, column, column[::-1].copy(), column)
        assert space.key_hex() == [DropoutState(n, int(k)).key_hex() for k in keys.tolist()]
        assert space.csv_text() == self.row_by_row(space)


class TestCensus:
    def test_partition_and_likelihoods(self, small_instance):
        parts, model, params = small_instance
        cen = census(model, parts.validation, SearchSpaceBounds(16, 2, 4), params)
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
        cen = census(model, data, SearchSpaceBounds(4, 1, 2), params)
        assert cen.bad_count == 0

    def test_order_independence(self, small_instance):
        # classify states in a shuffled order with independent bookkeeping
        parts, model, params = small_instance
        b = SearchSpaceBounds(16, 2, 4)
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
        space = price_space(model, parts.validation, SearchSpaceBounds(16, 2, 4), params)
        for margin in (-0.1, math.nan, math.inf):
            with pytest.raises(ValueError, match="good_margin must be finite and >= 0"):
                space.census(good_margin=margin)


class TestSingleNeuronBaseline:
    def test_linear_scan_count_and_identity_with_weight_one_enumeration(self, small_instance):
        parts, model, params = small_instance
        report = single_neuron_baseline(model, parts.validation, parts.test, params)
        assert report["evaluations"] == model.hidden_total == 16
        state, cost = enumerate_best(model, parts.validation,
                                     SearchSpaceBounds(model.hidden_total, 1, 1), params)
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

    def test_keys_wider_than_64_bits(self):
        model = random_small_model(XorShift64Star(41), (3, 40, 30, 1))
        data = tiny_data(seed=42)
        params = fd.baseline_cost_params(model, data, p=3.0, t=0.98)
        report = single_neuron_baseline(model, data, data, params)
        evaluator = CostEvaluator(model, data, params)
        costs = [evaluator.evaluate(s).cost for s in iter_states(SearchSpaceBounds(70, 1, 1))]
        assert report["evaluations"] == model.hidden_total == 70
        assert report["neuron_index"] == costs.index(min(costs))
        assert report["cost"] == min(costs)
        assert model.neuron_order[report["neuron_index"]] == (report["layer"], report["unit"])

    def test_cost_tie_picks_the_lower_index(self):
        # unit 0 carries the score; units 1 and 2 reach the output with weight
        # 0, so dropping either leaves the predictions, hence the cost, alone
        rng = XorShift64Star(3)
        X = rng.uniform_block(400 * 2).reshape(400, 2)
        data = fd.TabularDataset(X, (X[:, 0] > 0.5).astype(np.int64),
                                 (X[:, 1] > 0.5).astype(np.int64), ("a", "b"))
        model = fd.MlpModel(fd.MlpArchitecture((2, 3, 1)),
                            [np.array([[1.0, 0.3], [1.0, 1.0], [0.5, -1.0]]),
                             np.array([[10.0, 0.0, 0.0]])],
                            [np.array([0.0, 0.0, 1.0]), np.array([-6.5])])
        params = fd.baseline_cost_params(model, data, p=3.0, t=0.98)
        evaluator = CostEvaluator(model, data, params)
        costs = [evaluator.evaluate(fd.DropoutState.from_indices(3, (i,))).cost
                 for i in range(3)]
        assert costs[1] == costs[2] < costs[0]
        report = single_neuron_baseline(model, data, data, params)
        assert (report["neuron_index"], report["cost"]) == (1, costs[1])

    def test_selected_cost_no_better_than_wider_optimum(self, small_instance):
        parts, model, params = small_instance
        report = single_neuron_baseline(model, parts.validation, parts.test, params)
        _, optimum = enumerate_best(model, parts.validation, SearchSpaceBounds(16, 1, 4), params)
        assert report["cost"] >= optimum


class TestPerStateCostDump:
    def test_rows_cover_space_with_consistent_values(self, small_instance):
        parts, model, params = small_instance
        b = SearchSpaceBounds(16, 2, 2)
        rows = list(per_state_cost_rows(model, parts.validation, b, params))
        assert len(rows) == b.size() == 120
        keys = {r[0] for r in rows}
        assert len(keys) == 120
        for key, c, eod, f1_s in rows:
            assert c >= eod or math.isnan(eod)
            assert 0.0 <= f1_s <= 1.0
            assert type(c) is type(eod) is type(f1_s) is float
            assert "np." not in f"{c!r}{eod!r}{f1_s!r}"
