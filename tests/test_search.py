import math
import re
import time
import warnings
from collections import Counter, deque

import numpy as np
import pytest

import fairdrop as fd
from fairdrop.model import _SIGMOID_HALF_WINDOW, MaskedForward
from fairdrop.oracle import enumerate_best, iter_states
from fairdrop.prng import XorShift64Star
from fairdrop.search import (CostEvaluator, CostParams, DropoutState, SearchConfig,
                             SearchSpaceBounds, SearchSpaceError, TemperatureSchedule,
                             _estimate_t0, _fit_temperature, _mean_acceptance,
                             _sample_positive_transitions, generate_neighbor, penalized_cost,
                             random_state, trace_csv_text, worst_case_t0)

from conftest import random_small_model, reference_price, valid_flip_positions

PARAMS = CostParams(p=3.0, t=0.98, eod_baseline=0.10, f1_baseline=0.68)


class TestBounds:
    def test_validation(self):
        with pytest.raises(SearchSpaceError):
            SearchSpaceBounds(8, 3, 2)
        with pytest.raises(SearchSpaceError):
            SearchSpaceBounds(8, 0, 9)

    def test_fixed_weight_window_constructs_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert SearchSpaceBounds(8, 3, 3).size() == 56

    @pytest.mark.parametrize("t0", [{"t0_mode": "ben_ameur"},
                                    {"t0_mode": "explicit", "t0_value": 1.0}],
                             ids=["ben_ameur", "explicit"])
    def test_search_on_fixed_weight_window_stops(self, small_instance, t0):
        parts, model, params = small_instance
        config = SearchConfig(alg_type="sa", bounds=SearchSpaceBounds(model.hidden_total, 3, 3),
                              cost_params=params, seed=1, max_iterations=5, **t0)
        with pytest.raises(SearchSpaceError,
                           match=r"weight 3 has no neighbors within bounds \(3, 3\)"):
            fd.run_search(model, parts.validation, config)

    def test_cardinality_binomial_sums(self):
        assert SearchSpaceBounds(6, 2, 3).size() == 15 + 20
        assert SearchSpaceBounds(16, 2, 4).size() == 120 + 560 + 1820
        assert SearchSpaceBounds(16, 2, 4).size() == 2500
        assert SearchSpaceBounds(4, 0, 4).size() == 16


class TestDropoutState:
    def test_from_indices_and_back(self):
        s = DropoutState.from_indices(8, (1, 5))
        assert s.weight == 2
        assert s.indices() == (1, 5)
        assert s.bits >> 1 & 1 == 1 and s.bits >> 0 & 1 == 0

    def test_flip(self):
        s = DropoutState(4, 0).flip(2)
        assert s.indices() == (2,)
        assert s.flip(2).weight == 0

    def test_duplicate_index_rejected(self):
        with pytest.raises(ValueError):
            DropoutState.from_indices(4, (1, 1))

    def test_key_hex_width(self):
        assert DropoutState.from_indices(16, (0,)).key_hex() == "0001"
        assert DropoutState.from_indices(16, range(16)).key_hex() == "ffff"
        assert DropoutState(5, 0).key_hex() == "00"


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
        c = evaluator.evaluate(DropoutState(model.hidden_total, 0)).cost
        assert c == pytest.approx(params.eod_baseline, abs=1e-12)

    def test_cost_lower_bound_is_eod(self, small_instance):
        parts, model, params = small_instance
        evaluator = CostEvaluator(model, parts.validation, params)
        rng = XorShift64Star(3)
        b = SearchSpaceBounds(model.hidden_total, 2, 5)
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

    def test_evaluate_many_memoizes_as_evaluate_would(self, small_instance):
        parts, model, params = small_instance
        n = model.hidden_total
        # x and z share their first-layer bits, so the factored pass prices
        # them next to each other, out of the order in which they come
        x, y, z, b = (DropoutState.from_indices(n, ix)
                      for ix in ((1, 3), (2, 9), (1, 3, 12), (0, 14)))
        batched, sequential = (CostEvaluator(model, parts.validation, params) for _ in range(2))
        memoized = batched.evaluate(b)
        sequential.evaluate(b)
        states = [x, y, b, z, x, y]
        got = batched.evaluate_many(states)
        assert got == [sequential.evaluate(s) for s in states]
        assert got == [batched.price(s) for s in states]
        assert got[2] is memoized
        assert batched.evaluations == sequential.evaluations == 4
        assert list(batched._cache) == list(sequential._cache) == [s.bits for s in (b, x, y, z)]
        assert batched.evaluate_many([z, x]) == [got[3], got[0]]
        assert batched.evaluate_many([]) == [] and batched.evaluations == 4

    def test_params_validation(self):
        for p in (-1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="p must be finite and >= 0"):
                CostParams(p=p, t=0.98, eod_baseline=0.1, f1_baseline=0.5)
        with pytest.raises(ValueError):
            CostParams(p=1.0, t=math.nan, eod_baseline=0.1, f1_baseline=0.5)
        with pytest.raises(ValueError):
            CostParams(p=1.0, t=1.0, eod_baseline=0.1, f1_baseline=0.5)
        with pytest.raises(ValueError):
            CostParams(p=1.0, t=0.9, eod_baseline=1.1, f1_baseline=0.5)


class TestCostEvaluatorExactness:
    """The evaluator's cached, certified path against the reference metrics."""

    def test_random_masks_equal_reference(self, small_instance):
        parts, model, params = small_instance
        evaluator = CostEvaluator(model, parts.validation, params)
        rng = XorShift64Star(17)
        b = SearchSpaceBounds(model.hidden_total, 0, model.hidden_total)
        for _ in range(300):
            state = random_state(b, rng)
            assert tuple(evaluator.price(state)) == reference_price(
                model, parts.validation, state, params), state.key_hex()

    def test_keys_wider_than_64_bits_equal_reference(self):
        rng = XorShift64Star(23)
        model = random_small_model(rng, (3, 40, 30, 1))
        rows = np.arange(60)
        data = fd.TabularDataset(2.0 * rng.uniform_block(60 * 3).reshape(60, 3) - 1.0,
                                 rows % 2, rows // 2 % 2, ("a", "b", "c"))
        evaluator = CostEvaluator(model, data, PARAMS)
        n = model.hidden_total
        states = [DropoutState.from_indices(n, (69,)), DropoutState.from_indices(n, range(64, 70))]
        states += [random_state(SearchSpaceBounds(n, 0, n), rng) for _ in range(40)]
        assert n == 70 and sum(s.bits >> 64 != 0 for s in states) > 20
        expected = [reference_price(model, data, state, PARAMS) for state in states]
        assert [tuple(evaluator.price(state)) for state in states] == expected
        # one keep matrix for every state, unpacked from bytes past the eighth
        many = CostEvaluator(model, data, PARAMS).evaluate_many(states)
        assert [tuple(e) for e in many] == expected

    @pytest.mark.parametrize("group,label", [(0, 0), (0, 1), (1, 0), (1, 1)])
    def test_split_with_an_empty_group_label_cell_rejected_before_pricing(
            self, small_instance, monkeypatch, group, label):
        # with no row of (group, label), every mask's EOD is undefined
        parts, model, params = small_instance
        v = parts.validation
        labels = np.where(v.protected == group, 1 - label, v.labels)
        data = fd.TabularDataset(v.features, labels, v.protected, v.feature_names)
        with pytest.raises(ValueError) as baseline:
            fd.baseline_cost_params(model, data, p=3.0, t=0.98)
        priced = []
        monkeypatch.setattr(MaskedForward, "__init__", lambda *a: priced.append(1))
        config = SearchConfig(alg_type="rw", bounds=SearchSpaceBounds(16, 0, 6),
                              cost_params=params, seed=1, max_iterations=5)
        for attempt in (lambda: CostEvaluator(model, data, params),
                        lambda: fd.run_search(model, data, config)):
            with pytest.raises(ValueError, match=re.escape(str(baseline.value))):
                attempt()
        assert "baseline EOD undefined" in str(baseline.value) and priced == []

    @pytest.mark.parametrize("column", ["labels", "protected"])
    def test_non_binary_vectors_rejected_at_construction(self, small_instance, column):
        parts, model, params = small_instance
        v = parts.validation
        bad = {"labels": v.labels.copy(), "protected": v.protected.copy()}
        bad[column][3] = 2
        data = fd.TabularDataset(v.features, bad["labels"], bad["protected"], v.feature_names)
        with pytest.raises(ValueError, match=f"{column} must contain only 0 and 1"):
            CostEvaluator(model, data, params)


def walk(n: int, rng: XorShift64Star, steps: int) -> list[DropoutState]:
    """A random state over n neurons and ``steps`` single flips from it."""
    bounds = SearchSpaceBounds(n, 0, n)
    states = [random_state(bounds, rng)]
    for _ in range(steps):
        states.append(generate_neighbor(states[-1], bounds, rng))
    return states


def assert_prices_along(model, data, params, states, clean=None, distinct=11):
    """Prices of ``states`` from one evaluator, in turn, and from one
    ``evaluate_many`` of them equal a fresh evaluator's price of each state
    and the reference's; ``clean`` is the model those two price, when not
    ``model``, and ``distinct`` how many different prices they must take at
    least."""
    clean = clean or model
    walker = CostEvaluator(model, data, params)
    batched = CostEvaluator(model, data, params).evaluate_many(states)
    seen = set()
    for state, many in zip(states, batched):
        want = CostEvaluator(clean, data, params).price(state)
        assert tuple(want) == reference_price(clean, data, state, params), state.key_hex()
        assert walker.price(state) == want, state.key_hex()
        assert many == want, state.key_hex()
        seen.add(want)
    # prices that vary along the walk, so that a stale hidden layer shows
    assert len(seen) >= distinct


class TestPrefixReuse:
    """The evaluator keeps the last hidden layer of its two most recent
    prefixes (a mask's bits in the earlier hidden layers); every price must
    still equal one computed from scratch."""

    def test_walk_over_interleaved_neuron_order(self, small_instance):
        # the last layer's units sit on the even bits, the first layer's on
        # the odd ones: the prefix is not a run of low bits
        parts, trained, params = small_instance
        order = [(layer, unit) for unit in range(8) for layer in (1, 0)]
        model = fd.MlpModel(trained.architecture, trained.weights, trained.biases,
                            neuron_order=order)
        assert_prices_along(model, parts.validation, params, walk(16, XorShift64Star(71), 200))

    def test_walk_over_three_hidden_layers(self, small_instance):
        # the trained model with a mixing layer put in before its output:
        # nearly the identity, so the model still separates the rows
        parts, trained, _ = small_instance
        rng = XorShift64Star(73)
        mixing = np.eye(8) + 0.3 * (2.0 * rng.uniform_block(64).reshape(8, 8) - 1.0)
        model = fd.MlpModel(fd.MlpArchitecture((6, 8, 8, 8, 1)),
                            [*trained.weights[:2], mixing, trained.weights[2]],
                            [*trained.biases[:2], np.full(8, 0.05), trained.biases[2]])
        params = fd.baseline_cost_params(model, parts.validation, p=3.0, t=0.98)
        assert_prices_along(model, parts.validation, params, walk(24, rng, 200))

    def test_three_prefixes_in_turn(self, small_instance, monkeypatch):
        # prefixes A, B, C (no first-layer unit dropped, unit 0, unit 1)
        # under changing last-layer bits: A B A C A B C A.  With two kept,
        # the hidden layers run six times: for the first A, B and C, and for
        # B, C and A once each had dropped out of the two.
        parts, model, params = small_instance
        data = parts.validation
        runs = []
        hidden = MaskedForward._batch_hidden

        def counted(self, keep, out=None):
            runs.append(self)
            return hidden(self, keep, out)
        monkeypatch.setattr(MaskedForward, "_batch_hidden", counted)
        prefixes = {"A": (), "B": (0,), "C": (1,)}
        turns = "ABACABCA"
        states = [DropoutState.from_indices(16, prefixes[p] + tuple(8 + u for u in suffix))
                  for p, suffix in zip(turns, ((0,), (0,), (1, 2), (0,), (3,), (4, 5), (), ()))]
        evaluator = CostEvaluator(model, data, params)
        for state in states:
            price = evaluator.price(state)
            assert price == CostEvaluator(model, data, params).price(state)
            assert tuple(price) == reference_price(model, data, state, params)
        assert runs.count(evaluator._forward) == 6
        # the three prefixes price apart, so a stale or shared buffer shows
        assert len({CostEvaluator(model, data, params).price(DropoutState.from_indices(16, p))
                    for p in prefixes.values()}) == 3

    def test_walk_over_negative_output_weights(self, small_instance):
        # the trained model with every output weight negative and a
        # negative-zero output bias: a walk's output row assigns +0.0 to a
        # dropped unit where _output_rows has w * 0.0 = -0.0, down to rows
        # whose every term is a zero; prices must not change
        parts, trained, _ = small_instance
        model = fd.MlpModel(trained.architecture, [*trained.weights[:2], -abs(trained.weights[2])],
                            [*trained.biases[:2], np.array([-0.0])])
        data = parts.validation
        params = fd.CostParams(p=3.0, t=0.98, eod_baseline=0.25, f1_baseline=0.5)
        rng = XorShift64Star(79)
        states = walk(16, rng, 200)
        states += [DropoutState(16, 0xff00 | bits) for bits in (0, 1, 6, 0x80)]
        assert_prices_along(model, data, params, states, distinct=5)
        evaluator = CostEvaluator(model, data, params)
        forward = evaluator._forward
        evaluator.price(states[-4])  # every last-layer unit dropped
        row, hidden = evaluator._row, evaluator._recent[0][1][0]
        dropped = forward._output_rows(np.zeros((1, 8)))[0]
        assert np.signbit(dropped).all() and not np.signbit(row[:-1]).any()
        assert (dropped @ hidden == 0.0).all() and (row @ hidden == 0.0).all()

    def test_nan_in_a_dropped_last_layer_unit_never_reaches_the_output(self, small_instance,
                                                                       monkeypatch):
        # a finite slack forced onto a model with a NaN unit in the last
        # hidden layer: the kept layer holds the NaN, every logit is NaN, and
        # every mask that drops the unit prices as if the unit were clean
        parts, model, params = small_instance
        biases = [b.copy() for b in model.biases]
        biases[1][2] = np.nan
        poisoned = fd.MlpModel(model.architecture, model.weights, biases)
        monkeypatch.setattr(MaskedForward, "_slack", np.full(300, _SIGMOID_HALF_WINDOW))
        bit = model.neuron_order.index((1, 2))
        states = [DropoutState(16, s.bits | 1 << bit) for s in walk(16, XorShift64Star(77), 120)]
        assert_prices_along(poisoned, parts.validation, params, states, clean=model)


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
        assert worst_case_t0(params, SearchSpaceBounds(32, 2, 20)) == \
            pytest.approx(23.4, abs=1e-12)

    def test_zero_penalty(self):
        params = CostParams(p=0.0, t=0.98, eod_baseline=0.10, f1_baseline=0.68)
        assert worst_case_t0(params, SearchSpaceBounds(32, 2, 20)) == 18.0

    def test_zero_baseline_eod(self):
        params = CostParams(p=3.0, t=0.98, eod_baseline=0.0, f1_baseline=0.68)
        assert worst_case_t0(params, SearchSpaceBounds(32, 2, 20)) == 18.0

    def test_degenerate_bounds_rejected(self):
        with pytest.raises(SearchSpaceError):
            worst_case_t0(PARAMS, SearchSpaceBounds(8, 3, 3))


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
        b = SearchSpaceBounds(model.hidden_total, 2, 5)
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
                SearchConfig(alg_type="sa", bounds=SearchSpaceBounds(8, 1, 3),
                             cost_params=PARAMS, seed=1, max_iterations=5,
                             **{setting: value})

    def test_flat_landscape_falls_back_with_warning(self):
        model, data, params = flat_instance()
        with pytest.warns(UserWarning, match="worst-case"):
            t = _estimate_t0(CostEvaluator(model, data, params), SearchSpaceBounds(4, 1, 3),
                             XorShift64Star(6), 0.75, sample_size=10)
        assert t == worst_case_t0(params, SearchSpaceBounds(4, 1, 3))


def flat_instance():
    """An all-zero [2, 4, 1] model, under which every mask predicts alike, so
    that no transition climbs, on 400 random rows."""
    arch = fd.MlpArchitecture((2, 4, 1))
    model = fd.MlpModel(arch, [np.zeros((4, 2)), np.zeros((1, 4))],
                        [np.zeros(4), np.zeros(1)])
    rng = XorShift64Star(5)
    X = rng.uniform_block(400 * 2).reshape(400, 2)
    y = (rng.uniform_block(400) > 0.5).astype(np.int64)
    prot = (rng.uniform_block(400) > 0.5).astype(np.int64)
    data = fd.TabularDataset(X, y, prot, ("a", "b"))
    return model, data, fd.baseline_cost_params(model, data, p=3.0, t=0.98)


def one_unit_instance():
    """A [2, 8, 1] model whose output reads hidden unit 0 alone, so that only
    flips of bit 0 change the cost and about one transition in 16 climbs,
    on 400 random rows."""
    rng = XorShift64Star(9)
    first = 2.0 * rng.uniform_block(16).reshape(8, 2) - 1.0
    first[0] = (1.0, 0.0)
    output = np.zeros((1, 8))
    output[0, 0] = 1.0
    model = fd.MlpModel(fd.MlpArchitecture((2, 8, 1)), [first, output],
                        [np.zeros(8), np.array([-0.5])])
    X = rng.uniform_block(400 * 2).reshape(400, 2)
    prot = (X[:, 1] > 0.5).astype(np.int64)
    y = (X[:, 0] + 0.3 * prot > 0.6).astype(np.int64)
    data = fd.TabularDataset(X, y, prot, ("a", "b"))
    return model, data, fd.baseline_cost_params(model, data, p=3.0, t=0.98)


def sequential_transitions(evaluator, bounds, rng, sample_size):
    """The transition sampler as it drew and priced one pair at a time, the
    reference for the chunked one: the deltas and how many pairs it drew."""
    deltas, drawn = [], 0
    for _ in range(max(100, 10 * sample_size)):
        if len(deltas) >= sample_size:
            break
        s = random_state(bounds, rng)
        s_next = generate_neighbor(s, bounds, rng)
        drawn += 1
        d = evaluator.evaluate(s_next).cost - evaluator.evaluate(s).cost
        if math.isfinite(d) and d > 0.0:
            deltas.append(d)
    return deltas, drawn


class TestChunkedTransitionSampling:
    """The sampler draws transitions in chunks and prices each chunk in one
    ``evaluate_many``; what it finds, the draws after it and the evaluator's
    memo must be those of drawing and pricing one pair at a time, and every
    pair it draws is one that drawing one at a time takes."""

    @staticmethod
    def sample_both(instance, bounds, sample_size, seed, monkeypatch):
        """The chunked and the sequential sampler on evaluators and generators
        of their own: the deltas, the pairs drawn one at a time, and the
        pairs of each chunk, which must sum to the pairs drawn one at a
        time."""
        model, data, params = instance
        chunks = []
        evaluate_many = CostEvaluator.evaluate_many

        def counted(self, states):
            states = list(states)
            chunks.append(len(states) // 2)
            return evaluate_many(self, states)
        monkeypatch.setattr(CostEvaluator, "evaluate_many", counted)
        chunked, sequential = (CostEvaluator(model, data, params) for _ in range(2))
        rng, reference_rng = XorShift64Star(seed), XorShift64Star(seed)
        deltas = _sample_positive_transitions(chunked, bounds, rng, sample_size)
        want, drawn = sequential_transitions(sequential, bounds, reference_rng, sample_size)
        assert deltas == want
        assert [rng.next_u64() for _ in range(4)] == [reference_rng.next_u64() for _ in range(4)]
        assert chunked.evaluations == sequential.evaluations
        assert list(chunked._cache) == list(sequential._cache)
        assert sum(chunks) == drawn
        return deltas, drawn, chunks

    def test_sample_size_reached_after_several_chunks(self, small_instance, monkeypatch):
        parts, model, params = small_instance
        bounds = SearchSpaceBounds(16, 2, 5)
        deltas, drawn, chunks = self.sample_both((model, parts.validation, params), bounds,
                                                 30, 8, monkeypatch)
        assert len(deltas) == 30
        # each chunk draws only the pairs still wanted, so none is cut short
        assert len(chunks) > 1 and chunks[0] == 30 and chunks[-1] < chunks[0]
        t0 = _estimate_t0(CostEvaluator(model, parts.validation, params), bounds,
                          XorShift64Star(8), 0.75, 30)
        assert t0 == _fit_temperature(deltas, 0.75)

    def test_draw_budget_exhausted(self, monkeypatch):
        deltas, drawn, chunks = self.sample_both(one_unit_instance(), SearchSpaceBounds(8, 1, 7),
                                                 20, 3, monkeypatch)
        assert 0 < len(deltas) < 20
        assert drawn == sum(chunks) == 200

    def test_flat_landscape_warns_as_before(self, monkeypatch):
        model, data, params = flat_instance()
        bounds = SearchSpaceBounds(4, 1, 3)
        deltas, drawn, _ = self.sample_both((model, data, params), bounds, 10, 6, monkeypatch)
        assert deltas == [] and drawn == 100
        with pytest.warns(UserWarning, match="worst-case"):
            t0 = _estimate_t0(CostEvaluator(model, data, params), bounds, XorShift64Star(6),
                              0.75, 10)
        assert t0 == worst_case_t0(params, bounds)


class TestRandomState:
    def test_forced_weight(self):
        rng = XorShift64Star(1)
        b = SearchSpaceBounds(8, 3, 3)
        for _ in range(50):
            assert random_state(b, rng).weight == 3

    def test_weight_within_bounds(self):
        rng = XorShift64Star(2)
        b = SearchSpaceBounds(16, 2, 4)
        assert all(2 <= random_state(b, rng).weight <= 4 for _ in range(10_000))

    def test_weight_distribution_roughly_uniform(self):
        rng = XorShift64Star(3)
        b = SearchSpaceBounds(16, 2, 4)
        counts = Counter(random_state(b, rng).weight for _ in range(10_000))
        for k in (2, 3, 4):
            assert abs(counts[k] - 10_000 / 3) < 250  # ~5 sigma of Bin(10000, 1/3)


class TestGenerateNeighbor:
    def test_at_upper_bound_only_lowering_flips(self):
        b = SearchSpaceBounds(4, 1, 2)
        s = DropoutState.from_indices(4, (0, 1))
        assert valid_flip_positions(s, b) == [0, 1]
        rng = XorShift64Star(4)
        hits = Counter(generate_neighbor(s, b, rng).bits for _ in range(1000))
        assert set(hits) == {s.flip(0).bits, s.flip(1).bits}
        assert all(abs(c - 500) < 80 for c in hits.values())

    def test_at_lower_bound_only_raising_flips(self):
        b = SearchSpaceBounds(4, 1, 3)
        s = DropoutState.from_indices(4, (0,))
        assert valid_flip_positions(s, b) == [1, 2, 3]

    def test_interior_state_all_flips_valid(self):
        b = SearchSpaceBounds(5, 1, 3)
        s = DropoutState.from_indices(5, (0, 2))
        assert valid_flip_positions(s, b) == [0, 1, 2, 3, 4]

    def test_no_neighbor_raises(self):
        b = SearchSpaceBounds(4, 2, 2)
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
            b = SearchSpaceBounds(n, lo, rng.randint(lo, n))
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
        b = SearchSpaceBounds(10, 2, 5)
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
            b = SearchSpaceBounds(n, lo, hi)
            states, adjacency = graph_states_and_adjacency(b)
            for s in states:
                dist = bfs_distances(adjacency, s.bits)
                assert len(dist) == len(states)  # connected
                for t in states:
                    assert dist[t.bits] == (s.bits ^ t.bits).bit_count()

    def test_fixed_weight_graph_has_no_edges(self):
        b = SearchSpaceBounds(6, 2, 2)
        _, adjacency = graph_states_and_adjacency(b)
        assert all(not neighbors for neighbors in adjacency.values())


def run(model, validation, params, alg, seed, iters, n_l=2, n_u=4, **kw):
    config = SearchConfig(alg_type=alg,
                          bounds=SearchSpaceBounds(model.hidden_total, n_l, n_u),
                          cost_params=params, seed=seed, max_iterations=iters, **kw)
    return fd.run_search(model, validation, config)


class TestRunSearch:
    def test_zero_iterations_returns_initial(self, small_instance):
        parts, model, params = small_instance
        res = run(model, parts.validation, params, "sa", 3, 0)
        assert res.trace == ()
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
        b = SearchSpaceBounds(4, 1, 2)
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
        assert res.t0 == worst_case_t0(params, SearchSpaceBounds(model.hidden_total, 2, 4))

    def test_time_limit_mode_terminates(self, small_instance):
        parts, model, params = small_instance
        config = SearchConfig(alg_type="sa", bounds=SearchSpaceBounds(model.hidden_total, 2, 4),
                              cost_params=params, seed=2, time_limit_s=0.3)
        res = fd.run_search(model, parts.validation, config)
        assert len(res.trace) > 0
        assert res.trace[-1].elapsed_ms <= 2_000  # generous: loop exits after limit

    def test_time_limit_covers_temperature_estimation(self, small_instance, monkeypatch):
        parts, model, params = small_instance
        price, evaluate_many = CostEvaluator.price, CostEvaluator.evaluate_many

        def slow_price(self, state):
            time.sleep(0.002)
            return price(self, state)

        def slow_evaluate_many(self, states):  # the path T0 fitting prices its chunks by
            before = self.evaluations
            evaluations = evaluate_many(self, states)
            time.sleep(0.002 * (self.evaluations - before))
            return evaluations
        monkeypatch.setattr(CostEvaluator, "price", slow_price)
        monkeypatch.setattr(CostEvaluator, "evaluate_many", slow_evaluate_many)
        # unbounded, fitting T0 would price hundreds of masks: over a second
        limit = 0.3
        config = SearchConfig(alg_type="sa", bounds=SearchSpaceBounds(model.hidden_total, 2, 5),
                              cost_params=params, seed=2, time_limit_s=limit)
        start = time.perf_counter()
        res = fd.run_search(model, parts.validation, config)
        assert time.perf_counter() - start < limit + 0.25
        assert all(r.elapsed_ms <= limit * 1000.0 for r in res.trace)
        assert math.isfinite(res.best_cost)

    def test_bounds_must_match_model(self, small_instance):
        parts, model, params = small_instance
        config = SearchConfig(alg_type="sa", bounds=SearchSpaceBounds(5, 1, 2),
                              cost_params=params, seed=1, max_iterations=5)
        with pytest.raises(SearchSpaceError):
            fd.run_search(model, parts.validation, config)

    def test_config_validation(self):
        b = SearchSpaceBounds(8, 1, 3)
        with pytest.raises(ValueError):
            SearchConfig(alg_type="greedy", bounds=b, cost_params=PARAMS, seed=1,
                         max_iterations=5)
        with pytest.raises(ValueError):
            SearchConfig(alg_type="sa", bounds=b, cost_params=PARAMS, seed=1)
        with pytest.raises(ValueError):
            SearchConfig(alg_type="sa", bounds=b, cost_params=PARAMS, seed=1,
                         max_iterations=5, t0_mode="explicit")
        for value in (math.nan, math.inf, 0.0):
            with pytest.raises(ValueError, match="time_limit_s must be positive and finite"):
                SearchConfig(alg_type="sa", bounds=b, cost_params=PARAMS, seed=1,
                             time_limit_s=value)
            with pytest.raises(ValueError, match="positive, finite t0_value"):
                SearchConfig(alg_type="sa", bounds=b, cost_params=PARAMS, seed=1,
                             max_iterations=5, t0_mode="explicit", t0_value=value)


class TestConfigRejectsWhatTheCliRejects:
    """The search dataclasses take the CLI's config rules: no bools, NaNs,
    infinities, strings or fractional counts.  Before these checks
    max_iterations=2.5 ran three iterations, max_iterations=True ran one and
    seed=1.5 ended in a TypeError inside the generator."""

    @pytest.mark.parametrize("field, value", [
        ("n_total", 8.0), ("n_total", True), ("n_l", 1.5), ("n_l", True), ("n_u", 3.0),
        ("n_u", "3"),
    ])
    def test_bounds(self, field, value):
        fields = dict(n_total=8, n_l=1, n_u=3)
        named = (f"^n_total must .*, got {re.escape(repr(value))}$" if field == "n_total"
                 else rf"\b{field}={re.escape(repr(value))}(,|$)")
        with pytest.raises(SearchSpaceError, match=named):
            SearchSpaceBounds(**{**fields, field: value})

    @pytest.mark.parametrize("field, value", [
        ("p", True), ("p", "3"), ("t", True), ("t", math.nan), ("eod_baseline", True),
        ("eod_baseline", math.nan), ("f1_baseline", False), ("f1_baseline", "0.5"),
    ])
    def test_cost_params(self, field, value):
        fields = dict(p=3.0, t=0.98, eod_baseline=0.1, f1_baseline=0.68)
        with pytest.raises(ValueError, match=rf"\b{field} must .*, got {re.escape(repr(value))}$"):
            CostParams(**{**fields, field: value})

    @pytest.mark.parametrize("field, value", [
        ("seed", 1.5), ("seed", True), ("seed", "1"),
        ("max_iterations", 2.5), ("max_iterations", 2.0), ("max_iterations", True),
        ("time_limit_s", True), ("time_limit_s", "1"),
        ("t0_value", True), ("t0_value", "2"),
        ("target_acceptance", True), ("target_acceptance", math.nan),
        ("t0_sample_size", 2.5), ("t0_sample_size", True),
    ])
    def test_search_config(self, field, value):
        fields = dict(alg_type="sa", bounds=SearchSpaceBounds(8, 1, 3), cost_params=PARAMS,
                      seed=1, max_iterations=5, t0_mode="explicit", t0_value=1.0)
        with pytest.raises(ValueError, match=rf"\b{field}\b.*, got {re.escape(repr(value))}$"):
            SearchConfig(**{**fields, field: value})


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
