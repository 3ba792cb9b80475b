import hashlib
import json
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

import fairdrop as fd
import fairdrop.oracle
import fairdrop.search
from fairdrop.model import (_SIGMOID_HALF_WINDOW, MaskedForward, MlpArchitecture,
                            ModelFormatError, ShapeError, TrainingError, _sigmoid,
                            default_neuron_order, initialize_model)
from fairdrop.prng import XorShift64Star
from fairdrop.search import DropoutState

from conftest import (MALFORMED_MODEL_FILES, model_document, random_small_model,
                      reference_logits, reference_predictions, reference_price)


PRICE_PARAMS = fd.CostParams(p=3.0, t=0.9, eod_baseline=0.5, f1_baseline=0.5)


def proba(model, features, mask=None) -> np.ndarray:
    """Probabilities ``sigmoid(logits)`` of a batch of rows (a 1-D ``features``
    is one row) under ``mask``."""
    return _sigmoid(MaskedForward(model, features).logits(mask))


def hand_model():
    """[2,2,1] with identity hidden weights and summing output."""
    arch = MlpArchitecture((2, 2, 1))
    return fd.MlpModel(arch,
                       weights=[np.array([[1.0, 0.0], [0.0, 1.0]]), np.array([[1.0, 1.0]])],
                       biases=[np.zeros(2), np.zeros(1)])


class TestArchitecture:
    def test_requires_hidden_layer(self):
        with pytest.raises(ShapeError):
            MlpArchitecture((4, 1))

    def test_output_must_be_one(self):
        with pytest.raises(ShapeError):
            MlpArchitecture((4, 8, 2))

    def test_hidden_total(self):
        assert MlpArchitecture((10, 16, 16, 1)).hidden_total == 32

    def test_default_neuron_order_layer_major(self):
        order = default_neuron_order(MlpArchitecture((3, 2, 2, 1)))
        assert order == ((0, 0), (0, 1), (1, 0), (1, 1))


class TestForward:
    def test_hand_computed_two_layer_case(self):
        model = hand_model()
        x = (1.0, 2.0)
        mask = DropoutState.from_indices(2, (0,))
        # hidden = relu((1,2)) -> (1,2); drop neuron 0 -> (0,2); output z=2
        assert proba(model, x, mask)[0] == pytest.approx(0.8807970779778823, abs=1e-12)
        assert proba(model, x)[0] == pytest.approx(1 / (1 + math.exp(-3.0)), abs=1e-12)

    def test_empty_mask_identical_to_none(self):
        model = random_small_model(XorShift64Star(1), (3, 4, 4, 1))
        x = np.array([0.3, -0.7, 1.5])
        assert proba(model, x, DropoutState(8, 0))[0] == proba(model, x)[0]

    def test_all_ones_mask_gives_sigmoid_of_output_bias(self):
        rng = XorShift64Star(2)
        model = random_small_model(rng, (3, 5, 1))
        full = DropoutState.from_indices(5, range(5))
        x = np.array([1.0, 2.0, 3.0])
        expected = 1 / (1 + math.exp(-model.biases[-1][0]))
        assert proba(model, x, full)[0] == pytest.approx(expected, abs=1e-15)

    def test_zero_weights_give_exactly_half(self):
        arch = MlpArchitecture((4, 3, 1))
        model = fd.MlpModel(arch, [np.zeros((3, 4)), np.zeros((1, 3))],
                            [np.zeros(3), np.zeros(1)])
        assert proba(model, [1.0, -2.0, 3.0, 0.5])[0] == 0.5

    def test_input_length_checked(self):
        with pytest.raises(ShapeError):
            proba(hand_model(), [1.0, 2.0, 3.0])

    def test_mask_length_checked(self):
        model = hand_model()
        data = fd.TabularDataset(np.zeros((4, 2)), np.array([0, 1, 0, 1]),
                                 np.array([0, 0, 1, 1]), ("a", "b"))
        kernel = MaskedForward(model, data.features)
        evaluator = fd.CostEvaluator(model, data, PRICE_PARAMS)
        for mask in (DropoutState(5, 0), DropoutState(1, 0)):
            for run in (kernel.logits, kernel.predict, evaluator.price):
                with pytest.raises(ShapeError):
                    run(mask)

    def test_mask_equals_outgoing_weight_surgery(self):
        # dropping a neuron == zeroing its outgoing weight column
        rng = XorShift64Star(7)
        for trial in range(20):
            sizes = (3, 4, 3, 1)
            model = random_small_model(rng, sizes)
            n = model.hidden_total
            k = rng.randint(0, n)
            mask = DropoutState.from_indices(n, rng.sample_indices(n, k))
            weights = [w.copy() for w in model.weights]
            for layer, units in enumerate(model.masked_units_per_layer(mask.bits)):
                for u in units:
                    weights[layer + 1][:, u] = 0.0
            surgically = fd.MlpModel(model.architecture, weights, model.biases)
            X = 2.0 * rng.uniform_block(15).reshape(5, 3) - 1.0
            masked_out = proba(model, X, mask)
            surgery_out = proba(surgically, X)
            assert np.array_equal(masked_out, surgery_out)

    def test_masked_units_follow_the_neuron_order(self):
        # the decoder from a state key to each hidden layer's dropped units
        rng = XorShift64Star(9)
        model = random_small_model(rng, (3, 4, 3, 2, 1))
        order = list(model.neuron_order)
        rng.shuffle(order)
        model = fd.MlpModel(model.architecture, model.weights, model.biases, order)
        n = model.hidden_total
        assert model.masked_units_per_layer(0) == [[], [], []]
        for _ in range(30):
            indices = rng.sample_indices(n, rng.randint(0, n))
            want = [[], [], []]
            for bit in indices:
                layer, unit = order[bit]
                want[layer].append(unit)
            assert model.masked_units_per_layer(DropoutState.from_indices(n, indices).bits) == want

    def test_masked_neuron_never_consulted(self):
        # poison the masked neuron's incoming weights and bias with NaN
        model = random_small_model(XorShift64Star(3), (3, 4, 4, 1))
        weights = [w.copy() for w in model.weights]
        biases = [b.copy() for b in model.biases]
        weights[0][2, :] = np.nan  # hidden layer 0, unit 2
        biases[0][2] = np.nan
        poisoned = fd.MlpModel(model.architecture, weights, biases)
        mask = DropoutState.from_indices(8, (2,))
        out = proba(poisoned, np.array([[0.1, 0.2, 0.3]]), mask)
        assert np.isfinite(out).all()


class TestPredictBatch:
    def test_single_row_matches_forward(self):
        model = random_small_model(XorShift64Star(4), (3, 4, 1))
        x = np.array([0.1, -0.5, 0.9])
        data = fd.TabularDataset(x.reshape(1, 3), np.array([1]), np.array([0]),
                                 ("a", "b", "c"))
        batch = fd.predict_batch(model, data)
        assert batch.shape == (1,)
        assert batch[0] == int(proba(model, x)[0] >= 0.5)

    def test_batch_shape(self):
        model = random_small_model(XorShift64Star(5), (2, 3, 1))
        X = np.zeros((7, 2))
        assert fd.predict_batch(model, X).shape == (7,)

    @pytest.mark.parametrize("sizes", [(2, 3, 1), (2, 3, 4, 1)])
    def test_zero_rows(self, sizes):
        model = random_small_model(XorShift64Star(5), sizes)
        preds = fd.predict_batch(model, np.empty((0, 2)))
        assert preds.dtype == np.int64 and preds.shape == (0,)

    def test_empty_mask_equals_all_zeros_mask(self):
        model = random_small_model(XorShift64Star(6), (2, 3, 3, 1))
        X = 2.0 * XorShift64Star(8).uniform_block(20).reshape(10, 2) - 1.0
        assert np.array_equal(fd.predict_batch(model, X),
                              fd.predict_batch(model, X, DropoutState(6, 0)))


class TestThreshold:
    # logits just above, at and below the cutoff where sigmoid(z) rounds to 0.5
    LOGITS = [-1.0, -1e-12, -1e-15, -5e-17, -4.5e-17, -4.4e-17, -4e-17, -3e-17, -1e-17,
              -5e-324, -0.0, 0.0, 5e-324, 1e-17, 1e-12, 1.0]

    @staticmethod
    def logit_model(output_bias):
        """[1,1,1]: z = output_bias - relu(x), so the rows' x set the logits."""
        return fd.MlpModel(MlpArchitecture((1, 1, 1)), [np.ones((1, 1)), -np.ones((1, 1))],
                           [np.zeros(1), np.array([output_bias])])

    @pytest.mark.parametrize("z", LOGITS)
    def test_prediction_is_sigmoid_at_least_half(self, z):
        expected = int(_sigmoid(np.array([z]))[0] >= 0.5)
        assert fd.predict_batch(self.logit_model(z), np.zeros((1, 1))).tolist() == [expected]

    def test_cutoff_lies_inside_the_sigmoid_window(self):
        z = np.concatenate([-np.logspace(-20, -11, 400), np.linspace(-1e-16, 0.0, 101)])
        preds = fd.predict_batch(self.logit_model(0.0), -z.reshape(-1, 1))
        assert preds.tolist() == (_sigmoid(z) >= 0.5).astype(int).tolist()
        # some negative logits predict 1: the threshold is not z >= 0
        assert preds[z < 0].any() and not preds[z < -1e-16].any()


class TestMaskedForward:
    def test_reused_buffers_equal_fresh_passes(self):
        rng = XorShift64Star(12)
        model = random_small_model(rng, (4, 5, 3, 4, 1))
        X = 2.0 * rng.uniform_block(40 * 4).reshape(40, 4) - 1.0
        kernel = MaskedForward(model, X)
        n = model.hidden_total
        for _ in range(60):
            mask = DropoutState.from_indices(n, rng.sample_indices(n, rng.randint(0, n)))
            assert np.array_equal(kernel.logits(mask), reference_logits(model, X, mask))
            assert np.array_equal(kernel.predict(mask), reference_predictions(model, X, mask))

    @pytest.mark.parametrize("poison", [np.nan, np.inf])
    @pytest.mark.filterwarnings("ignore:invalid value encountered in matmul:RuntimeWarning")
    def test_non_finite_dropped_unit_never_reaches_the_output(self, poison):
        # inf * 0 and nan * 0 are NaN: a dropped unit must still count as
        # exactly zero, while a kept one poisons the logits.
        rng = XorShift64Star(14)
        model = random_small_model(rng, (3, 4, 5, 3, 1))
        X = 2.0 * rng.uniform_block(30 * 3).reshape(30, 3) - 1.0
        data = signs_dataset(X)
        n = model.hidden_total
        for bit, (layer, unit) in enumerate(model.neuron_order):
            biases = [b.copy() for b in model.biases]
            biases[layer][unit] = poison
            poisoned = fd.MlpModel(model.architecture, model.weights, biases)
            kernel = MaskedForward(poisoned, X)
            for _ in range(5):
                others = [i for i in rng.sample_indices(n, rng.randint(0, 4)) if i != bit]
                mask = DropoutState.from_indices(n, sorted(others + [bit]))
                z = kernel.logits(mask)
                assert np.isfinite(z).all()
                assert np.array_equal(z, reference_logits(model, X, mask))
                unmasked = DropoutState.from_indices(n, others)
                z = kernel.logits(unmasked)
                assert not np.isfinite(z).all()
                assert np.array_equal(z, reference_logits(poisoned, X, unmasked), equal_nan=True)

    def test_feature_width_checked(self):
        with pytest.raises(ShapeError):
            MaskedForward(hand_model(), np.zeros((3, 5)))

    @pytest.mark.parametrize("n", [1, 8, 9, 64, 70])
    def test_keep_rows_equal_unpacked_bits(self, n):
        # the byte table against one unpackbits over the keys' bytes
        rng = XorShift64Star(n)
        model = random_small_model(rng, (2, n, 1))
        kernel = MaskedForward(model, np.zeros((1, 2)))
        keys = [0, (1 << n) - 1, 1, 1 << (n - 1)]
        keys += [sum(1 << i for i in rng.sample_indices(n, rng.randint(0, n))) for _ in range(20)]
        width = (n + 7) // 8
        packed = np.frombuffer(b"".join(key.to_bytes(width, "little") for key in keys),
                               dtype=np.uint8).reshape(-1, width)
        expected = 1.0 - np.unpackbits(packed, axis=1, count=n, bitorder="little")
        keep = kernel.keep_rows(keys)
        assert keep.dtype == expected.dtype and np.array_equal(keep, expected)
        assert keep[0].all() and not keep[1].any()


def mask_keys(masks) -> list[int]:
    """The state key of each of ``masks``."""
    return [mask.bits for mask in masks]


def exact_predictions(kernel, masks) -> np.ndarray:
    return np.array([kernel.predict(mask) for mask in masks])


def batched_logits(kernel, keys) -> np.ndarray | None:
    """The batched pass's float32 logits (masks, rows) for masks with state
    ``keys``: each mask's output row against its own last hidden layer, or
    None when the batched pass does not run."""
    rows = kernel._output_rows(keys)
    if rows is None:
        return None
    return np.matmul(rows[:, None], kernel._batch_hidden(keys))[:, 0]


def batched_predictions(kernel, keys) -> np.ndarray:
    """The batched pass's certified predictions (masks, rows) as 0.0/1.0."""
    preds = np.empty((len(keys), kernel._first.shape[0]), dtype=np.float32)
    return kernel._certified(batched_logits(kernel, keys), keys, preds)


def caller_prices(model, data, states) -> list[list[tuple]]:
    """(cost, EOD, F1) of each of ``states`` as ``CostEvaluator.price``,
    ``CostEvaluator.evaluate_many`` and ``fairdrop.oracle.price_space``
    (over the whole space) give them, in that order."""
    evaluator = fd.CostEvaluator(model, data, PRICE_PARAMS)
    priced = [tuple(evaluator.price(s)) for s in states]
    evaluator = fd.CostEvaluator(model, data, PRICE_PARAMS)
    many = [tuple(e) for e in evaluator.evaluate_many(states)]
    n = model.hidden_total
    space = fairdrop.oracle.price_space(model, data, fd.SearchSpaceBounds(n, 0, n), PRICE_PARAMS)
    table = {bits: (c, None if e != e else e, f) for bits, c, e, f in zip(
        space.keys.tolist(), space.cost.tolist(), space.eod.tolist(), space.f1.tolist())}
    return [priced, many, [table[s.bits] for s in states]]


def signs_dataset(X) -> fd.TabularDataset:
    """``X`` labelled by the sign of its first feature, its protected bit
    the sign of the second."""
    return fd.TabularDataset(X, (X[:, 0] > 0).astype(np.int64), (X[:, 1] > 0).astype(np.int64),
                             tuple(f"x{i}" for i in range(X.shape[1])))


def random_masks(rng, n, count):
    return [DropoutState.from_indices(n, rng.sample_indices(n, rng.randint(0, n)))
            for _ in range(count)]


class TestBatchedPass:
    def test_equals_exact_predictions_on_random_masks(self, fallbacks):
        rng = XorShift64Star(31)
        base = random_small_model(rng, (3, 4, 5, 3, 1))
        order = list(base.neuron_order)
        rng.shuffle(order)
        model = fd.MlpModel(base.architecture, base.weights, base.biases, neuron_order=order)
        X = 2.0 * rng.uniform_block(50 * 3).reshape(50, 3) - 1.0
        kernel = MaskedForward(model, X)
        n = model.hidden_total
        for count in (1, 7, kernel.batch_size):
            masks = random_masks(rng, n, count)
            assert np.array_equal(batched_predictions(kernel, mask_keys(masks)),
                                  exact_predictions(kernel, masks))
        data = signs_dataset(X)
        expected = [reference_price(model, data, s, PRICE_PARAMS) for s in masks]
        assert caller_prices(model, data, masks) == [expected] * 3
        assert fallbacks == fallbacks.settled == []  # every mask was certified, none re-run

    @given(st.lists(st.integers(1, 5), min_size=2, max_size=4), st.integers(1, 12),
           st.integers(1, 2 ** 32))
    def test_equals_exact_predictions_on_drawn_models(self, sizes, rows, seed):
        rng = XorShift64Star(seed)
        model = random_small_model(rng, (*sizes, 1))
        X = 2.0 * rng.uniform_block(rows * sizes[0]).reshape(rows, sizes[0]) - 1.0
        kernel = MaskedForward(model, X)
        n = model.hidden_total
        masks = random_masks(rng, n, min(kernel.batch_size, 40))
        assert np.array_equal(batched_predictions(kernel, mask_keys(masks)),
                              exact_predictions(kernel, masks))

    def test_batch_size_shrinks_as_rows_grow(self):
        model = random_small_model(XorShift64Star(3), (2, 6, 9, 4, 1))
        sizes = [MaskedForward(model, np.zeros((rows, 2))).batch_size
                 for rows in (1, 300, 2000, 10 ** 6)]
        assert sizes == sorted(sizes, reverse=True) and sizes[-1] == 1 < sizes[1]

    @pytest.mark.parametrize("z", [-1e-17, -1e-13, -_SIGMOID_HALF_WINDOW])
    def test_logit_inside_the_slack_takes_the_exact_pass(self, fallbacks, z):
        # -1e-17 rounds to probability 0.5 and predicts 1, which z >= 0 would
        # miss; the others predict 0 either way but still lie inside the
        # slack.  The z row is the only one that can predict 1, so it moves
        # the one-mask price too.
        model = TestThreshold.logit_model(0.0)
        data = fd.TabularDataset(np.array([[-z], [3.0], [3.0], [3.0]]), np.array([1, 0, 1, 0]),
                                 np.array([0, 0, 1, 1]), ("x",))
        kernel = MaskedForward(model, data.features)
        preds = batched_predictions(kernel, [0])
        assert preds.tolist() == [kernel.predict().tolist()] == [[z == -1e-17] + [False] * 3]
        empty = DropoutState(1, 0)
        expected = reference_price(model, data, empty, PRICE_PARAMS)
        assert [prices[0] for prices in caller_prices(model, data, [empty])] == [expected] * 3
        # price_space also prices the mask that drops the unit: its logits
        # are the output bias, 0; the row check reads the same logits, which
        # lie within its slack too
        assert fallbacks == [1] * 4 and fallbacks.settled == []

    @pytest.mark.parametrize("poison", [np.nan, np.inf])
    @pytest.mark.filterwarnings("ignore:invalid value encountered in matmul:RuntimeWarning")
    def test_non_finite_bound_takes_the_exact_pass(self, fallbacks, poison):
        rng = XorShift64Star(14)
        model = random_small_model(rng, (3, 4, 5, 3, 1))
        X = 2.0 * rng.uniform_block(30 * 3).reshape(30, 3) - 1.0
        data = signs_dataset(X)
        n = model.hidden_total
        for bit, (layer, unit) in enumerate(model.neuron_order):
            biases = [b.copy() for b in model.biases]
            biases[layer][unit] = poison
            poisoned = fd.MlpModel(model.architecture, model.weights, biases)
            kernel = MaskedForward(poisoned, X)
            assert kernel._slack is None
            masks = [DropoutState.from_indices(n, (bit,)), DropoutState.from_indices(n, ()),
                     DropoutState.from_indices(n, ((bit + 1) % n,))]
            assert np.array_equal(batched_predictions(kernel, mask_keys(masks)),
                                  exact_predictions(kernel, masks))
            evaluator = fd.CostEvaluator(poisoned, data, PRICE_PARAMS)
            assert [tuple(evaluator.price(s)) for s in masks] == [
                reference_price(poisoned, data, s, PRICE_PARAMS) for s in masks]
        assert len(fallbacks) == 3 * n and fallbacks.settled == []

    @pytest.mark.filterwarnings("ignore:invalid value encountered in matmul:RuntimeWarning")
    def test_nan_logits_take_the_exact_pass(self, fallbacks):
        # a finite slack forced onto a model with a NaN unit: the batched
        # logits hold NaN whether the unit is dropped (NaN * 0) or not
        rng = XorShift64Star(15)
        model = random_small_model(rng, (3, 4, 5, 3, 1))
        X = 2.0 * rng.uniform_block(30 * 3).reshape(30, 3) - 1.0
        n = model.hidden_total
        biases = [b.copy() for b in model.biases]
        biases[1][2] = np.nan
        poisoned = fd.MlpModel(model.architecture, model.weights, biases)
        kernel = MaskedForward(poisoned, X)
        kernel._slack = np.full(30, _SIGMOID_HALF_WINDOW)
        bit = model.neuron_order.index((1, 2))
        masks = [DropoutState.from_indices(n, (bit,)), DropoutState.from_indices(n, (bit, 0)),
                 DropoutState.from_indices(n, (0,))]
        keys = mask_keys(masks)
        assert np.isnan(batched_logits(kernel, keys)).any(axis=1).all()
        preds = batched_predictions(kernel, keys)
        assert np.array_equal(preds, exact_predictions(kernel, masks))
        assert preds[0].any()  # the dropped NaN unit does not blank the mask
        data = signs_dataset(X)
        evaluator = fd.CostEvaluator(poisoned, data, PRICE_PARAMS)
        evaluator._forward._slack = kernel._slack
        assert [tuple(evaluator.price(s)) for s in masks] == [
            reference_price(poisoned, data, s, PRICE_PARAMS) for s in masks]
        assert len(fallbacks) == 3 and fallbacks.settled == []  # no err64 to check rows by

    @pytest.mark.filterwarnings("ignore:invalid value encountered in matmul:RuntimeWarning")
    def test_nan_in_a_kept_unit_fails_the_row_check(self, fallbacks):
        # finite slacks forced onto the model of the test above, so that the
        # row check runs: a mask that drops the NaN unit zeroes it by
        # assignment, so its rows come out finite and settle; one that keeps
        # it reads NaN there and takes the whole exact pass
        rng = XorShift64Star(15)
        model = random_small_model(rng, (3, 4, 5, 3, 1))
        X = 2.0 * rng.uniform_block(30 * 3).reshape(30, 3) - 1.0
        n = model.hidden_total
        biases = [b.copy() for b in model.biases]
        biases[1][2] = np.nan
        poisoned = fd.MlpModel(model.architecture, model.weights, biases)
        data = signs_dataset(X)
        evaluator = fd.CostEvaluator(poisoned, data, PRICE_PARAMS)
        forward = evaluator._forward
        forward._slack = np.full(30, _SIGMOID_HALF_WINDOW)
        forward._errors = np.zeros((2, 30))
        bit = model.neuron_order.index((1, 2))
        masks = [DropoutState.from_indices(n, (bit,)), DropoutState.from_indices(n, (bit, 0)),
                 DropoutState.from_indices(n, (0,))]
        assert np.isnan(forward._exact(masks[2].bits, np.arange(30))).all()
        assert [tuple(evaluator.price(s)) for s in masks] == [
            reference_price(poisoned, data, s, PRICE_PARAMS) for s in masks]
        assert (len(fallbacks), len(fallbacks.settled)) == (1, 2)

    def test_bound_holds_against_exact_logits(self):
        # Rational arithmetic from the cached first layer gives each mask's
        # real logit; the batched (float32) pass lies within err32 of it,
        # and the exact (float64) pass within err64, also when it runs on a
        # few rows only, as the row check runs it.
        rng = XorShift64Star(51)
        model = random_small_model(rng, (2, 3, 4, 3, 1))
        X = 4.0 * rng.uniform_block(6 * 2).reshape(6, 2) - 2.0
        kernel = MaskedForward(model, X)
        n = model.hidden_total
        err64, err32 = ([Fraction(e) for e in err.tolist()] for err in kernel._errors)
        masks = [DropoutState(n, bits) for bits in range(0, 1 << n, 37)]
        batched = batched_logits(kernel, mask_keys(masks))
        for mask, fast in zip(masks, batched):
            dropped = model.masked_units_per_layer(mask.bits)
            A = [[Fraction(a) * (u not in dropped[0]) for u, a in enumerate(row)]
                 for row in kernel._first.tolist()]
            for i, (W, b) in enumerate(zip(model.weights[1:], model.biases[1:])):
                Z = [[sum((Fraction(w) * a for w, a in zip(w_row, row)), Fraction(bias))
                      for w_row, bias in zip(W.tolist(), b.tolist())] for row in A]
                if i + 2 < len(model.weights):
                    A = [[max(z, Fraction(0)) * (u not in dropped[i + 1])
                          for u, z in enumerate(row)] for row in Z]
            real = [row[0] for row in Z]
            for z, err in ((fast, err32), (kernel.logits(mask), err64)):
                assert all(abs(Fraction(v) - r) <= e for v, r, e in zip(z.tolist(), real, err))
            for rows in ([0, 2, 5], [3], [5, 1]):
                z = kernel._exact(mask.bits, np.array(rows)).tolist()
                assert all(abs(Fraction(v) - real[r]) <= err64[r] for v, r in zip(z, rows))


class TestSingleMaskPass:
    """One mask's hidden pass, which assigns 0.0 to its dropped units' weight
    columns, against a batch's keep-factor multiply (``w * 0.0``, a signed
    zero where ``w`` is negative)."""

    @pytest.mark.parametrize("sizes", [(3, 4, 5, 1), (3, 5, 4, 1), (3, 4, 5, 3, 1)])
    def test_equals_the_keep_factor_multiply(self, sizes):
        rng = XorShift64Star(sum(sizes))
        base = random_small_model(rng, sizes)  # weights in [-1, 1]
        order = list(base.neuron_order)
        rng.shuffle(order)
        model = fd.MlpModel(base.architecture, base.weights, base.biases, neuron_order=order)
        assert model.neuron_order != base.neuron_order
        assert any((W < 0).any() for W in model.weights[1:-1])
        X = 2.0 * rng.uniform_block(40 * 3).reshape(40, 3) - 1.0
        kernel = MaskedForward(model, X)
        n = model.hidden_total
        keys = [0, (1 << n) - 1]
        for _ in range(30):  # a bit in every hidden layer, and some more
            keys.append(sum(1 << int(bits[rng.randrange(len(bits))]) for bits in kernel._bits)
                        | sum(1 << i for i in rng.sample_indices(n, rng.randint(0, n))))
        signed_zeros = 0
        for key in keys:
            single = kernel._batch_hidden([key])[0].copy()
            single_w = [W[0].copy() for W in kernel._buffers[1]]
            batch = kernel._batch_hidden([key, 0])[0]
            for a, b in zip(single_w, (W[0] for W in kernel._buffers[1])):
                assert np.array_equal(a, b)
                signed_zeros += int((np.signbit(a) != np.signbit(b)).sum())
            # equal, and bit for bit unless both are zeros
            assert np.array_equal(single, batch)
            assert ((single.view(np.uint32) == batch.view(np.uint32)) | (single == 0)).all()
            single_z, batch_z = batched_logits(kernel, [key]), batched_logits(kernel, [key, 0])
            assert np.array_equal(single_z[0], batch_z[0])
            mask = DropoutState(n, key)
            assert np.array_equal(batched_predictions(kernel, [key])[0], kernel.predict(mask))
            assert np.array_equal(batched_predictions(kernel, [key, 0])[0], kernel.predict(mask))
        assert signed_zeros > 0  # the weights differ, in the sign of zeros only

    def test_numpy_keys_need_no_python_int(self):
        # key & -key on an np.uint64 overflows: keys are converted first
        rng = XorShift64Star(8)
        model = random_small_model(rng, (3, 6, 5, 4, 1))
        X = 2.0 * rng.uniform_block(20 * 3).reshape(20, 3) - 1.0
        kernel = MaskedForward(model, X)
        n = model.hidden_total
        keys = [(1 << n) - 1] + [sum(1 << i for i in rng.sample_indices(n, rng.randint(1, n)))
                                 for _ in range(10)]
        for key in keys:
            expected = kernel._batch_hidden([key])[0].copy()
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = kernel._batch_hidden(np.array([key], dtype=np.uint64))[0]
                units = model.masked_units_per_layer(np.uint64(key))
                exact = kernel._exact(np.uint64(key))
            assert np.array_equal(got, expected)
            assert units == model.masked_units_per_layer(key)
            assert np.array_equal(exact, kernel._exact(key))


def straddling_instance():
    """A [1, 2, 1] model whose unmasked logit is -2**-30 on the rows x = 1,
    with rows x = 0 beside them in both groups.  Its two hidden units read
    1 + 2**-24 +- 2**-30 there, either side of a float32 rounding midpoint,
    so float32 rounds them 2**-23 apart and reads that logit as about
    +1.2e-7: the wrong sign, and past float64's error bound (about 1e-15)
    but within float32's."""
    eps = 2.0 ** -30
    model = fd.MlpModel(MlpArchitecture((1, 2, 1)),
                        [np.array([[1.0 + 2.0 ** -24 + eps], [1.0 + 2.0 ** -24 - eps]]),
                         np.array([[1.0, -1.0]])],
                        [np.zeros(2), np.array([-3.0 * eps])])
    data = fd.TabularDataset(np.array([[1.0], [0.0], [1.0], [0.0]]), np.array([1, 0, 1, 0]),
                             np.array([0, 0, 1, 1]), ("x",))
    return model, data, eps


class TestFloat32Pass:
    def test_logit_within_float32_error_takes_the_exact_pass(self, fallbacks):
        # float32 cannot vouch for the x = 1 rows, but the exact pass's own
        # operations on those two rows put them far past twice err64
        model, data, eps = straddling_instance()
        kernel = MaskedForward(model, data.features)
        err64, err32 = kernel._errors
        straddling = [0, 2]
        fast = batched_logits(kernel, [0])[0]
        assert kernel.logits()[straddling].tolist() == [-eps, -eps]
        assert (fast[straddling] > err64[straddling] + _SIGMOID_HALF_WINDOW).all()
        assert (eps > err64[straddling] + _SIGMOID_HALF_WINDOW).all()
        assert (eps < err32[straddling]).all()

        states = [DropoutState(2, bits) for bits in range(4)]
        # the x = 1 rows lie within their float32 slack under the unmasked
        # state and under the one dropping both units (logit -3 * 2**-30);
        # dropping one unit moves them far out
        doubtful = 2
        assert np.array_equal(batched_predictions(kernel, mask_keys(states)),
                              exact_predictions(kernel, states))
        assert np.array_equal(exact_predictions(kernel, states),
                              [reference_predictions(model, data.features, s) == 1
                               for s in states])
        expected = [reference_price(model, data, s, PRICE_PARAMS) for s in states]
        alone = (fast >= 0.0).astype(np.int64)  # what float32 alone would predict
        assert fd.f1(fd.confusion(alone, data.labels)) == 1.0 != expected[0][2]
        assert (eps > 2 * err64[straddling] + _SIGMOID_HALF_WINDOW).all()
        evaluator = fd.CostEvaluator(model, data, PRICE_PARAMS)
        assert [tuple(evaluator.price(s)) for s in states] == expected
        assert (len(fallbacks), len(fallbacks.settled)) == (0, doubtful)
        assert [tuple(e) for e in evaluator.evaluate_many(states)] == expected
        assert (len(fallbacks), len(fallbacks.settled)) == (0, 2 * doubtful)
        space = fairdrop.oracle.price_space(model, data, fd.SearchSpaceBounds(2, 0, 2),
                                            PRICE_PARAMS)
        assert list(zip(space.keys.tolist(), space.cost.tolist(), space.eod.tolist(),
                        space.f1.tolist())) == [(s.bits, *e) for s, e in zip(states, expected)]
        assert (len(fallbacks), len(fallbacks.settled)) == (0, 3 * doubtful)

    @pytest.mark.parametrize("case", ["activations", "weight", "output"])
    def test_model_past_float32_range_takes_the_exact_pass(self, fallbacks, case):
        # finite float64 weights: about 1e20 per layer takes the second
        # hidden layer to about 1e40, past float32; a 1e35 weight reading a
        # unit that is always 0 does not reach the activations, but would
        # still overflow in float32 on its own; so would an output weight
        # and bias of 1e39, which no float32 buffer may then hold
        rng = XorShift64Star(16)
        base = random_small_model(rng, (2, 3, 3, 1))
        weights = [w.copy() for w in base.weights]
        biases = [b.copy() for b in base.biases]
        if case == "activations":
            weights = [1e20 * w for w in weights]
            biases = [1e20 * b for b in biases]
        elif case == "weight":
            weights[0][0], biases[0][0] = -1.0, -1.0
            weights[1][0, 0] = 1e35
        else:
            weights[-1] = 1e39 * weights[-1]
            biases[-1] = 1e39 * biases[-1]
        model = fd.MlpModel(base.architecture, weights, biases)
        X = rng.uniform_block(40 * 2).reshape(40, 2)
        data = fd.TabularDataset(X, (X[:, 0] > 0.5).astype(np.int64),
                                 (X[:, 1] > 0.5).astype(np.int64), ("a", "b"))
        kernel = MaskedForward(model, X)
        assert kernel._errors is None and kernel._slack is None
        n = model.hidden_total
        states = [DropoutState(n, bits) for bits in range(0, 1 << n, 5)]
        preds = batched_predictions(kernel, mask_keys(states))
        assert np.array_equal(preds, exact_predictions(kernel, states))
        assert np.array_equal(preds, [reference_predictions(model, X, s) == 1 for s in states])
        expected = [reference_price(model, data, s, PRICE_PARAMS) for s in states]
        evaluator = fd.CostEvaluator(model, data, PRICE_PARAMS)
        assert [tuple(evaluator.price(s)) for s in states] == expected
        assert len(fallbacks) == len(states)
        evaluator = fd.CostEvaluator(model, data, PRICE_PARAMS)
        assert [tuple(e) for e in evaluator.evaluate_many(states)] == expected
        assert len(fallbacks) == 2 * len(states)
        space = fairdrop.oracle.price_space(model, data, fd.SearchSpaceBounds(n, 0, n),
                                            PRICE_PARAMS)
        priced = {bits: (c, None if e != e else e, f) for bits, c, e, f in zip(
            space.keys.tolist(), space.cost.tolist(), space.eod.tolist(), space.f1.tolist())}
        assert [priced[s.bits] for s in states] == expected
        assert len(fallbacks) == 2 * len(states) + (1 << n) and fallbacks.settled == []

    def test_batched_pass_runs_in_float32(self, small_instance, monkeypatch):
        # a float32 block times a float64 indicator would copy the block up
        # to float64 on every call
        parts, model, params = small_instance
        n = model.hidden_total
        logits, indicators = [], []
        certified = MaskedForward._certified
        indicator = fairdrop.search.group_label_indicator

        def spy_certified(self, z, keys, preds):
            logits.append((z.dtype, preds.dtype))
            return certified(self, z, keys, preds)

        def spy_indicator(*args):
            indicators.append(indicator(*args))
            return indicators[-1]
        monkeypatch.setattr(MaskedForward, "_certified", spy_certified)
        monkeypatch.setattr(fairdrop.search, "group_label_indicator", spy_indicator)
        evaluator = fd.CostEvaluator(model, parts.validation, params)
        evaluator.price(DropoutState.from_indices(n, (0, 9)))
        evaluator.evaluate_many(DropoutState.from_indices(n, (b, 15 - b)) for b in range(8))
        fairdrop.oracle.price_space(model, parts.validation, fd.SearchSpaceBounds(n, 1, 2),
                                    params)
        first, weight_stacks, out_stacks = evaluator._forward._buffers
        kept = [hidden for _, hidden in evaluator._recent]
        for array in (first, *weight_stacks, *out_stacks, *kept, evaluator._forward._rows,
                      evaluator._z, evaluator._preds, evaluator._indicator, *indicators):
            assert array.dtype == np.float32
        assert len(logits) >= 3 and set(logits) == {(np.dtype(np.float32),) * 2}


def separable_split(n=600, seed=9):
    rng = XorShift64Star(seed)
    X = rng.uniform_block(n * 2).reshape(n, 2)
    y = (X[:, 0] > 0.5).astype(np.int64)
    prot = (X[:, 1] > 0.5).astype(np.int64)
    return fd.split(fd.TabularDataset(X, y, prot, ("a", "b")), 1)


class TestTrain:
    def test_learns_separable_data(self):
        parts = separable_split()
        model = fd.train(parts, MlpArchitecture((2, 8, 1)),
                         fd.TrainConfig(learning_rate=0.5, epochs=50, batch_size=64, seed=1))
        preds = fd.predict_batch(model, parts.validation)
        score = fd.f1(fd.confusion(preds, parts.validation.labels))
        assert score >= 0.95
        assert score >= 0.99  # observed 1.0 on first run, pinned as regression floor

    def test_deterministic_weights(self):
        parts = separable_split()
        cfg = fd.TrainConfig(learning_rate=0.3, epochs=5, batch_size=32,
                             train_dropout_prob=0.2, seed=42)
        a = fd.train(parts, MlpArchitecture((2, 6, 1)), cfg)
        b = fd.train(parts, MlpArchitecture((2, 6, 1)), cfg)
        for wa, wb in zip(a.weights, b.weights):
            assert np.array_equal(wa, wb)
        for ba, bb in zip(a.biases, b.biases):
            assert np.array_equal(ba, bb)

    def test_different_seed_different_weights(self):
        parts = separable_split()
        a = fd.train(parts, MlpArchitecture((2, 6, 1)),
                     fd.TrainConfig(learning_rate=0.3, epochs=3, batch_size=32, seed=1))
        b = fd.train(parts, MlpArchitecture((2, 6, 1)),
                     fd.TrainConfig(learning_rate=0.3, epochs=3, batch_size=32, seed=2))
        assert any(not np.array_equal(wa, wb) for wa, wb in zip(a.weights, b.weights))

    @pytest.mark.parametrize("sizes, rows, data_seed, split_seed, cfg, digest", [
        ((6, 8, 8, 1), 1500, 21, 5,
         fd.TrainConfig(learning_rate=0.3, epochs=25, batch_size=64, train_dropout_prob=0.1,
                        seed=4),
         "1820a297dc0a96318cafb87bae741b015dfba11b8b8b62f6c31278f2f8f4d764"),
        ((5, 7, 4, 3, 1), 600, 3, 2,
         fd.TrainConfig(learning_rate=0.2, epochs=6, batch_size=50, train_dropout_prob=0.3,
                        seed=9),
         "3c0b45a1b34791c08a90c1a2ee0552ada7e5bb5b0ad080003dd13e07d955a6d9"),
        ((10, 16, 16, 1), 10_000, 7, 1,
         fd.TrainConfig(learning_rate=0.3, epochs=30, batch_size=128, train_dropout_prob=0.1,
                        seed=1),
         "8c8dd9d6fd211968325f8f51b3de4bf5d0d89c01f54d000fcae762e5973945e0"),
        ((6, 8, 8, 1), 1500, 21, 5,
         fd.TrainConfig(learning_rate=0.3, epochs=25, batch_size=64, train_dropout_prob=0.0,
                        seed=4),
         "baad9b76024472100f4661170567da7fe4b7fbe45062feefe1d0717db7927021"),
        ((6, 8, 1), 1500, 21, 5,
         fd.TrainConfig(learning_rate=0.3, epochs=25, batch_size=64, train_dropout_prob=0.1,
                        seed=4),
         "8d63fa5ee8d47d94267ae2b9584be6865cf0c129a25d3e68aca710cdd1587866"),
    ], ids=["census", "three-hidden-layers", "benchmark", "census-no-dropout",
            "one-hidden-layer"])
    def test_dropout_training_is_pinned(self, sizes, rows, data_seed, split_seed, cfg, digest):
        # SHA-256 of the weights and biases, pinned when every batch drew its
        # own dropout uniforms: one draw per epoch must give the same stream.
        # The training splits (900, 360 and 6,000 rows) end in a short batch.
        # The last two cases take the trainer's no-dropout branch and its
        # one-hidden-layer loop.
        # The benchmark instance's epochs draw 192,000 uniforms, many blocks
        # of the generator's lane layout; the census epochs fit in one.
        data = fd.synthesize_biased(rows, sizes[0], 0.8, seed=data_seed)
        model = fd.train(fd.split(data, split_seed), MlpArchitecture(sizes), cfg)
        h = hashlib.sha256()
        for w, b in zip(model.weights, model.biases):
            h.update(w.tobytes())
            h.update(b.tobytes())
        assert h.hexdigest() == digest

    def test_full_batch_is_one_step_per_epoch(self):
        # one epoch of full-batch SGD == one manually computed gradient step
        parts = separable_split(n=50)
        n = parts.train.n_rows
        arch = MlpArchitecture((2, 3, 1))
        model = fd.train(parts, arch,
                         fd.TrainConfig(learning_rate=0.1, epochs=1, batch_size=n, seed=5))

        rng = XorShift64Star(5)
        init = initialize_model(arch, rng)
        order = list(range(n))
        rng.shuffle(order)  # full batch: order only permutes rows, grads identical
        X = parts.train.features[order]
        y = parts.train.labels[order].astype(np.float64)
        W0, W1 = [w.copy() for w in init.weights]
        b0, b1 = [b.copy() for b in init.biases]
        Z = X @ W0.T + b0
        A = np.maximum(Z, 0.0)
        z = (A @ W1.T + b1).ravel()
        dz = (1 / (1 + np.exp(-z)) - y) / n
        dW1 = dz[None, :] @ A
        db1 = np.array([dz.sum()])
        dA = np.outer(dz, W1.ravel())
        dZ = dA * (Z > 0)
        dW0 = dZ.T @ X
        db0 = dZ.sum(axis=0)
        assert np.allclose(model.weights[0], W0 - 0.1 * dW0, atol=1e-12)
        assert np.allclose(model.weights[1], W1 - 0.1 * dW1, atol=1e-12)
        assert np.allclose(model.biases[0], b0 - 0.1 * db0, atol=1e-12)
        assert np.allclose(model.biases[1], b1 - 0.1 * db1, atol=1e-12)

    def test_divergence_raises(self):
        # centered features keep ReLUs alive so a huge step truly overflows
        rng = XorShift64Star(9)
        X = 2 * rng.uniform_block(100 * 2).reshape(100, 2) - 1
        y = (X[:, 0] > 0).astype(np.int64)
        prot = (X[:, 1] > 0).astype(np.int64)
        parts = fd.split(fd.TabularDataset(X, y, prot, ("a", "b")), 1)
        with pytest.raises(TrainingError):
            fd.train(parts, MlpArchitecture((2, 8, 1)),
                     fd.TrainConfig(learning_rate=1e9, epochs=20, batch_size=10, seed=1))

    def test_architecture_must_match_features(self):
        parts = separable_split(n=50)
        with pytest.raises(ShapeError):
            fd.train(parts, MlpArchitecture((3, 4, 1)),
                     fd.TrainConfig(learning_rate=0.1, epochs=1, batch_size=10, seed=1))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            fd.TrainConfig(learning_rate=0.0, epochs=1, batch_size=1)
        with pytest.raises(ValueError):
            fd.TrainConfig(learning_rate=0.1, epochs=0, batch_size=1)
        with pytest.raises(ValueError):
            fd.TrainConfig(learning_rate=0.1, epochs=1, batch_size=1, train_dropout_prob=1.0)

    @pytest.mark.parametrize("field, value", [
        ("learning_rate", math.nan), ("learning_rate", math.inf), ("learning_rate", -math.inf),
        ("learning_rate", True), ("learning_rate", "0.3"),
        ("epochs", 2.5), ("epochs", 2.0), ("epochs", True),
        ("batch_size", 8.5), ("batch_size", False),
        ("train_dropout_prob", math.nan), ("train_dropout_prob", False),
        ("seed", 1.5), ("seed", True),
    ])
    def test_config_rejects_what_the_cli_rejects(self, field, value):
        # Before these checks a NaN rate ended in a misleading TrainingError,
        # a fractional count in a TypeError inside train, and epochs=True
        # trained for one epoch.
        fields = dict(learning_rate=0.3, epochs=2, batch_size=8, train_dropout_prob=0.1, seed=1)
        with pytest.raises(ValueError, match=f"^{field} must"):
            fd.TrainConfig(**{**fields, field: value})


class TestSerialization:
    def test_roundtrip_bit_identical_forward(self, tmp_path):
        parts = separable_split(n=100)
        model = fd.train(parts, MlpArchitecture((2, 5, 1)),
                         fd.TrainConfig(learning_rate=0.3, epochs=3, batch_size=32, seed=3))
        path = tmp_path / "model.json"
        fd.save_model(model, path)
        loaded = fd.load_model(path)
        assert loaded.neuron_order == model.neuron_order
        probe = parts.test.features
        assert np.array_equal(proba(loaded, probe), proba(model, probe))
        for wa, wb in zip(loaded.weights, model.weights):
            assert np.array_equal(wa, wb)

    def test_mismatched_shape_names_offending_layer(self, tmp_path):
        model = hand_model()
        path = tmp_path / "model.json"
        fd.save_model(model, path)
        doc = json.loads(path.read_text())
        doc["layers"][1]["weights"] = [[1.0, 2.0, 3.0]]
        path.write_text(json.dumps(doc))
        with pytest.raises(ModelFormatError, match="layer 1"):
            fd.load_model(path)

    def test_bad_version_rejected(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text(json.dumps({"format_version": 99}))
        with pytest.raises(ModelFormatError):
            fd.load_model(path)

    def test_corrupt_json_rejected(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text("{not json")
        with pytest.raises(ModelFormatError):
            fd.load_model(path)

    def test_unedited_test_document_loads(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text(json.dumps(model_document()))
        model = fd.load_model(path)
        assert model.architecture.layer_sizes == (6, 2, 1)
        assert model.neuron_order == ((0, 0), (0, 1))

    def test_integer_weights_and_biases_load_as_floats(self, tmp_path):
        loaded = []
        for kind in (int, float):
            doc = model_document(output_bias=-2.0)
            for layer in doc["layers"]:
                layer["weights"] = [[kind(w) for w in row] for row in layer["weights"]]
                layer["bias"] = [kind(b) for b in layer["bias"]]
            path = tmp_path / f"{kind.__name__}.json"
            path.write_text(json.dumps(doc))
            loaded.append(fd.load_model(path))
        assert "1.0" not in (tmp_path / "int.json").read_text()
        ints, floats = loaded
        for a, b in zip(ints.weights + ints.biases, floats.weights + floats.biases):
            assert a.dtype == b.dtype == np.float64 and np.array_equal(a, b)

    @pytest.mark.parametrize("text, fragment", MALFORMED_MODEL_FILES.values(),
                             ids=MALFORMED_MODEL_FILES)
    def test_malformed_file_is_an_error_naming_it(self, tmp_path, text, fragment):
        path = tmp_path / "model.json"
        path.write_text(text)
        with pytest.raises(ModelFormatError) as exc:
            fd.load_model(path)
        assert str(exc.value).startswith(f"{path}: ")
        assert fragment in str(exc.value)

    def test_bad_neuron_order_rejected(self, tmp_path):
        model = hand_model()
        path = tmp_path / "model.json"
        fd.save_model(model, path)
        doc = json.loads(path.read_text())
        doc["neuron_order"] = [[0, 0], [0, 0]]
        path.write_text(json.dumps(doc))
        with pytest.raises(ModelFormatError):
            fd.load_model(path)

    def test_externally_authored_file_loads(self, tmp_path):
        doc = {
            "format_version": 1,
            "layer_sizes": [2, 2, 1],
            "layers": [
                {"weights": [[1.0, 0.0], [0.0, 1.0]], "bias": [0.0, 0.0]},
                {"weights": [[1.0, 1.0]], "bias": [0.0]},
            ],
            "neuron_order": [[0, 0], [0, 1]],
        }
        path = tmp_path / "hand.json"
        path.write_text(json.dumps(doc))
        model = fd.load_model(path)
        assert proba(model, (1.0, 2.0))[0] == pytest.approx(1 / (1 + math.exp(-3.0)),
                                                            abs=1e-15)
