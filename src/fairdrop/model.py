"""Feed-forward ReLU classifier with a masked forward pass and a small SGD trainer.

The model is a stack of hidden layers (affine map followed by ReLU) ending in
a single sigmoid output unit; the predicted label is 1 when the probability
reaches 0.5.  Inference-time dropout forces the output of every masked
hidden neuron to zero before it feeds the next layer, so a masked neuron's
activation never reaches the output, even when it is NaN or infinite.  Every
forward pass runs through ``MaskedForward``, which is built once per batch of
rows, caches the first hidden layer and has two passes: the exact one, which
zeroes the dropped activations by assignment, for training's validation
scoring and reports; and a batched one, whose hidden layers and output
rows search and enumeration pair in GEMMs of their own, behind a certified
error bound that sends any prediction it cannot vouch for to the exact pass:
first on the doubtful rows alone, then, if those do not settle, on all.

Hidden neurons carry a fixed total order (the ``neuron_order`` bijection)
that maps mask bit positions to (layer, unit) pairs; the order is set at
construction and serialized with the model so masks stay meaningful across
save/load.  Training, the exact pass and every report are float64; only
the certified batched pass runs in float32.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass

import numpy as np

from .dataset import SplitDataset, TabularDataset
from .ioutil import atomic_write_text, has_type, json_integer, json_numbers
from .metrics import confusion, f1
from .prng import XorShift64Star

MODEL_FORMAT_VERSION = 1


class ShapeError(ValueError):
    """Input, mask or weight dimensions inconsistent with the architecture."""


class TrainingError(RuntimeError):
    """Training diverged (non-finite loss)."""


class ModelFormatError(ValueError):
    """A model file failed validation."""


@dataclass(frozen=True)
class MlpArchitecture:
    """Layer sizes [input, hidden..., output]; the output size is fixed to 1."""

    layer_sizes: tuple[int, ...]

    def __post_init__(self):
        sizes = self.layer_sizes
        if len(sizes) < 3:
            raise ShapeError("architecture needs an input layer, at least one hidden layer, "
                             "and an output layer")
        if any(s < 1 for s in sizes):
            raise ShapeError(f"all layer sizes must be >= 1, got {sizes}")
        if sizes[-1] != 1:
            raise ShapeError(f"output layer size must be 1, got {sizes[-1]}")

    @property
    def input_size(self) -> int:
        return self.layer_sizes[0]

    @property
    def hidden_sizes(self) -> tuple[int, ...]:
        return self.layer_sizes[1:-1]

    @property
    def hidden_total(self) -> int:
        return sum(self.hidden_sizes)


def default_neuron_order(arch: MlpArchitecture) -> tuple[tuple[int, int], ...]:
    """Layer-major order: hidden layer 0 unit 0, unit 1, ..., then layer 1."""
    return tuple((layer, unit)
                 for layer, size in enumerate(arch.hidden_sizes)
                 for unit in range(size))


class MlpModel:
    """Immutable weights/biases plus the hidden-neuron total order.

    ``weights[i]`` has shape (fan_out, fan_in) and maps layer i's inputs to
    layer i+1's pre-activations via ``A @ W.T + b``.
    """

    def __init__(self, architecture: MlpArchitecture, weights, biases, neuron_order=None):
        sizes = architecture.layer_sizes
        weights = tuple(np.asarray(w, dtype=np.float64) for w in weights)
        biases = tuple(np.asarray(b, dtype=np.float64) for b in biases)
        if len(weights) != len(sizes) - 1 or len(biases) != len(sizes) - 1:
            raise ShapeError(f"expected {len(sizes) - 1} weight/bias layers, "
                             f"got {len(weights)}/{len(biases)}")
        for i, (w, b) in enumerate(zip(weights, biases)):
            want = (sizes[i + 1], sizes[i])
            if w.shape != want:
                raise ShapeError(f"layer {i} weights: expected shape {want}, got {w.shape}")
            if b.shape != (sizes[i + 1],):
                raise ShapeError(f"layer {i} bias: expected length {sizes[i + 1]}, got {b.shape}")
        if neuron_order is None:
            neuron_order = default_neuron_order(architecture)
        neuron_order = tuple((int(l), int(u)) for l, u in neuron_order)
        expected = set(default_neuron_order(architecture))
        if set(neuron_order) != expected or len(neuron_order) != len(expected):
            raise ShapeError("neuron_order must be a bijection over all hidden neurons")
        self.architecture = architecture
        self.weights = weights
        self.biases = biases
        self.neuron_order = neuron_order

    @property
    def hidden_total(self) -> int:
        return self.architecture.hidden_total

    def masked_units_per_layer(self, mask) -> list[list[int]]:
        """Local unit indices to zero in each hidden layer under `mask`."""
        per_layer: list[list[int]] = [[] for _ in self.architecture.hidden_sizes]
        if mask is not None:
            if mask.n != self.hidden_total:
                raise ShapeError(f"mask covers {mask.n} neurons, model has {self.hidden_total}")
            for bit in mask.indices():
                layer, unit = self.neuron_order[bit]
                per_layer[layer].append(unit)
        return per_layer


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


# A logit at or above -_SIGMOID_HALF_WINDOW may still round to probability
# 0.5 (it does down to about -4.4e-17); below it the probability is < 0.5 by
# far more than the sigmoid's rounding error.
_SIGMOID_HALF_WINDOW = 1e-12

# Unit roundoffs of float64 (the exact pass) and float32 (the batched pass),
# for the dot-product error bounds.
_U64 = 2.0 ** -53
_U32 = 2.0 ** -24

# float32's smallest normal number: a float32 rounding whose result lies
# below it errs by at most this much in absolute terms, also where the
# hardware flushes such results to zero.
_F32_TINY = 2.0 ** -126

# The batched pass runs in float32 only while every weight and every
# activation's bound stays below this, far inside float32's range (3.4e38).
_F32_RANGE = 1e30

# The batched pass prices as many masks at once as keep about this many
# float32 values in one layer's stacked outputs (masks x units x rows).
_BATCH_ELEMENTS = 1 << 17


def _gamma(k: int, u: float) -> float:
    """Higham's bound on k roundings of unit roundoff u compounded."""
    return k * u / (1.0 - k * u)


class MaskedForward:
    """The masked forward pass over one fixed batch of feature rows.

    Built once per batch (a 1-D ``features`` is one row): it checks the
    batch's shape and computes the mask-independent first hidden layer
    ``relu(X @ W0.T + b0)``.  Masks then run over that layer in one of two
    passes.  ``logits`` and ``predict`` run the exact pass for one mask, in
    float64: every later layer on fresh arrays, with the dropped units'
    activations zeroed by assignment.  The batched pass runs in float32:
    ``_batch_hidden`` takes up to ``batch_size`` masks through one matmul
    per later hidden layer to the last one, which a mask's bits in the
    earlier layers (``prefix_bits``) alone set, and ``_output_rows`` builds
    the output rows for keep factors of the last layer's units
    (``suffix_bits``); ``CostEvaluator`` and the oracle pair the two in
    GEMMs of their own.  Their logits give the exact pass's predictions
    behind a certified error bound (``_slack``) that covers both passes'
    rounding: ``_certified`` runs the exact pass's operations on the rows it
    cannot vouch for (the row check, ``_settled``), and sends a mask whose
    rows that does not settle through the whole exact pass.
    """

    def __init__(self, model: MlpModel, features: np.ndarray):
        X = np.atleast_2d(np.asarray(features, dtype=np.float64))
        if X.ndim != 2 or X.shape[1] != model.architecture.input_size:
            raise ShapeError(f"expected {model.architecture.input_size} input features, "
                             f"got {X.shape[-1]}")
        self.model = model
        n = X.shape[0]
        first = X @ model.weights[0].T
        np.add(first, model.biases[0], out=first)
        np.maximum(first, 0.0, out=first)
        self._first = first
        # Mask bit positions of each hidden layer's units, in unit order.
        position = {pair: bit for bit, pair in enumerate(model.neuron_order)}
        self._bits = [np.array([position[layer, unit] for unit in range(size)])
                      for layer, size in enumerate(model.architecture.hidden_sizes)]
        self.prefix_bits = np.concatenate([np.empty(0, np.intp), *self._bits[:-1]])
        self.suffix_bits = self._bits[-1]
        widest = max(model.architecture.layer_sizes[2:])
        self.batch_size = max(1, _BATCH_ELEMENTS // max(1, n * widest))
        self._capacity = 0  # masks the batched pass's buffers hold
        self._rows = np.empty((0, len(self.suffix_bits) + 1), dtype=np.float32)

    def keep(self, mask) -> np.ndarray:
        """Keep factors of ``mask``, one per mask bit: 1.0 keeps that neuron,
        0.0 drops it; all 1.0 when ``mask`` is None."""
        n = self.model.hidden_total
        if mask is None:
            return np.ones(n)
        if mask.n != n:
            raise ShapeError(f"mask covers {mask.n} neurons, model has {n}")
        return self.keep_rows([mask.bits])[0]

    def keep_rows(self, keys) -> np.ndarray:
        """Keep factors (masks, bits) of the masks with integer ``keys``, all
        from one ``np.unpackbits`` over the keys' little-endian bytes."""
        n = self.model.hidden_total
        width = (n + 7) // 8
        dropped = np.frombuffer(b"".join(key.to_bytes(width, "little") for key in keys),
                                dtype=np.uint8).reshape(-1, width)
        return 1.0 - np.unpackbits(dropped, axis=1, count=n, bitorder="little")

    def logits(self, mask=None) -> np.ndarray:
        """Output-unit logits (pre-sigmoid), one per row, under ``mask``."""
        return self._exact(self.keep(mask))

    def _exact(self, keep: np.ndarray, rows: np.ndarray | None = None) -> np.ndarray:
        """Logits of the exact pass on every row, or on ``rows``, for the mask
        given as one row of keep factors: a dropped unit is zeroed by
        assignment, so it never reaches the output, even if NaN or infinite."""
        model = self.model
        A = self._first if rows is None else self._first[rows]
        last = len(model.weights) - 2
        for i, (W, b) in enumerate(zip(model.weights[1:], model.biases[1:])):
            dropped = keep[self._bits[i]] == 0.0
            if dropped.any():
                if A is self._first:
                    A = A.copy()
                A[:, dropped] = 0.0
            A = A @ W.T + b
            if i < last:
                A = np.maximum(A, 0.0)
        return A.reshape(-1)

    def predict(self, mask=None) -> np.ndarray:
        """Boolean predictions ``sigmoid(z) >= 0.5`` of the exact pass under
        ``mask``."""
        return _threshold(self.logits(mask))

    @functools.cached_property
    def _errors(self) -> tuple[np.ndarray, np.ndarray] | None:
        """Per row, how far the exact pass's logit (``err64``) and the
        batched pass's (``err32``) can lie from the real one, for any mask;
        None when the batched pass cannot run in float32.

        The real logit is the exact rational value of the masked layers
        from the cached first one.  ``bound`` bounds every real masked
        activation, because a mask only zeroes terms, and each error is
        carried through the next layer's ``|W|``.  Every layer after the
        cached one is a dot product of length k = fan_in + 1 (the bias is
        a term), so each computed value lies within ``gamma(k) * (|W| @ |a|
        + |b|)`` of the value from the computed inputs ``a``, in any
        summation order (Higham, *Accuracy and Stability of Numerical
        Algorithms*, 2nd ed., section 3.1).

        The exact pass sums in float64 (``_U64``) from the cached layer
        itself.  The batched pass sums in float32 (``_U32``): it starts
        from the cached layer rounded to float32, off by ``u32 * |first|``,
        and rounds each weight and bias once more, so a layer takes
        ``gamma32(fan_in + 2)`` over the activations' reach ``bound +
        err32``.  Underflow escapes those relative bounds: a float32
        rounding whose result falls below the normal range errs by up to
        2**-150, or by up to 2**-126 (``_F32_TINY``) where the hardware
        flushes such a result, or reads such a value, as zero.  A unit
        takes at most 2k such roundings in its dot product and two in its
        bias and output, each weight one on rounding and one on reading,
        and later roundings magnify none of them more than twice.  So
        ``err32`` carries ``4 * tiny * (k + 1 + sum(reach))`` per unit and
        layer, and ``2 * tiny`` on the cached layer, like any other error:
        underflow needs none of the sigmoid window, which 2**-150 times a
        product of large weights could exceed.  (float64 underflow, at
        most 2**-1074 per operation, is far below the window.)

        The bounds are themselves float64 sums and products of
        nonnegative numbers, so each falls short of its real value by at
        most a relative ``gamma64(ops)``, ``ops`` counting (generously)
        the roundings along its longest chain; both are scaled up by that.

        Float32 range: every product and partial sum of a batched layer
        stays within the reach of its outputs, so while every weight and
        every reach stays below ``_F32_RANGE`` nothing overflows.  A model
        past it, or with a bound that is not finite, gets None, and every
        mask takes the exact pass.
        """
        model = self.model
        bound = np.abs(self._first)
        err64 = np.zeros_like(bound)
        err32 = _U32 * bound + 2 * _F32_TINY
        if not (bound + err32).max() < _F32_RANGE:  # also when not finite
            return None
        ops = 8
        for W, b in zip(model.weights[1:], model.biases[1:]):
            absW, absb = np.abs(W.T), np.abs(b)
            if not absW.max() < _F32_RANGE:
                return None
            k = W.shape[1] + 1
            reach = bound + err32
            err64 = _gamma(k, _U64) * ((bound + err64) @ absW + absb) + err64 @ absW
            err32 = (_gamma(k + 1, _U32) * (reach @ absW + absb) + err32 @ absW
                     + 4 * _F32_TINY * (k + 1 + reach.sum(axis=1, keepdims=True)))
            bound = bound @ absW + absb
            if not (bound + err32).max() < _F32_RANGE:
                return None
            ops += k + 8
        scale = 1.0 + _gamma(ops, _U64)
        return scale * err64[:, 0], scale * err32[:, 0]

    @functools.cached_property
    def _slack(self) -> np.ndarray | None:
        """Per row, how far from 0 a logit of the batched pass must lie to
        give the exact pass's prediction: ``err64 + err32`` plus the
        sigmoid window; None when every mask takes the exact pass.

        A batched logit farther from 0 than that has the real logit on its
        side of 0 and farther than ``err64`` plus the window, so the exact
        pass's logit lies on that side too and outside the window, where
        ``_threshold`` predicts by its sign.
        """
        errors = self._errors
        return None if errors is None else errors[0] + errors[1] + _SIGMOID_HALF_WINDOW

    def _batch_buffers(self, B: int) -> tuple[np.ndarray, list[np.ndarray], list[np.ndarray]]:
        """Float32 buffers of the batched pass's hidden layers, each layer's
        input carrying a last row of ones so that its bias rides in the
        matmul as one more term: the first layer as (units + 1, rows), and
        for each later hidden layer copies of its weights with the bias as
        last column, and its outputs as (masks, units + 1, rows).  They hold
        as many masks as the largest batch run so far, so a kernel that
        prices one mask at a time holds one."""
        if self._capacity < B:
            n = self._first.shape[0]
            first = np.ones((self._first.shape[1] + 1, n), dtype=np.float32)
            first[:-1] = self._first.T
            weights, outs = [], []
            for W, b in zip(self.model.weights[1:-1], self.model.biases[1:-1]):
                stack = np.empty((B, W.shape[0], W.shape[1] + 1), dtype=np.float32)
                stack[:, :, -1] = b
                weights.append(stack)
                outs.append(np.ones((B, W.shape[0] + 1, n), dtype=np.float32))
            self._buffers = first, weights, outs
            self._capacity = B
        return self._buffers

    @functools.cached_property
    def _widest_slack(self) -> float:
        return float(self._slack.max())

    def _certified(self, z: np.ndarray | None, count: int, keep_of) -> np.ndarray:
        """Predictions (masks, rows) of ``count`` masks from their logits
        ``z`` of a float32 batched pass in any summation order.  A row is
        trusted only when its logit lies farther from 0 than its ``_slack``;
        the rows of a mask within it, or NaN, take the row check
        (``_settled``) on the keep factors ``keep_of(m)``, and a mask it does
        not settle goes through the exact pass, as does every mask when
        there is no slack (``z`` is then None: a caller skips the batched
        pass).
        When every logit clears the widest slack, no row needs its own
        test.  ``z`` is overwritten."""
        doubtful = None
        if z is None:
            preds = np.empty((count, self._first.shape[0]), dtype=bool)
            unsafe = range(count)
        else:
            preds = z >= 0.0
            np.abs(z, out=z)
            unsafe = ()
            if not z.min() > self._widest_slack:  # also when z holds a NaN
                doubtful = ~(z > self._slack)
                unsafe = np.flatnonzero(doubtful.any(axis=1))
        for m in unsafe:
            keep = keep_of(m)
            if doubtful is None or not self._settled(keep, np.flatnonzero(doubtful[m]), preds[m]):
                preds[m] = _threshold(self._exact(keep))
        return preds

    def _settled(self, keep: np.ndarray, rows: np.ndarray, preds: np.ndarray) -> bool:
        """Whether the exact pass's operations on ``rows`` alone settle those
        rows of the mask with keep factors ``keep``; if so, their predictions
        go into ``preds``.  ``err64`` bounds these operations too, in any
        summation order, so a row logit farther from 0 than twice it plus
        the sigmoid window has the whole exact pass's logit on its side of 0
        and outside the window, where ``_threshold`` predicts by its sign."""
        if self._errors is None:
            return False
        z = self._exact(keep, rows)
        if not (np.abs(z) > 2.0 * self._errors[0][rows] + _SIGMOID_HALF_WINDOW).all():  # or NaN
            return False
        preds[rows] = z > 0.0
        return True

    def _batch_hidden(self, keep: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Last hidden layer's float32 activations (masks, units + 1, rows)
        of the batched pass for up to ``batch_size`` masks, with the last row
        of ones that carries the output bias: in ``out`` when given (float32,
        its last row ones), else in the pass's buffers, which the next call
        overwrites.  Only the keep factors of the earlier hidden layers are
        read; with one hidden layer every mask shares the cached first
        layer."""
        B = keep.shape[0]
        H, weight_stacks, out_stacks = self._batch_buffers(B)
        outs = [stack[:B] for stack in out_stacks]
        if out is not None:
            if not outs:
                out[:] = H
                return out
            outs[-1] = out
        for i, (W, Wf, A) in enumerate(zip(self.model.weights[1:-1], weight_stacks, outs)):
            Wf = Wf[:B]
            np.multiply(W, keep[:, None, self._bits[i]], out=Wf[:, :, :-1])
            np.matmul(Wf, H, out=A[:, :-1])
            np.maximum(A, 0.0, out=A)
            H = A
        return np.broadcast_to(H, (B, *H.shape)) if H.ndim == 2 else H

    def _output_rows(self, keep: np.ndarray) -> np.ndarray | None:
        """Float32 output rows (masks, units + 1) for rows of keep factors of
        the last hidden layer's units in unit order: the output weights times
        each row, the bias last to meet ``_batch_hidden``'s row of ones, in a
        buffer the next call overwrites.  None when the batched pass does not
        run, as the output layer may lie past float32's range."""
        if self._slack is None:
            return None
        B = keep.shape[0]
        if len(self._rows) < B:
            self._rows = np.empty((B, self._rows.shape[1]), dtype=np.float32)
            self._rows[:, -1] = self.model.biases[-1]
        rows = self._rows[:B]
        np.multiply(self.model.weights[-1][0], keep, out=rows[:, :-1])
        return rows


def _threshold(z: np.ndarray) -> np.ndarray:
    """Boolean ``sigmoid(z) >= 0.5``: every logit z >= 0 predicts 1, and
    only logits in the narrow window below 0 where the probability can
    still round to 0.5 go through the sigmoid itself."""
    preds = z >= 0.0
    near = (z >= -_SIGMOID_HALF_WINDOW) & ~preds
    if near.any():
        preds[near] = _sigmoid(z[near]) >= 0.5
    return preds


def predict_batch(model: MlpModel, data, mask=None) -> np.ndarray:
    """0/1 predictions (threshold 0.5) for a TabularDataset or feature matrix."""
    features = data.features if isinstance(data, TabularDataset) else data
    return MaskedForward(model, features).predict(mask).astype(np.int64)


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float
    epochs: int
    batch_size: int
    train_dropout_prob: float = 0.0
    seed: int = 0

    def __post_init__(self):
        # The config rules of the CLI: no bools, NaNs, infinities or
        # fractional counts.
        if not (has_type(self.learning_rate, float) and self.learning_rate > 0):
            raise ValueError(f"learning_rate must be a positive finite number, "
                             f"got {self.learning_rate!r}")
        for name in ("epochs", "batch_size"):
            value = getattr(self, name)
            if not (has_type(value, int) and value >= 1):
                raise ValueError(f"{name} must be a positive integer, got {value!r}")
        if not (has_type(self.train_dropout_prob, float) and 0.0 <= self.train_dropout_prob < 1.0):
            raise ValueError(f"train_dropout_prob must lie in [0, 1), "
                             f"got {self.train_dropout_prob!r}")
        if not has_type(self.seed, int):
            raise ValueError(f"seed must be an integer, got {self.seed!r}")


def initialize_model(arch: MlpArchitecture, rng: XorShift64Star) -> MlpModel:
    """Weights uniform in [-1/sqrt(fan_in), +1/sqrt(fan_in)] drawn row-major
    from the pinned PRNG; biases start at zero."""
    weights = []
    biases = []
    sizes = arch.layer_sizes
    for i in range(len(sizes) - 1):
        fan_in, fan_out = sizes[i], sizes[i + 1]
        bound = 1.0 / np.sqrt(fan_in)
        u = rng.uniform_block(fan_out * fan_in).reshape(fan_out, fan_in)
        weights.append((2.0 * u - 1.0) * bound)
        biases.append(np.zeros(fan_out))
    return MlpModel(arch, weights, biases)


def train(data: SplitDataset, arch: MlpArchitecture, cfg: TrainConfig) -> MlpModel:
    """Mini-batch SGD on binary cross-entropy, deterministic in cfg.seed.

    Inverted dropout (keep-scale 1/(1-p)) is applied to hidden activations
    during training only.  After every epoch the model is scored by F1 on the
    validation split; the returned model is the snapshot from the epoch with
    the highest validation F1, earlier epoch winning ties.
    """
    n_features = data.train.features.shape[1]
    if arch.input_size != n_features:
        raise ShapeError(f"architecture expects {arch.input_size} inputs, "
                         f"dataset has {n_features} features")
    rng = XorShift64Star(cfg.seed)
    model = initialize_model(arch, rng)
    weights = [w.copy() for w in model.weights]
    biases = [b.copy() for b in model.biases]
    n_hidden_layers = len(arch.hidden_sizes)
    X_all = data.train.features
    y_all = data.train.labels.astype(np.float64)
    n = X_all.shape[0]
    drop = cfg.train_dropout_prob

    best_f1 = -1.0
    best = None

    with np.errstate(over="ignore", invalid="ignore"):
        for _epoch in range(cfg.epochs):
            order = list(range(n))
            rng.shuffle(order)
            # The epoch's dropout uniforms, batch by batch and layer by layer
            # within a batch: the order the draws would take one at a time.
            uniforms = rng.uniform_block(n * arch.hidden_total) if drop > 0.0 else None
            used = 0
            for start in range(0, n, cfg.batch_size):
                batch = order[start:start + cfg.batch_size]
                X = X_all[batch]
                y = y_all[batch]
                B = len(batch)

                acts = [X]
                pre = []
                keeps = []
                A = X
                for i in range(n_hidden_layers):
                    Z = A @ weights[i].T + biases[i]
                    A = np.maximum(Z, 0.0)
                    if drop > 0.0:
                        u = uniforms[used:used + A.size].reshape(A.shape)
                        used += A.size
                        keep = (u >= drop).astype(np.float64) / (1.0 - drop)
                        A = A * keep
                        keeps.append(keep)
                    else:
                        keeps.append(None)
                    pre.append(Z)
                    acts.append(A)
                z = (A @ weights[-1].T + biases[-1]).ravel()

                # a non-finite logit is what makes the cross-entropy non-finite
                if not np.isfinite(z).all():
                    raise TrainingError(f"non-finite loss at epoch {_epoch}; "
                                        "lower the learning rate")

                dz = (_sigmoid(z) - y) / B
                dW_out = dz[None, :] @ acts[-1]
                db_out = np.array([dz.sum()])
                dA = np.outer(dz, weights[-1].ravel())
                grads_w = [dW_out]
                grads_b = [db_out]
                for i in range(n_hidden_layers - 1, -1, -1):
                    if keeps[i] is not None:
                        dA = dA * keeps[i]
                    dZ = dA * (pre[i] > 0.0)
                    grads_w.append(dZ.T @ acts[i])
                    grads_b.append(dZ.sum(axis=0))
                    if i > 0:
                        dA = dZ @ weights[i]
                grads_w.reverse()
                grads_b.reverse()
                for i in range(len(weights)):
                    weights[i] -= cfg.learning_rate * grads_w[i]
                    biases[i] -= cfg.learning_rate * grads_b[i]

            snapshot = MlpModel(arch, [w.copy() for w in weights], [b.copy() for b in biases])
            preds = predict_batch(snapshot, data.validation)
            val_f1 = f1(confusion(preds, data.validation.labels))
            if val_f1 > best_f1:
                best_f1 = val_f1
                best = snapshot

    return best


def save_model(model: MlpModel, path) -> None:
    """Write the model as JSON; float values round-trip exactly."""
    doc = {
        "format_version": MODEL_FORMAT_VERSION,
        "layer_sizes": list(model.architecture.layer_sizes),
        "layers": [
            {"weights": w.tolist(), "bias": b.tolist()}
            for w, b in zip(model.weights, model.biases)
        ],
        "neuron_order": [list(pair) for pair in model.neuron_order],
    }
    atomic_write_text(path, json.dumps(doc, indent=1) + "\n")


def load_model(path) -> MlpModel:
    """Read a model file written by ``save_model``.  The architecture and the
    model check its shapes; any fault in the file is a ModelFormatError
    naming it."""
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except ValueError as exc:
            raise ModelFormatError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(doc, dict) or doc.get("format_version") != MODEL_FORMAT_VERSION:
        raise ModelFormatError(f"{path}: not a model file of format_version "
                               f"{MODEL_FORMAT_VERSION}")
    try:
        sizes = tuple(json_integer(s, "layer size") for s in doc["layer_sizes"])
        layers = doc["layers"]
        # a null neuron_order is not iterable, so it cannot fall back to the default
        order = [[json_integer(v, "neuron_order entry") for v in pair]
                 for pair in doc["neuron_order"]]
        # numpy would read a true as 1.0 and a "0.5" as 0.5
        return MlpModel(MlpArchitecture(sizes),
                        [json_numbers(layer["weights"], f"layer {i} weights")
                         for i, layer in enumerate(layers)],
                        [json_numbers(layer["bias"], f"layer {i} bias")
                         for i, layer in enumerate(layers)],
                        neuron_order=order)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:  # ShapeError is a ValueError
        detail = f"missing field {exc}" if isinstance(exc, KeyError) else exc
        raise ModelFormatError(f"{path}: {detail}") from exc
