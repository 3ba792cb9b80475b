"""Feed-forward ReLU classifier with a masked forward pass and a small SGD trainer.

The model is a stack of hidden layers (affine map followed by ReLU) ending in
a single sigmoid output unit; the predicted label is 1 when the probability
reaches 0.5.  Inference-time dropout forces the output of every masked
hidden neuron to zero before it feeds the next layer, so a masked neuron's
activation never reaches the output, even when it is NaN or infinite.  Every
forward pass runs through ``MaskedForward``, which is built once per batch of
rows, caches the first hidden layer and has two passes: the exact one, which
zeroes the dropped activations by assignment, for training's validation
scoring and reports; and a batched one, which prices one mask or many per
matmul for search and enumeration behind a certified error bound that sends
any prediction it cannot vouch for to the exact pass.

Hidden neurons carry a fixed total order (the ``neuron_order`` bijection)
that maps mask bit positions to (layer, unit) pairs; the order is set at
construction and serialized with the model so masks stay meaningful across
save/load.  All arithmetic is float64.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass

import numpy as np

from .dataset import SplitDataset, TabularDataset
from .ioutil import atomic_write_text, json_integer
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

# Unit roundoff of float64, for the dot-product error bound.
_UNIT_ROUNDOFF = 2.0 ** -53

# The batched pass prices as many masks at once as keep about this many
# float64 values in one layer's stacked outputs (masks x units x rows).
_BATCH_ELEMENTS = 1 << 17


class MaskedForward:
    """The masked forward pass over one fixed batch of feature rows.

    Built once per batch (a 1-D ``features`` is one row): it checks the
    batch's shape and computes the mask-independent first hidden layer
    ``relu(X @ W0.T + b0)``.  Masks then run over that layer in one of two
    passes.  ``logits`` and ``predict`` run the exact pass for one mask:
    every later layer on fresh arrays, with the dropped units' activations
    zeroed by assignment.  ``predict_many`` runs up to ``batch_size`` masks
    through one matmul per layer and gives the same predictions, behind a
    certified error bound that sends every mask it cannot vouch for through
    the exact pass.  Its hidden layers (``_batch_hidden``) and its
    certificate (``_certified``) also serve the oracle's factored pass,
    which runs the output layer itself.
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
        widest = max(model.architecture.layer_sizes[2:])
        self.batch_size = max(1, _BATCH_ELEMENTS // (n * widest))
        self._buffers = None

    def keep(self, mask) -> np.ndarray:
        """Keep factors of ``mask``, one per mask bit: 1.0 keeps that neuron,
        0.0 drops it; all 1.0 when ``mask`` is None."""
        n = self.model.hidden_total
        if mask is None:
            return np.ones(n)
        if mask.n != n:
            raise ShapeError(f"mask covers {mask.n} neurons, model has {n}")
        dropped = np.frombuffer(mask.bits.to_bytes((n + 7) // 8, "little"), dtype=np.uint8)
        return 1.0 - np.unpackbits(dropped, count=n, bitorder="little")

    def logits(self, mask=None) -> np.ndarray:
        """Output-unit logits (pre-sigmoid), one per row, under ``mask``."""
        return self._exact(self.keep(mask))

    def _exact(self, keep: np.ndarray) -> np.ndarray:
        """Logits of the exact pass for the mask given as one row of keep
        factors: a dropped unit is zeroed by assignment, so it never
        reaches the output, even when it is NaN or infinite."""
        model = self.model
        A = self._first
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
    def _slack(self) -> np.ndarray | None:
        """Per row, how far apart two logits computed for one mask in any
        summation order can lie, plus the sigmoid window; None when the
        bound is not finite.

        Every layer after the cached first one is a dot product of length k
        plus a bias, so each of its computed values lies within
        ``gamma(k + 1) * (|W| @ |a| + |b|)`` of the value from the computed
        inputs (Higham, *Accuracy and Stability of Numerical Algorithms*,
        2nd ed., section 3.1).  ``bound`` bounds every masked activation,
        because a mask only zeroes terms; ``err`` carries each layer's
        error through the next ``|W|``.  Two computations (the batched pass
        and the exact one) each lie within ``err`` of the real logit.  The
        rounding of the bound itself, and any underflow, is far below the
        1e-12 window.
        """
        model = self.model
        bound = np.abs(self._first)
        err = np.zeros_like(bound)
        for W, b in zip(model.weights[1:], model.biases[1:]):
            absW, absb = np.abs(W.T), np.abs(b)
            k = W.shape[1] + 1
            gamma = k * _UNIT_ROUNDOFF / (1.0 - k * _UNIT_ROUNDOFF)
            err = gamma * ((bound + err) @ absW + absb) + err @ absW
            bound = bound @ absW + absb
        slack = 2.0 * err[:, 0] + _SIGMOID_HALF_WINDOW
        return slack if np.isfinite(slack).all() else None

    def _batch_buffers(self, B: int) -> tuple[np.ndarray, list[np.ndarray], list[np.ndarray]]:
        """Buffers of the batched pass, each layer's input carrying a last
        row of ones so that its bias rides in the matmul as one more term:
        the first layer as (units + 1, rows), and for each later layer
        copies of its weights with the bias as last column, and its outputs
        as (masks, units + 1, rows).  They hold as many masks as the largest
        batch run so far, so a kernel that prices one mask at a time holds
        one."""
        if self._buffers is None or len(self._buffers[2][0]) < B:
            n = self._first.shape[0]
            first = np.ones((self._first.shape[1] + 1, n))
            first[:-1] = self._first.T
            weights, outs = [], []
            for W, b in zip(self.model.weights[1:], self.model.biases[1:]):
                stack = np.empty((B, W.shape[0], W.shape[1] + 1))
                stack[:, :, -1] = b
                weights.append(stack)
                outs.append(np.ones((B, W.shape[0] + 1, n)))
            self._buffers = first, weights, outs
        return self._buffers

    def predict_many(self, keep: np.ndarray) -> np.ndarray:
        """Predictions (masks, rows) for up to ``batch_size`` masks, equal to
        ``predict`` on each of them.

        ``keep`` has one row of keep factors per mask, as the ``keep``
        method builds them: 1.0 keeps that neuron, 0.0 drops it.  Each mask
        is folded into a stacked copy of every later layer's weights, and all
        masks run through one matmul per layer.  That sums in another order
        than the exact pass, so ``_certified`` vouches for each mask.
        """
        B = keep.shape[0]
        if B > self.batch_size:
            raise ShapeError(f"{B} masks exceed the batch size {self.batch_size}")
        z = None if self._slack is None else self._batch_logits(keep)
        return self._certified(z, B, keep.__getitem__)

    def _certified(self, z: np.ndarray | None, count: int, keep_of) -> np.ndarray:
        """Predictions (masks, rows) of ``count`` masks from their logits
        ``z`` of a batched pass in any summation order.  A row is trusted
        only when its logit lies farther from 0 than ``_slack``; a mask with
        any row within it, or any NaN, goes through the exact pass on the
        keep factors ``keep_of(m)``, as does every mask when the bound is not
        finite (``z`` is then None: a caller skips the batched pass).  ``z``
        is overwritten."""
        if z is None:
            preds = np.empty((count, self._first.shape[0]), dtype=bool)
            unsafe = range(count)
        else:
            preds = z >= 0.0
            unsafe = np.flatnonzero(~(np.abs(z, out=z) > self._slack).all(axis=1))
        for m in unsafe:
            preds[m] = _threshold(self._exact(keep_of(m)))
        return preds

    def _batch_hidden(self, keep: np.ndarray) -> np.ndarray:
        """Last hidden layer's activations (masks, units + 1, rows) of the
        batched pass for up to ``batch_size`` masks, in its buffers, with the
        last row of ones that carries the output bias.  Only the keep
        factors of the earlier hidden layers are read; with one hidden layer
        every mask shares the cached first layer."""
        B = keep.shape[0]
        H, weight_stacks, out_stacks = self._batch_buffers(B)
        layers = zip(self.model.weights[1:-1], weight_stacks, out_stacks)
        for i, (W, Wf, out) in enumerate(layers):
            Wf, out = Wf[:B], out[:B]
            np.multiply(W, keep[:, None, self._bits[i]], out=Wf[:, :, :-1])
            np.matmul(Wf, H, out=out[:, :-1])
            np.maximum(out, 0.0, out=out)
            H = out
        return np.broadcast_to(H, (B, *H.shape)) if H.ndim == 2 else H

    def _batch_logits(self, keep: np.ndarray) -> np.ndarray:
        """Logits (masks, rows) of the batched pass, in its buffers."""
        B = keep.shape[0]
        H = self._batch_hidden(keep)
        _, weight_stacks, out_stacks = self._buffers
        Wf, out = weight_stacks[-1][:B], out_stacks[-1][:B]
        np.multiply(self.model.weights[-1], keep[:, None, self._bits[-1]], out=Wf[:, :, :-1])
        np.matmul(Wf, H, out=out[:, :-1])
        return out[:, 0]


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
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.epochs < 1:
            raise ValueError("epochs must be a positive integer")
        if self.batch_size < 1:
            raise ValueError("batch_size must be a positive integer")
        if not 0.0 <= self.train_dropout_prob < 1.0:
            raise ValueError("train_dropout_prob must lie in [0, 1)")


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

                loss = float(np.mean(np.maximum(z, 0.0) - z * y + np.log1p(np.exp(-np.abs(z)))))
                if not np.isfinite(loss):
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
        return MlpModel(MlpArchitecture(sizes),
                        [layer["weights"] for layer in layers],
                        [layer["bias"] for layer in layers],
                        neuron_order=order)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:  # ShapeError is a ValueError
        detail = f"missing field {exc}" if isinstance(exc, KeyError) else exc
        raise ModelFormatError(f"{path}: {detail}") from exc
