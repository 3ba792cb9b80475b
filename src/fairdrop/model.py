"""Feed-forward ReLU classifier with a masked forward pass and a small SGD trainer.

The model is a stack of hidden layers (affine map followed by ReLU) ending in
a single sigmoid output unit; the predicted label is 1 when the probability
reaches 0.5.  Inference-time dropout forces the output of every masked
hidden neuron to zero before it feeds the next layer, so a masked neuron's
activation never reaches the output, even when it is NaN or infinite.  The
forward pass does this by zeroing the neuron's outgoing weights in a scratch
copy: a finite activation then adds ``a * 0`` instead of ``0 * w``, so only
the sign of a zero can differ, and neither a probability nor a prediction
can.  A pass whose logits hold a NaN is run again with the activations
themselves zeroed, which is how a non-finite masked activation shows.  Every
forward pass (training's validation scoring, search, reports) runs
through ``MaskedForward``, which is built once per batch of rows and then
runs any number of masks over them.

Hidden neurons carry a fixed total order (the ``neuron_order`` bijection)
that maps mask bit positions to (layer, unit) pairs; the order is set at
construction and serialized with the model so masks stay meaningful across
save/load.  All arithmetic is float64.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .dataset import SplitDataset, TabularDataset
from .ioutil import atomic_write_text
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


class MaskedForward:
    """The masked forward pass over one fixed batch of feature rows.

    Built once per batch (a 1-D ``features`` is one row): it checks the
    batch's shape, computes the mask-independent first hidden layer
    ``relu(X @ W0.T + b0)`` and preallocates one output buffer per later
    layer, one weight buffer per later layer and the prediction buffers.
    Each call then zeroes the dropped units' columns in copies of the
    weights they feed and runs the later layers into the buffers, so its
    logits equal those of a fresh pass that zeroes the dropped activations
    (up to the sign of a zero).  The arrays a call returns are those
    buffers: the next call overwrites them.
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
        # Outputs of every layer after the first hidden one; the last holds
        # the logits.  Each layer reads its input units through a copy of its
        # weights whose columns for the dropped units are zero.
        self._outs = [np.empty((n, size)) for size in model.architecture.layer_sizes[2:]]
        self._masked_weights = [np.empty_like(w) for w in model.weights[1:]]
        self._preds = np.empty(n, dtype=bool)
        self._near = np.empty(n, dtype=bool)

    def logits(self, mask=None) -> np.ndarray:
        """Output-unit logits (pre-sigmoid), one per row, under ``mask``."""
        dropped = self.model.masked_units_per_layer(mask)
        z = self._run(dropped, fold=True)
        if np.isnan(z).any():
            # A NaN or infinite activation of a dropped unit times its zeroed
            # weight is NaN (numpy warns of inf * 0): zero the activations
            # themselves instead.
            z = self._run(dropped, fold=False)
        return z

    def _run(self, dropped: list[list[int]], fold: bool) -> np.ndarray:
        """Logits with the dropped units zeroed in the weights they feed
        (``fold``) or, by assignment, in their activations."""
        model = self.model
        A = self._first
        last = len(self._outs) - 1
        for i, out in enumerate(self._outs):
            W = model.weights[i + 1]
            if dropped[i] and fold:
                W = self._masked_weights[i]
                np.copyto(W, model.weights[i + 1])
                W[:, dropped[i]] = 0.0
            elif dropped[i]:
                if A is self._first:
                    A = A.copy()
                A[:, dropped[i]] = 0.0
            np.matmul(A, W.T, out=out)
            np.add(out, model.biases[i + 1], out=out)
            if i < last:
                np.maximum(out, 0.0, out=out)
            A = out
        return A.reshape(-1)

    def predict(self, mask=None) -> np.ndarray:
        """Boolean predictions ``sigmoid(z) >= 0.5`` under ``mask``.

        Every logit z >= 0 predicts 1; only logits in the narrow window below
        0 where the probability can still round to 0.5 go through the
        sigmoid itself.
        """
        z = self.logits(mask)
        preds = np.greater_equal(z, 0.0, out=self._preds)
        near = np.greater_equal(z, -_SIGMOID_HALF_WINDOW, out=self._near)
        if np.count_nonzero(near) != np.count_nonzero(preds):
            near &= ~preds
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
                        u = rng.uniform_block(B * A.shape[1]).reshape(B, A.shape[1])
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
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ModelFormatError(f"{path}: not valid JSON ({exc})") from exc
    if doc.get("format_version") != MODEL_FORMAT_VERSION:
        raise ModelFormatError(f"{path}: unsupported format_version "
                               f"{doc.get('format_version')!r}")
    try:
        sizes = tuple(int(s) for s in doc["layer_sizes"])
        layers = doc["layers"]
        order = doc["neuron_order"]
    except KeyError as exc:
        raise ModelFormatError(f"{path}: missing field {exc}") from exc
    arch = MlpArchitecture(sizes)
    if len(layers) != len(sizes) - 1:
        raise ModelFormatError(f"{path}: expected {len(sizes) - 1} layers, got {len(layers)}")
    weights = []
    biases = []
    for i, layer in enumerate(layers):
        w = np.asarray(layer["weights"], dtype=np.float64)
        b = np.asarray(layer["bias"], dtype=np.float64)
        want = (sizes[i + 1], sizes[i])
        if w.ndim != 2 or w.shape != want:
            raise ModelFormatError(f"{path}: layer {i} weights have shape "
                                   f"{w.shape}, expected {want}")
        if b.shape != (sizes[i + 1],):
            raise ModelFormatError(f"{path}: layer {i} bias has length "
                                   f"{b.shape}, expected {sizes[i + 1]}")
        weights.append(w)
        biases.append(b)
    try:
        return MlpModel(arch, weights, biases, neuron_order=[(l, u) for l, u in order])
    except (ShapeError, TypeError, ValueError) as exc:
        raise ModelFormatError(f"{path}: invalid neuron_order ({exc})") from exc
