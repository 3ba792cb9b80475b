"""Independent reference pricer for the benchmark's correctness checks.

Uses numpy only and takes nothing from ``fairdrop.model`` or
``fairdrop.metrics``: it reads the model file as the README specifies it and
prices masks by the README's formulas.

* Forward pass: each hidden layer is ``relu(A @ W.T + b)`` with the dropped
  units' outputs set to zero; the output unit's probability is the logistic
  of its logit and the label is 1 when that probability reaches 0.5.  The
  threshold is taken on the probability, not on the sign of the logit: the
  two disagree for logits in about [-4.4e-17, 0), where the probability
  rounds to exactly 0.5.
* F1 = 2 TP / (2 TP + FP + FN), 0 when the denominator is 0.
* EOD = max(|TPR_0 - TPR_1|, |FPR_0 - FPR_1|), undefined (``None``) when a
  group lacks positive or negative labels.
* cost = EOD + p * EOD_baseline * [F1 < t * F1_baseline]; +inf when EOD is
  undefined.

Every count is taken from the eight (group, label, prediction) confusion
cells, so the floats come from the same integer divisions fairdrop makes and
are compared for exact equality.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np


def _logistic(z: np.ndarray) -> np.ndarray:
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


class ReferenceModel:
    """Weights, biases and the mask-bit -> (hidden layer, unit) order of a
    model file."""

    def __init__(self, path):
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        self.weights = [np.asarray(layer["weights"], dtype=np.float64) for layer in doc["layers"]]
        self.biases = [np.asarray(layer["bias"], dtype=np.float64) for layer in doc["layers"]]
        self.neuron_order = [tuple(pair) for pair in doc["neuron_order"]]
        self.n_hidden = len(self.neuron_order)

    def dropped_per_layer(self, bits: int) -> list[list[int]]:
        per_layer: list[list[int]] = [[] for _ in self.weights[:-1]]
        for i, (layer, unit) in enumerate(self.neuron_order):
            if bits >> i & 1:
                per_layer[layer].append(unit)
        return per_layer

    def predict(self, features: np.ndarray, bits: int = 0) -> np.ndarray:
        A = np.asarray(features, dtype=np.float64)
        for W, b, units in zip(self.weights, self.biases, self.dropped_per_layer(bits)):
            A = np.maximum(A @ W.T + b, 0.0)
            if units:
                A[:, units] = 0.0
        z = (A @ self.weights[-1].T + self.biases[-1]).ravel()
        return (_logistic(z) >= 0.5).astype(np.int64)


@dataclass(frozen=True)
class SplitMetrics:
    eod: float | None
    f1: float
    accuracy: float


def split_metrics(preds: np.ndarray, labels: np.ndarray, groups: np.ndarray) -> SplitMetrics:
    cells = np.bincount(4 * groups + 2 * labels + preds, minlength=8).reshape(2, 2, 2)
    c = [[[int(cells[g, y, p]) for p in (0, 1)] for y in (0, 1)] for g in (0, 1)]
    tp = c[0][1][1] + c[1][1][1]
    tn = c[0][0][0] + c[1][0][0]
    fp = c[0][0][1] + c[1][0][1]
    fn = c[0][1][0] + c[1][1][0]
    denom = 2 * tp + fp + fn
    f1 = 0.0 if denom == 0 else 2.0 * tp / denom
    tpr, fpr = [], []
    for g in (0, 1):
        pos = c[g][1][0] + c[g][1][1]
        neg = c[g][0][0] + c[g][0][1]
        tpr.append(None if pos == 0 else c[g][1][1] / pos)
        fpr.append(None if neg == 0 else c[g][0][1] / neg)
    if None in tpr or None in fpr:
        eod = None
    else:
        eod = max(abs(tpr[0] - tpr[1]), abs(fpr[0] - fpr[1]))
    return SplitMetrics(eod=eod, f1=f1, accuracy=(tp + tn) / (tp + tn + fp + fn))


class ReferencePricer:
    """Prices masks on one split for one model file and (p, t)."""

    def __init__(self, model: ReferenceModel, features, labels, groups, p: float, t: float):
        self.model = model
        self.features = np.asarray(features, dtype=np.float64)
        self.labels = np.asarray(labels, dtype=np.int64)
        self.groups = np.asarray(groups, dtype=np.int64)
        self.p = p
        self.t = t
        self.baseline = self.metrics(0)
        if self.baseline.eod is None:
            raise ValueError("baseline EOD undefined on the validation split")

    @property
    def f1_floor(self) -> float:
        return self.t * self.baseline.f1

    def metrics(self, bits: int) -> SplitMetrics:
        return split_metrics(self.model.predict(self.features, bits), self.labels, self.groups)

    def cost(self, m: SplitMetrics) -> float:
        if m.eod is None:
            return math.inf
        penalty = self.p * self.baseline.eod if m.f1 < self.t * self.baseline.f1 else 0.0
        return m.eod + penalty

    def price(self, bits: int) -> tuple[float, float | None, float]:
        """(cost, eod, f1) of the mask with these bits set."""
        m = self.metrics(bits)
        return self.cost(m), m.eod, m.f1
