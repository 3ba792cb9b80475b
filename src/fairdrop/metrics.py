"""Confusion counts, utility metrics (accuracy, F1) and group-fairness metrics.

All functions operate on plain 0/1 prediction, label and group vectors so the
same code serves the validation phase (driving the search) and the test phase
(reporting).  Group-conditional rates with a zero denominator are *undefined*
and surface as ``None``; they are never silently replaced with 0, and any
metric depending on an undefined rate is itself ``None``.

``confusion``, ``fairness``, ``f1`` and ``accuracy`` are the plain reference
implementations.  ``prediction_metrics``, the EOD/F1/accuracy triple that
search, oracle and reports share, reads all three off the eight counts of
(group, label, prediction) cells, which one ``bincount`` yields.  For a
block of masks, one GEMM against ``group_label_indicator`` yields the four
cells of predicted positives, and ``cell_costs`` prices every mask at once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np


@dataclass(frozen=True)
class ConfusionCounts:
    tp: int
    tn: int
    fp: int
    fn: int

    @property
    def total(self) -> int:
        return self.tp + self.tn + self.fp + self.fn


@dataclass(frozen=True)
class GroupRates:
    """Per-group true-positive, false-positive and positive-prediction rates.

    Each field is a pair indexed by group (0, 1); entries are ``None`` when
    the group has no instances with the relevant label (or no instances at
    all, for ``positive_rate``).
    """

    tpr: tuple[float | None, float | None]
    fpr: tuple[float | None, float | None]
    positive_rate: tuple[float | None, float | None]


@dataclass(frozen=True)
class FairnessReport:
    eod: float | None
    dp_diff: float | None
    eo_diff: float | None
    group_rates: GroupRates


def _as_binary(name: str, values) -> np.ndarray:
    arr = np.asarray(values)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be 1-D")
    if arr.size and not np.isin(arr, (0, 1)).all():
        raise ValueError(f"{name} must contain only 0 and 1")
    return arr.astype(np.int64)


def confusion(preds, labels) -> ConfusionCounts:
    p = _as_binary("preds", preds)
    y = _as_binary("labels", labels)
    if len(p) != len(y):
        raise ValueError(f"length mismatch: {len(p)} predictions vs {len(y)} labels")
    if len(p) == 0:
        raise ValueError("need at least one instance")
    tp = int(np.sum((p == 1) & (y == 1)))
    tn = int(np.sum((p == 0) & (y == 0)))
    fp = int(np.sum((p == 1) & (y == 0)))
    fn = int(np.sum((p == 0) & (y == 1)))
    return ConfusionCounts(tp=tp, tn=tn, fp=fp, fn=fn)


def f1(c: ConfusionCounts) -> float:
    """2*TP / (2*TP + FP + FN); 0.0 by convention when the denominator is 0."""
    denom = 2 * c.tp + c.fp + c.fn
    if denom == 0:
        return 0.0
    return 2.0 * c.tp / denom


def accuracy(c: ConfusionCounts) -> float:
    if c.total == 0:
        raise ValueError("accuracy undefined on zero instances")
    return (c.tp + c.tn) / c.total


def _rate(numer: int, denom: int) -> float | None:
    return None if denom == 0 else numer / denom


def fairness(preds, labels, protected) -> FairnessReport:
    """Group-conditional rates and fairness gaps for two protected groups.

    eod     = max(|tpr_0 - tpr_1|, |fpr_0 - fpr_1|)
    dp_diff = |positive_rate_0 - positive_rate_1|
    eo_diff = |tpr_0 - tpr_1|

    A gap is ``None`` whenever one of the rates it uses is undefined (a group
    missing entirely, or missing positive/negative labels).
    """
    p = _as_binary("preds", preds)
    y = _as_binary("labels", labels)
    a = _as_binary("protected", protected)
    if not (len(p) == len(y) == len(a)):
        raise ValueError(f"length mismatch: preds={len(p)}, labels={len(y)}, protected={len(a)}")

    tpr: list[float | None] = []
    fpr: list[float | None] = []
    pos_rate: list[float | None] = []
    for g in (0, 1):
        in_g = a == g
        pos = in_g & (y == 1)
        neg = in_g & (y == 0)
        tpr.append(_rate(int(np.sum(p[pos] == 1)), int(np.sum(pos))))
        fpr.append(_rate(int(np.sum(p[neg] == 1)), int(np.sum(neg))))
        pos_rate.append(_rate(int(np.sum(p[in_g] == 1)), int(np.sum(in_g))))

    eo_diff = None if tpr[0] is None or tpr[1] is None else abs(tpr[0] - tpr[1])
    fpr_gap = None if fpr[0] is None or fpr[1] is None else abs(fpr[0] - fpr[1])
    eod = None if eo_diff is None or fpr_gap is None else max(eo_diff, fpr_gap)
    dp_diff = (None if pos_rate[0] is None or pos_rate[1] is None
               else abs(pos_rate[0] - pos_rate[1]))
    rates = GroupRates(tpr=(tpr[0], tpr[1]), fpr=(fpr[0], fpr[1]),
                       positive_rate=(pos_rate[0], pos_rate[1]))
    return FairnessReport(eod=eod, dp_diff=dp_diff, eo_diff=eo_diff, group_rates=rates)


class PredictionMetrics(NamedTuple):
    """EOD, F1 and accuracy of one prediction vector: what a mask is priced
    and reported by."""

    eod: float | None
    f1: float
    accuracy: float

    def to_dict(self) -> dict:
        """Report form; an undefined EOD reads "undefined"."""
        return {
            "eod": "undefined" if self.eod is None else self.eod,
            "f1": self.f1,
            "accuracy": self.accuracy,
        }


def group_label_key(labels, protected) -> np.ndarray:
    """``4 * protected + 2 * label`` per row, both checked to be 0/1 vectors of
    one length.  Adding a row's 0/1 prediction gives its cell in
    ``cell_metrics``'s eight counts."""
    y = _as_binary("labels", labels)
    a = _as_binary("protected", protected)
    if len(y) != len(a):
        raise ValueError(f"length mismatch: labels={len(y)}, protected={len(a)}")
    return 4 * a + 2 * y


def cell_metrics(cells) -> PredictionMetrics:
    """EOD, F1 and accuracy from ``np.bincount(key + preds, minlength=8)``
    with ``key`` from ``group_label_key``: cell 4*g + 2*y + p counts the rows
    of group g with label y predicted p.  Same formulas as ``confusion``,
    ``fairness``, ``f1`` and ``accuracy``, so the values are identical."""
    c = np.asarray(cells).tolist()
    counts = ConfusionCounts(tp=c[3] + c[7], tn=c[0] + c[4], fp=c[1] + c[5], fn=c[2] + c[6])
    tpr = [_rate(c[base + 3], c[base + 2] + c[base + 3]) for base in (0, 4)]
    fpr = [_rate(c[base + 1], c[base] + c[base + 1]) for base in (0, 4)]
    eod = (None if None in tpr or None in fpr
           else max(abs(tpr[0] - tpr[1]), abs(fpr[0] - fpr[1])))
    return PredictionMetrics(eod=eod, f1=f1(counts), accuracy=accuracy(counts))


def group_label_indicator(labels, protected) -> np.ndarray:
    """(rows, 4) 0/1 matrix whose column 2g + y marks the rows of group g
    with label y.  A (masks, rows) 0/1 block of predictions times it gives
    each mask's predicted positives per (group, label), exactly: it is
    float32, whose 24-bit significand holds every count, below 2**24 rows,
    and float64 from there.  ``positive_cells`` completes the positives into
    the eight cells."""
    key = group_label_key(labels, protected)
    dtype = np.float32 if len(key) < 1 << 24 else np.float64
    return (key[:, None] == np.arange(0, 8, 2)).astype(dtype)


def positive_cells(positives: np.ndarray, totals: np.ndarray) -> np.ndarray:
    """``cell_metrics``'s eight counts (masks, 8) from each mask's predicted
    positives per (group, label) and the rows per (group, label), in the
    column order of ``group_label_indicator``: cell 4g + 2y + 1 holds the
    positives and cell 4g + 2y the rest of the rows."""
    cells = np.empty((len(positives), 8))
    cells[:, 1::2] = positives
    np.subtract(totals, positives, out=cells[:, 0::2])
    return cells


def cell_costs(cells: np.ndarray, f1_floor: float,
               penalty: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(cost, EOD, F1) columns for a (masks, 8) block of cell counts.

    EOD is NaN where ``cell_metrics`` reads ``None`` and the cost is then
    ``inf``; otherwise the cost is EOD plus ``penalty`` when F1 falls below
    ``f1_floor``.  Counts convert to float64 exactly and each value comes
    from the same correctly rounded operations as in ``cell_metrics``, so
    the columns equal its values.  A zero denominator is raised to 1: its
    numerator is 0 too, which gives F1 its 0.0 and a rate that is then
    marked undefined.
    """
    c = cells.T.astype(np.float64)
    positives, negatives = c[2::4] + c[3::4], c[0::4] + c[1::4]
    tpr = c[3::4] / np.maximum(positives, 1.0)
    fpr = c[1::4] / np.maximum(negatives, 1.0)
    eod = np.maximum(np.abs(tpr[0] - tpr[1]), np.abs(fpr[0] - fpr[1]))
    undefined = (positives.min(axis=0) == 0) | (negatives.min(axis=0) == 0)
    eod[undefined] = np.nan
    tp = c[3] + c[7]
    f1s = 2.0 * tp / np.maximum(2.0 * tp + (c[1] + c[5]) + (c[2] + c[6]), 1.0)
    cost = eod + np.where(f1s < f1_floor, penalty, 0.0)
    cost[undefined] = np.inf
    return cost, eod, f1s


def prediction_metrics(preds, labels, protected) -> PredictionMetrics:
    """The metrics search, oracle and reports share, from 0/1 predictions."""
    p = _as_binary("preds", preds)
    key = group_label_key(labels, protected)
    if len(p) != len(key):
        raise ValueError(f"length mismatch: preds={len(p)}, labels={len(key)}")
    return cell_metrics(np.bincount(key + p, minlength=8))
