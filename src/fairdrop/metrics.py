"""Confusion counts, utility metrics (accuracy, F1) and group-fairness metrics.

All functions operate on plain 0/1 prediction, label and group vectors so the
same code serves the validation phase (driving the search) and the test phase
(reporting).  Group-conditional rates with a zero denominator are *undefined*
and surface as ``None``; they are never silently replaced with 0, and any
metric depending on an undefined rate is itself ``None``.

``confusion``, ``fairness``, ``f1`` and ``accuracy`` are the plain reference
implementations.  Search, oracle and reports count a mask's outcome one
way: its predicted positives per (group, label), the 0/1 predictions times
``group_label_indicator``, read against the split's rows per (group, label).
``cell_metrics`` reads the EOD/F1/accuracy triple off one mask's counts
(``prediction_metrics`` from 0/1 predictions), and ``cell_costs`` prices a
block of masks at once.
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


def cell_metrics(positives, totals) -> PredictionMetrics:
    """EOD, F1 and accuracy from a mask's predicted positives per (group,
    label) and the split's rows per (group, label), both in the column
    order of ``group_label_indicator``.  Same formulas as ``confusion``,
    ``fairness``, ``f1`` and ``accuracy`` on the same integer counts, so the
    values are identical."""
    p = np.asarray(positives).astype(np.int64).tolist()
    t = np.asarray(totals).astype(np.int64).tolist()
    tp, fp = p[1] + p[3], p[0] + p[2]
    counts = ConfusionCounts(tp=tp, tn=t[0] + t[2] - fp, fp=fp, fn=t[1] + t[3] - tp)
    tpr = [_rate(p[col], t[col]) for col in (1, 3)]
    fpr = [_rate(p[col], t[col]) for col in (0, 2)]
    eod = (None if None in tpr or None in fpr
           else max(abs(tpr[0] - tpr[1]), abs(fpr[0] - fpr[1])))
    return PredictionMetrics(eod=eod, f1=f1(counts), accuracy=accuracy(counts))


def group_label_indicator(labels, protected) -> np.ndarray:
    """(rows, 4) 0/1 matrix whose column 2g + y marks the rows of group g
    with label y; labels and protected bits are checked to be 0/1 vectors of
    one length.  A (masks, rows) 0/1 block of predictions times it gives
    each mask's predicted positives per (group, label), exactly: it is
    float32, whose 24-bit significand holds every count, below 2**24 rows,
    and float64 from there."""
    y = _as_binary("labels", labels)
    a = _as_binary("protected", protected)
    if len(y) != len(a):
        raise ValueError(f"length mismatch: labels={len(y)}, protected={len(a)}")
    dtype = np.float32 if len(y) < 1 << 24 else np.float64
    return ((2 * a + y)[:, None] == np.arange(4)).astype(dtype)


def cell_costs(positives: np.ndarray, totals: np.ndarray, f1_floor: float,
               penalty: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(cost, EOD, F1) columns for a (masks, 4) block of predicted positives
    per (group, label), on a split whose four (group, label) ``totals`` are
    all positive, so that every rate and F1 is defined.

    The cost is EOD plus ``penalty`` when F1 falls below ``f1_floor``.
    Counts convert to float64 exactly and each value comes from the same
    correctly rounded operations as in ``cell_metrics``, so the columns
    equal its values.
    """
    p = np.asarray(positives, dtype=np.float64).T
    t = np.asarray(totals, dtype=np.float64)
    tpr = p[1::2] / t[1::2, None]
    fpr = p[0::2] / t[0::2, None]
    eod = np.maximum(np.abs(tpr[0] - tpr[1]), np.abs(fpr[0] - fpr[1]))
    tp = p[1] + p[3]
    f1s = 2.0 * tp / (2.0 * tp + (p[0] + p[2]) + (t[1] + t[3] - tp))
    return eod + np.where(f1s < f1_floor, penalty, 0.0), eod, f1s


def prediction_metrics(preds, labels, protected) -> PredictionMetrics:
    """``cell_metrics`` of 0/1 predictions on a split, as reports give them:
    an empty (group, label) cell makes EOD ``None``."""
    p = _as_binary("preds", preds)
    indicator = group_label_indicator(labels, protected)
    if len(p) != len(indicator):
        raise ValueError(f"length mismatch: preds={len(p)}, labels={len(indicator)}")
    return cell_metrics(p @ indicator, indicator.sum(axis=0))
