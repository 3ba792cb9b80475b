import itertools

import numpy as np
import pytest
from hypothesis import given, strategies as st

from fairdrop.metrics import (ConfusionCounts, accuracy, cell_costs, cell_metrics, confusion, f1,
                              fairness, group_label_indicator, prediction_metrics)
from fairdrop.search import CostParams, penalized_cost


class TestConfusion:
    def test_perfect_predictions(self):
        c = confusion([1, 0, 1], [1, 0, 1])
        assert (c.tp, c.tn, c.fp, c.fn) == (2, 1, 0, 0)

    def test_all_false_positives(self):
        c = confusion([1, 1], [0, 0])
        assert (c.tp, c.tn, c.fp, c.fn) == (0, 0, 2, 0)

    def test_mixed(self):
        c = confusion([1, 0, 0, 1], [1, 1, 0, 0])
        assert (c.tp, c.tn, c.fp, c.fn) == (1, 1, 1, 1)

    def test_counts_partition_input(self):
        c = confusion([1, 0, 1, 1, 0], [0, 0, 1, 1, 1])
        assert c.total == 5

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            confusion([1, 0], [1])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            confusion([], [])

    def test_nonbinary_rejected(self):
        with pytest.raises(ValueError):
            confusion([2, 0], [1, 0])


class TestF1:
    def test_direct_formula(self):
        assert f1(ConfusionCounts(tp=2, tn=0, fp=1, fn=1)) == pytest.approx(4 / 6, abs=1e-15)

    def test_zero_denominator_convention(self):
        assert f1(ConfusionCounts(tp=0, tn=5, fp=0, fn=0)) == 0.0

    def test_perfect(self):
        assert f1(ConfusionCounts(tp=7, tn=3, fp=0, fn=0)) == 1.0


class TestAccuracy:
    def test_perfect(self):
        assert accuracy(ConfusionCounts(tp=5, tn=5, fp=0, fn=0)) == 1.0

    def test_all_counts_equal(self):
        assert accuracy(ConfusionCounts(tp=3, tn=3, fp=3, fn=3)) == 0.5

    def test_all_negative_predictor_on_imbalanced_data(self):
        # 88 true negatives, 12 missed positives: high accuracy, zero F1
        c = ConfusionCounts(tp=0, tn=88, fp=0, fn=12)
        assert accuracy(c) == pytest.approx(0.88, abs=1e-15)
        assert f1(c) == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            accuracy(ConfusionCounts(0, 0, 0, 0))


def brute_force_rates(preds, labels, protected, group):
    """Independent per-cell counting oracle used by several tests."""
    tp = fp = pos = neg = pred_pos = total = 0
    for p, y, a in zip(preds, labels, protected):
        if a != group:
            continue
        total += 1
        pred_pos += p == 1
        if y == 1:
            pos += 1
            tp += p == 1
        else:
            neg += 1
            fp += p == 1
    tpr = tp / pos if pos else None
    fpr = fp / neg if neg else None
    rate = pred_pos / total if total else None
    return tpr, fpr, rate


class TestFairness:
    def test_direct_max_of_gaps(self):
        # construct rates tpr0=0.8, fpr0=0.3, tpr1=0.6, fpr1=0.35 exactly
        preds, labels, prot = [], [], []
        for group, tpr, fpr, n_pos, n_neg in ((0, 0.8, 0.3, 10, 10), (1, 0.6, 0.35, 10, 20)):
            k_tp = round(tpr * n_pos)
            k_fp = round(fpr * n_neg)
            preds += [1] * k_tp + [0] * (n_pos - k_tp) + [1] * k_fp + [0] * (n_neg - k_fp)
            labels += [1] * n_pos + [0] * n_neg
            prot += [group] * (n_pos + n_neg)
        report = fairness(preds, labels, prot)
        assert report.eod == pytest.approx(0.2, abs=1e-12)
        assert report.eo_diff == pytest.approx(0.2, abs=1e-12)

    def test_identical_group_behavior_is_fair(self):
        preds = [1, 0, 1, 1, 0, 1]
        labels = [1, 0, 0, 1, 0, 0]
        prot = [0, 0, 0, 1, 1, 1]
        report = fairness(preds, labels, prot)
        assert report.eod == 0.0
        assert report.dp_diff == 0.0
        assert report.eo_diff == 0.0

    def test_twelve_row_case_against_counting_oracle(self):
        # 3 rows per group x label cell, mixed predictions
        labels = [1, 1, 1, 0, 0, 0, 1, 1, 1, 0, 0, 0]
        prot = [0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1]
        preds = [1, 1, 0, 0, 1, 0, 1, 0, 0, 0, 0, 1]
        report = fairness(preds, labels, prot)
        tpr0, fpr0, rate0 = brute_force_rates(preds, labels, prot, 0)
        tpr1, fpr1, rate1 = brute_force_rates(preds, labels, prot, 1)
        assert report.eod == pytest.approx(max(abs(tpr0 - tpr1), abs(fpr0 - fpr1)), abs=1e-15)
        assert report.eo_diff == pytest.approx(abs(tpr0 - tpr1), abs=1e-15)
        assert report.dp_diff == pytest.approx(abs(rate0 - rate1), abs=1e-15)
        assert report.eod == pytest.approx(1 / 3, abs=1e-15)

    def test_missing_group_flags_undefined(self):
        report = fairness([1, 0], [1, 0], [0, 0])
        assert report.eod is None
        assert report.dp_diff is None
        assert report.eo_diff is None
        assert report.group_rates.tpr[1] is None

    def test_group_without_positives_undefined_tpr(self):
        # group 1 has only negative labels: tpr_1, eod, eo_diff undefined
        report = fairness([1, 0, 1, 0], [1, 0, 0, 0], [0, 0, 1, 1])
        assert report.group_rates.tpr[1] is None
        assert report.eod is None
        assert report.eo_diff is None
        assert report.dp_diff is not None  # positive rates still defined

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            fairness([1, 0], [1, 0], [0])


binary = st.integers(min_value=0, max_value=1)


@st.composite
def prediction_triples(draw):
    n = draw(st.integers(min_value=1, max_value=40))
    preds = draw(st.lists(binary, min_size=n, max_size=n))
    labels = draw(st.lists(binary, min_size=n, max_size=n))
    prot = draw(st.lists(binary, min_size=n, max_size=n))
    return preds, labels, prot


class TestFairnessProperties:
    @given(prediction_triples())
    def test_group_swap_symmetry(self, triple):
        preds, labels, prot = triple
        a = fairness(preds, labels, prot)
        b = fairness(preds, labels, [1 - g for g in prot])
        assert a.eod == b.eod
        assert a.dp_diff == b.dp_diff
        assert a.eo_diff == b.eo_diff

    @given(prediction_triples())
    def test_eod_dominates_eo_diff(self, triple):
        preds, labels, prot = triple
        report = fairness(preds, labels, prot)
        if report.eod is not None:
            assert report.eod >= report.eo_diff

    @given(prediction_triples())
    def test_defined_metrics_in_unit_interval(self, triple):
        report = fairness(*triple)
        for value in (report.eod, report.dp_diff, report.eo_diff):
            if value is not None:
                assert 0.0 <= value <= 1.0

    @given(prediction_triples())
    def test_prediction_flip_covariance(self, triple):
        preds, labels, prot = triple
        flipped = fairness([1 - p for p in preds], labels, prot)
        if flipped.eod is None:
            return
        # under flipped predictions the TPR becomes the miss rate (FNR) and
        # the FPR becomes the specificity (TNR); recount both independently
        gaps = []
        for rate in ("fnr", "tnr"):
            vals = []
            for g in (0, 1):
                num = den = 0
                for p, y, a in zip(preds, labels, prot):
                    if a != g:
                        continue
                    if rate == "fnr" and y == 1:
                        den += 1
                        num += p == 0
                    elif rate == "tnr" and y == 0:
                        den += 1
                        num += p == 0
                vals.append(num / den)
            gaps.append(abs(vals[0] - vals[1]))
        assert flipped.eod == pytest.approx(max(gaps), abs=1e-12)


class TestPredictionMetrics:
    @given(prediction_triples())
    def test_equals_reference_metrics(self, triple):
        # the eight-cell count path against the counting reference, exactly,
        # including groups that are empty or lack a label class
        preds, labels, prot = triple
        counts = confusion(preds, labels)
        assert prediction_metrics(preds, labels, prot) == (
            fairness(preds, labels, prot).eod, f1(counts), accuracy(counts))

    @pytest.mark.parametrize("preds,labels,prot", [
        ([1, 0], [1, 0], [0, 2]),
        ([1, 0], [1, -1], [0, 1]),
        ([1, 2], [1, 0], [0, 1]),
        ([1, 0], [1, 0, 1], [0, 1]),
        ([1, 0], [1, 0], [0, 1, 1]),
        ([], [], []),
    ])
    def test_rejects_what_the_reference_rejects(self, preds, labels, prot):
        with pytest.raises(ValueError):
            prediction_metrics(preds, labels, prot)

    @given(st.lists(st.tuples(st.integers(0, 1), st.integers(0, 1)), min_size=1, max_size=40),
           st.integers(0, 2 ** 32 - 1))
    def test_eod_undefined_for_every_prediction_or_none(self, rows, seed):
        # each EOD denominator is a (group, label) row total, so whether EOD is
        # undefined depends on the split alone: pricing checks the split once
        labels, protected = np.array(rows).T
        draws = np.random.default_rng(seed).integers(0, 2, size=(5, len(rows)))
        preds = [np.zeros(len(rows), int), np.ones(len(rows), int), *draws]
        undefined = [prediction_metrics(p, labels, protected).eod is None for p in preds]
        empty_cell = len(set(rows)) < 4
        assert undefined == [empty_cell] * len(preds)


def assert_cell_costs_equal_reference(positives, totals, params):
    cost, eod, f1s = cell_costs(np.asarray(positives), np.asarray(totals), params.f1_floor,
                                params.p * params.eod_baseline)
    for row, c, e, f in zip(positives, cost.tolist(), eod.tolist(), f1s.tolist()):
        m = cell_metrics(row, totals)
        assert (e, f) == (m.eod, m.f1)
        assert c == penalized_cost(m.eod, m.f1, params)


PARAMS = [CostParams(p=3.0, t=0.98, eod_baseline=0.2, f1_baseline=0.6),
          CostParams(p=0.0, t=0.5, eod_baseline=0.0, f1_baseline=0.0),
          CostParams(p=1.5, t=0.75, eod_baseline=1.0, f1_baseline=1.0)]


class TestCellCosts:
    @pytest.mark.parametrize("params", PARAMS)
    def test_equals_cell_metrics_on_every_extreme_pattern(self, params):
        # each (group, label) count none, some or all of its rows: every
        # way a rate can be 0 or 1, and F1 0 (no true positives)
        totals = np.array([7, 3, 5, 9])
        patterns = np.array(list(itertools.product((0, 1, 2), repeat=4)))
        positives = np.where(patterns == 2, totals, patterns * (totals // 2))
        assert_cell_costs_equal_reference(positives, totals, params)

    @given(st.lists(st.integers(1, 6), min_size=4, max_size=4),
           st.lists(st.lists(st.integers(0, 6), min_size=4, max_size=4),
                    min_size=1, max_size=30),
           st.sampled_from(PARAMS))
    def test_equals_cell_metrics_on_drawn_counts(self, totals, positives, params):
        # small counts: many ties with the F1 floor and between group rates
        assert_cell_costs_equal_reference(np.minimum(positives, totals), totals, params)

    @given(st.lists(st.tuples(st.integers(0, 1), st.integers(0, 1)), min_size=1, max_size=40),
           st.integers(1, 6), st.integers(0, 2 ** 32 - 1))
    def test_one_gemm_equals_a_bincount_per_mask(self, rows, masks, seed):
        labels, protected = np.array(rows).T
        key = 4 * protected + 2 * labels
        preds = np.random.default_rng(seed).integers(0, 2, size=(masks, len(rows))) == 1
        cells = np.array([np.bincount(key + p, minlength=8) for p in preds])
        indicator = group_label_indicator(labels, protected)
        assert np.array_equal(preds @ indicator, cells[:, 1::2])
        assert np.array_equal(indicator.sum(axis=0), cells[0, 0::2] + cells[0, 1::2])

