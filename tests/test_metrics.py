"""Confusion counts and the scalar metric catalogue."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aucppv import (
    ConfusionCounts,
    accuracy,
    confusion_at_cut,
    e_measure,
    error_rate,
    f1_score,
    false_positive_rate,
    precision,
    prevalence,
    recall,
    sensitivity,
    specificity,
)
from aucppv.errors import (
    CutOutOfRange,
    EmptyNegativeClass,
    EmptyPopulation,
    EmptyPositiveClass,
    NoPredictedPositives,
    UndefinedEMeasure,
    UndefinedF1,
)
from conftest import ranking_from_pattern

# Cut 3 of the PPNPNNN ordering: predicted positives are {P, P, N}.
REFERENCE = ConfusionCounts(tp=2, fp=1, fn=1, tn=3)

counts_strategy = st.builds(
    ConfusionCounts,
    tp=st.integers(min_value=0, max_value=40),
    fp=st.integers(min_value=0, max_value=40),
    fn=st.integers(min_value=0, max_value=40),
    tn=st.integers(min_value=0, max_value=40),
)


def test_confusion_at_cut_three():
    ranking = ranking_from_pattern("PPNPNNN")
    assert confusion_at_cut(ranking, 3) == REFERENCE


def test_confusion_at_cut_zero_and_n():
    ranking = ranking_from_pattern("PPNPNNN")
    assert confusion_at_cut(ranking, 0) == ConfusionCounts(0, 0, 3, 4)
    assert confusion_at_cut(ranking, 7) == ConfusionCounts(3, 4, 0, 0)


@pytest.mark.parametrize("cut", [-1, 8, True])
def test_confusion_cut_out_of_range(cut):
    ranking = ranking_from_pattern("PPNPNNN")
    with pytest.raises(CutOutOfRange):
        confusion_at_cut(ranking, cut)


def test_negative_counts_rejected():
    with pytest.raises(ValueError):
        ConfusionCounts(tp=-1, fp=0, fn=0, tn=0)


def test_reference_point_metrics():
    assert accuracy(REFERENCE) == 5 / 7
    assert error_rate(REFERENCE) == 2 / 7
    assert prevalence(REFERENCE) == 3 / 7
    assert sensitivity(REFERENCE) == 2 / 3
    assert false_positive_rate(REFERENCE) == 1 / 4
    assert specificity(REFERENCE) == 3 / 4
    assert precision(REFERENCE) == 2 / 3
    assert recall(REFERENCE) == 2 / 3
    assert f1_score(REFERENCE) == 2 / 3
    assert e_measure(REFERENCE, 0.5) == pytest.approx(1 / 3, abs=1e-15)


def test_perfect_and_degenerate_points():
    perfect = ConfusionCounts(tp=3, fp=0, fn=0, tn=4)
    assert accuracy(perfect) == 1.0
    assert f1_score(perfect) == 1.0
    assert sensitivity(perfect) == 1.0
    assert specificity(perfect) == 1.0
    all_wrong = ConfusionCounts(tp=0, fp=4, fn=3, tn=0)
    assert accuracy(all_wrong) == 0.0
    assert error_rate(all_wrong) == 1.0
    nothing_predicted = ConfusionCounts(tp=0, fp=0, fn=3, tn=4)
    assert prevalence(nothing_predicted) == 0.0


def test_e_measure_extremes():
    # alpha = 1 weighs precision only, alpha = 0 recall only.
    counts = ConfusionCounts(tp=2, fp=2, fn=1, tn=3)
    p = 2 / 4
    r = 2 / 3
    assert e_measure(counts, 1.0) == pytest.approx(1 - p, abs=1e-15)
    assert e_measure(counts, 0.0) == pytest.approx(1 - r, abs=1e-15)


@pytest.mark.parametrize("alpha", [-0.1, 1.1, math.nan])
def test_e_measure_alpha_domain(alpha):
    with pytest.raises(ValueError):
        e_measure(REFERENCE, alpha)


def test_empty_population_errors():
    empty = ConfusionCounts(0, 0, 0, 0)
    for fn in (accuracy, error_rate, prevalence):
        with pytest.raises(EmptyPopulation):
            fn(empty)


def test_empty_class_errors():
    no_pos = ConfusionCounts(tp=0, fp=1, fn=0, tn=1)
    with pytest.raises(EmptyPositiveClass):
        sensitivity(no_pos)
    no_neg = ConfusionCounts(tp=1, fp=0, fn=1, tn=0)
    with pytest.raises(EmptyNegativeClass):
        false_positive_rate(no_neg)
    with pytest.raises(EmptyNegativeClass):
        specificity(no_neg)


def test_precision_needs_predicted_positives():
    counts = ConfusionCounts(tp=0, fp=0, fn=2, tn=2)
    with pytest.raises(NoPredictedPositives):
        precision(counts)


def test_f1_undefined_exactly_when_no_true_positives():
    # Zero precision with positive recall impossible from counts; tp = 0
    # is the single undefined case.
    with pytest.raises(UndefinedF1):
        f1_score(ConfusionCounts(tp=0, fp=2, fn=2, tn=1))
    with pytest.raises(UndefinedF1):
        f1_score(ConfusionCounts(tp=0, fp=0, fn=2, tn=1))
    assert f1_score(ConfusionCounts(tp=1, fp=0, fn=0, tn=0)) == 1.0


def test_e_measure_undefined_cases():
    with pytest.raises(UndefinedEMeasure):
        e_measure(ConfusionCounts(tp=0, fp=1, fn=1, tn=1), 0.5)
    with pytest.raises(UndefinedEMeasure):
        e_measure(ConfusionCounts(tp=0, fp=0, fn=1, tn=1), 0.5)


@settings(max_examples=300, deadline=None)
@given(counts_strategy)
def test_accuracy_error_complement(counts):
    if counts.n == 0:
        return
    # Complementarity holds to one ulp; both divisions share the denominator.
    assert abs(accuracy(counts) + error_rate(counts) - 1.0) <= math.ulp(1.0)


@settings(max_examples=300, deadline=None)
@given(counts_strategy)
def test_specificity_fpr_complement(counts):
    if counts.k2 == 0:
        return
    assert abs(specificity(counts) + false_positive_rate(counts) - 1.0) <= 1e-12


@settings(max_examples=300, deadline=None)
@given(counts_strategy)
def test_e_measure_half_alpha_matches_f1(counts):
    if counts.tp == 0:
        return
    assert abs(e_measure(counts, 0.5) - (1.0 - f1_score(counts))) <= 1e-12


def test_row_and_column_sums_across_cuts():
    ranking = ranking_from_pattern("PPNPNNNPNPN")
    for cut in range(ranking.n + 1):
        counts = confusion_at_cut(ranking, cut)
        assert counts.k1 == ranking.k1
        assert counts.k2 == ranking.k2
        assert counts.tp + counts.fp == cut
        assert counts.fn + counts.tn == ranking.n - cut


def test_cut_monotonicity():
    # Raising the cut can only move records from predicted-negative to
    # predicted-positive: tp and fp never decrease, fn and tn never increase.
    ranking = ranking_from_pattern("PNPPNNPNNNP")
    prev = confusion_at_cut(ranking, 0)
    for cut in range(1, ranking.n + 1):
        cur = confusion_at_cut(ranking, cut)
        assert cur.tp >= prev.tp
        assert cur.fp >= prev.fp
        assert cur.fn <= prev.fn
        assert cur.tn <= prev.tn
        assert (cur.tp - prev.tp) + (cur.fp - prev.fp) == 1
        prev = cur
