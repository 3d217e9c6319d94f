"""Confusion counts at a positional cut and the scalar metric catalogue.

Every metric is computed from the four integer counts and converts to float
only at the final division, so results are correctly rounded rationals.
Undefined cases raise typed errors instead of returning NaN.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    EmptyNegativeClass,
    EmptyPopulation,
    EmptyPositiveClass,
    NoPredictedPositives,
    UndefinedEMeasure,
    UndefinedF1,
)
from .ranking import Ranking

__all__ = [
    "ConfusionCounts",
    "confusion_at_cut",
    "accuracy",
    "error_rate",
    "prevalence",
    "sensitivity",
    "false_positive_rate",
    "specificity",
    "precision",
    "recall",
    "f1_score",
    "e_measure",
]


@dataclass(frozen=True)
class ConfusionCounts:
    """tp/fp/fn/tn at a positional cut; all counts non-negative."""

    tp: int
    fp: int
    fn: int
    tn: int

    def __post_init__(self) -> None:
        for name in ("tp", "fp", "fn", "tn"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")

    @property
    def n(self) -> int:
        return self.tp + self.fp + self.fn + self.tn

    @property
    def k1(self) -> int:
        """Size of the positive class."""
        return self.tp + self.fn

    @property
    def k2(self) -> int:
        """Size of the negative class."""
        return self.fp + self.tn


def confusion_at_cut(ranking: Ranking, cut: int) -> ConfusionCounts:
    """Counts when the top ``cut`` records are predicted positive.

    ``cut`` ranges over 0..n inclusive; 0 predicts nothing positive and n
    predicts everything positive. ``hits_at`` raises CutOutOfRange for any
    other cut.
    """

    tp = ranking.hits_at(cut)
    fp = cut - tp
    fn = ranking.k1 - tp
    tn = ranking.k2 - fp
    return ConfusionCounts(tp, fp, fn, tn)


def accuracy(counts: ConfusionCounts) -> float:
    """(tp + tn) / n."""
    if counts.n == 0:
        raise EmptyPopulation("accuracy needs at least one record")
    return (counts.tp + counts.tn) / counts.n


def error_rate(counts: ConfusionCounts) -> float:
    """(fp + fn) / n, the complement of accuracy."""
    if counts.n == 0:
        raise EmptyPopulation("error rate needs at least one record")
    return (counts.fp + counts.fn) / counts.n


def prevalence(counts: ConfusionCounts) -> float:
    """(tp + fp) / n: the share of records predicted positive at this cut."""
    if counts.n == 0:
        raise EmptyPopulation("prevalence needs at least one record")
    return (counts.tp + counts.fp) / counts.n


def sensitivity(counts: ConfusionCounts) -> float:
    """tp / (tp + fn), the true positive rate."""
    if counts.k1 == 0:
        raise EmptyPositiveClass("sensitivity needs a non-empty positive class")
    return counts.tp / counts.k1


def false_positive_rate(counts: ConfusionCounts) -> float:
    """fp / (tn + fp): the share of negatives predicted positive."""
    if counts.k2 == 0:
        raise EmptyNegativeClass("false positive rate needs a non-empty negative class")
    return counts.fp / counts.k2


def specificity(counts: ConfusionCounts) -> float:
    """tn / (tn + fp), the true negative rate; complement of the FPR."""
    if counts.k2 == 0:
        raise EmptyNegativeClass("specificity needs a non-empty negative class")
    return counts.tn / counts.k2


def precision(counts: ConfusionCounts) -> float:
    """tp / (tp + fp) over the predicted-positive records."""
    if counts.tp + counts.fp == 0:
        raise NoPredictedPositives("precision is undefined when nothing is predicted positive")
    return counts.tp / (counts.tp + counts.fp)


def recall(counts: ConfusionCounts) -> float:
    """Alias for sensitivity."""
    return sensitivity(counts)


def f1_score(counts: ConfusionCounts) -> float:
    """Harmonic mean of precision and recall, from counts: 2tp / (2tp+fp+fn).

    Undefined when precision and recall are both zero or either is undefined,
    which for integer counts is exactly the case tp = 0.
    """

    if counts.tp == 0:
        raise UndefinedF1("F1 needs at least one true positive")
    return 2 * counts.tp / (2 * counts.tp + counts.fp + counts.fn)


def e_measure(counts: ConfusionCounts, alpha: float) -> float:
    """Effectiveness E = 1 - F where 1/F = alpha/P + (1-alpha)/R.

    alpha weighs precision against recall; alpha = 0.5 recovers E = 1 - F1.
    Requires P > 0 and R > 0 (both defined and positive).
    """

    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha {alpha!r} outside [0, 1]")
    if counts.tp + counts.fp == 0 or counts.k1 == 0 or counts.tp == 0:
        raise UndefinedEMeasure("E-measure needs positive precision and recall")
    p = counts.tp / (counts.tp + counts.fp)
    r = counts.tp / counts.k1
    f = 1.0 / (alpha / p + (1.0 - alpha) / r)
    return 1.0 - f
