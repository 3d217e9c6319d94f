"""ROC curves and two independent AUC routes.

``auc_trapezoid`` integrates the ROC polygon; ``auc_pairwise`` counts
correctly ordered positive/negative pairs by a rank sum in O(groups) over the
``TieTable``, sorting no record and crediting ties with one half. Both routes
sum integer counts and divide once, so they agree exactly on every ranking,
ties included, which the test suite exploits as a dual-route check.
"""

from __future__ import annotations

from itertools import chain, pairwise
from operator import add, mul, sub
from typing import NamedTuple

from .errors import DegenerateClasses
from .ranking import Ranking

__all__ = [
    "RocCurve",
    "AucResult",
    "roc_curve",
    "auc_trapezoid",
    "auc_pairwise",
]


class RocCurve(NamedTuple):
    """ROC polygon vertices as integer (false positive, true positive) counts.

    ``counts`` runs from (0, 0) to (k2, k1), one vertex per tie group, and
    both counts are non-decreasing along the sweep; ``points`` divides them
    by k2 and k1 into (fpr, sensitivity) floats for plotting.
    """

    k1: int
    k2: int
    counts: tuple[tuple[int, int], ...]

    @property
    def points(self) -> tuple[tuple[float, float], ...]:
        k1, k2 = self.k1, self.k2
        return tuple((fp / k2, tp / k1) for fp, tp in self.counts)


class AucResult(NamedTuple):
    """AUC as an exact pair count.

    ``doubled_u`` is twice the number of correctly ordered positive/negative
    pairs, ties counted one half, so it stays an integer; ``total_pairs`` =
    k1 * k2. The exact AUC is doubled_u / (2 * total_pairs); ``value`` and
    ``correct_pairs`` are its float forms for formatting.
    """

    doubled_u: int
    total_pairs: int

    @property
    def value(self) -> float:
        return self.doubled_u / (2 * self.total_pairs)

    @property
    def correct_pairs(self) -> float:
        """Correctly ordered pairs, which can end in .5."""
        return self.doubled_u / 2


def _require_both_classes(ranking: Ranking) -> None:
    if ranking.k1 == 0 or ranking.k2 == 0:
        raise DegenerateClasses("ROC/AUC need at least one record of each class")


def roc_curve(ranking: Ranking) -> RocCurve:
    """Sweep the cut from 0 to n, emitting a vertex after each tie group.

    Reads a Ranking or its TieTable. Records with equal scores enter together,
    so the curve has one vertex per distinct score plus the (0, 0) anchor.
    """

    _require_both_classes(ranking)
    counts = [(0, 0)]
    counts.extend((end - tp, tp) for end, tp in zip(ranking.group_ends, ranking.group_hits))
    return RocCurve(ranking.k1, ranking.k2, tuple(counts))


def auc_trapezoid(curve: RocCurve) -> float:
    """Area under the ROC polygon by the trapezoid rule, exactly.

    Twice the area in count units is the sum of (fp1 - fp0) * (tp0 + tp1)
    over consecutive vertices, the integer doubled U; one division by
    2 * k1 * k2 gives the correctly rounded AUC, equal to
    ``auc_pairwise(ranking).value``.
    """

    doubled_area = sum(
        (fp1 - fp0) * (tp0 + tp1) for (fp0, tp0), (fp1, tp1) in pairwise(curve.counts)
    )
    return doubled_area / (2 * curve.k1 * curve.k2)


def auc_pairwise(ranking: Ranking) -> AucResult:
    """AUC as the fraction of correctly ordered positive/negative pairs.

    Computed as a rank sum over the tie groups of a Ranking or its TieTable,
    in integer arithmetic (doubled midranks), so the result holds the exact
    doubled U; its ``value`` is the correctly rounded exact rational and is
    bit-for-bit invariant under the class swap.
    """

    _require_both_classes(ranking)
    k1, ends, through = ranking.k1, ranking.group_ends, ranking.group_hits
    # Positives' ascending midranks, doubled to stay integral under ties:
    # group g spans descending positions [start, end), ascending ranks
    # n-end+1 .. n-start, so its p positives add p * (2n + 1 - start - end),
    # and the p sum to k1.
    positives = map(sub, through, chain((0,), through))
    spans = map(add, chain((0,), ends), ends)
    doubled_rank_sum = k1 * (2 * ranking.n + 1) - sum(map(mul, positives, spans))
    return AucResult(doubled_rank_sum - k1 * (k1 + 1), k1 * ranking.k2)
