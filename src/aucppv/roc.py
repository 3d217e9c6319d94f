"""ROC curves and two independent AUC routes.

``auc_trapezoid`` integrates the ROC polygon; ``auc_pairwise`` counts
correctly ordered positive/negative pairs through a rank-sum in O(n) on the
already-sorted ranking, crediting ties with one half. The two agree to
floating-point accuracy on every ranking, which the test suite exploits as a
dual-route check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain
from operator import add, mul, sub

from .errors import DegenerateClasses
from .ranking import Ranking

__all__ = [
    "RocCurve",
    "AucResult",
    "roc_curve",
    "auc_trapezoid",
    "auc_pairwise",
]


@dataclass(frozen=True)
class RocCurve:
    """ROC polygon vertices as (fpr, sensitivity), both in [0, 1].

    Starts at (0, 0), ends at (1, 1), and both coordinates are non-decreasing
    along the sweep.
    """

    points: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        if not self.points:
            raise ValueError("a ROC curve needs at least one point")
        if self.points[0] != (0.0, 0.0) or self.points[-1] != (1.0, 1.0):
            raise ValueError("ROC curve must run from (0, 0) to (1, 1)")
        for (x0, y0), (x1, y1) in zip(self.points, self.points[1:]):
            if x1 < x0 or y1 < y0:
                raise ValueError("ROC coordinates must be non-decreasing")


@dataclass(frozen=True)
class AucResult:
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
    """Sweep the cut from 0 to n, emitting a point after each tie group.

    Records with equal scores enter together, so the curve has one vertex per
    distinct score plus the (0, 0) anchor.
    """

    _require_both_classes(ranking)
    k1, k2 = ranking.k1, ranking.k2
    points = [(0.0, 0.0)]
    points.extend(
        ((end - tp) / k2, tp / k1) for end, tp in zip(ranking.group_ends, ranking.group_hits)
    )
    return RocCurve(tuple(points))


def auc_trapezoid(curve: RocCurve) -> float:
    """Area under the ROC polygon by the trapezoid rule."""

    terms = [
        (x1 - x0) * (y0 + y1) / 2.0
        for (x0, y0), (x1, y1) in zip(curve.points, curve.points[1:])
    ]
    return math.fsum(terms)


def auc_pairwise(ranking: Ranking) -> AucResult:
    """AUC as the fraction of correctly ordered positive/negative pairs.

    Computed as a rank sum over the tie groups of the sorted ranking, entirely
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
