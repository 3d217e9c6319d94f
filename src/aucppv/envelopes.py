"""Extremal envelopes relating AUC and PPV at the base-rate cut.

Fix the class sizes k1 (positives) and k2 (negatives), a ``ClassRatio``
imported from ``ppv`` beside the hit-level check, and the hit count
h = PPV_k * k1. Over all arrangements with exactly h positives in the top k1,
the largest AUC is attained by packing the remaining positives directly below
the cut and the misplaced negatives directly above the bottom, and the
smallest by the mirror arrangement. Both extremes are integer pair counts
over the k1*k2 pairs (the two blocks the cut makes, counted in ``oracle``):

    auc_max = (k1*k2 - (k1 - h)^2) / (k1*k2)
    auc_min = h * (k2 - k1 + h) / (k1*k2)

These numerators, and the inverses below, hold for either class order over
the feasible levels h >= max(0, k1 - k2); below that the top k1 would need
more negatives than there are, and ``_envelope_pairs``, the one numerator
helper, refuses them through ``ppv._feasible_hits`` as ``ppv_swap`` does.
Only the float forms in a = h/k1 take k1 <= k2:

    auc_max(a) = 1 - (k1/k2) * (1 - a)^2
    auc_min(a) = a * (1 - (k1/k2) * (1 - a))

The module works with the integer numerators and divides only at the edge:
a Fraction for the ``*_exact`` functions, one correctly rounded int/int
division for the float ones.

The inverse direction solves the envelopes for h: given an observed AUC
value b, the feasible hit counts are bracketed by the smallest h whose
auc_min reaches b and the largest h whose auc_max stays at or below b, the
outer grid neighbours of the continuous roots, so the reported interval
always contains every PPV_k attainable at AUC = b. Both are one quadratic,
x * (x + d) reaching a target, solved by ``_least_root`` from ``math.isqrt``
and settled by an exact integer correction step, with b taken as the exact
rational it is (a float converts to its binary fraction, and callers with an
exact AUC pass a Fraction), so there is no slack.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, NamedTuple

from .errors import InconsistentInput
from .ppv import ClassRatio, PpvResult, _feasible_hits, hits_from_ppv

if TYPE_CHECKING:
    from fractions import Fraction

__all__ = [
    "ClassRatio",
    "EnvelopeCurve",
    "auc_max_given_ppvk",
    "auc_min_given_ppvk",
    "auc_max_exact",
    "auc_min_exact",
    "ppvk_max_given_auc",
    "ppvk_min_given_auc",
    "envelope_curve",
]


def _envelope_pairs(hits: int, k1: int, k2: int) -> tuple[int, int]:
    """(auc_min, auc_max) numerators over k1*k2 for a feasible hit count."""

    miss = k1 - _feasible_hits(hits, k1, k2)
    return hits * (k2 - miss), k1 * k2 - miss * miss


def auc_max_exact(hits: int, ratio: ClassRatio) -> Fraction:
    """Exact rational auc_max for an integer hit count; any ratio."""

    from fractions import Fraction

    return Fraction(_envelope_pairs(hits, *ratio)[1], ratio.k1 * ratio.k2)


def auc_min_exact(hits: int, ratio: ClassRatio) -> Fraction:
    """Exact rational auc_min for an integer hit count; any ratio."""

    from fractions import Fraction

    return Fraction(_envelope_pairs(hits, *ratio)[0], ratio.k1 * ratio.k2)


def auc_max_given_ppvk(ppv: float, ratio: ClassRatio) -> float:
    """Largest AUC any arrangement with PPV_k = ppv can reach."""

    return _envelope_pairs(hits_from_ppv(ppv, ratio.k1), *ratio)[1] / (ratio.k1 * ratio.k2)


def auc_min_given_ppvk(ppv: float, ratio: ClassRatio) -> float:
    """Smallest AUC any arrangement with PPV_k = ppv can reach."""

    return _envelope_pairs(hits_from_ppv(ppv, ratio.k1), *ratio)[0] / (ratio.k1 * ratio.k2)


def _least_root(d: int, den: int, target: int) -> int:
    """Least integer x >= max(0, -d) with x * (x + d) * den >= target >= 0.

    The start, read from isqrt of a floored integer, is at least max(0, -d)
    and never above the continuous root, past which x * (x + d) increases,
    so the exact steps up cannot overshoot; the start falls at most two
    levels short.
    """

    x = (math.isqrt((d * d * den + 4 * target) // den) - d) // 2
    while x * (x + d) * den < target:
        x += 1
    return x


def _hit_bounds(num: int, den: int, k1: int, k2: int) -> tuple[int, int]:
    """(least, most) hits at the cut k1 for an AUC of num / den in [0, 1].

    The most is the least h whose auc_min, h * (h + k2 - k1), reaches the
    AUC; h = k1 always does. The least is k1 - m for the least miss count m
    whose auc_max, k1*k2 - m * m, stays at or below it, or the least
    feasible level, max(0, k1 - k2), if that is higher.
    """

    total = k1 * k2
    most = _least_root(k2 - k1, den, num * total)
    return max(0, k1 - k2, k1 - _least_root(0, den, (den - num) * total)), most


def _hits_given_auc(auc: float | Fraction, ratio: ClassRatio) -> tuple[int, int]:
    """_hit_bounds for an AUC read as the exact rational it is."""

    try:
        num, den = auc.as_integer_ratio()
    except (ValueError, OverflowError):  # NaN and +-inf have no ratio
        num, den = -1, 1
    if not 0 <= num <= den:
        raise InconsistentInput(f"auc {auc!r} outside [0, 1]")
    return _hit_bounds(num, den, ratio.k1, ratio.k2)


def ppvk_max_given_auc(auc: float | Fraction, ratio: ClassRatio) -> PpvResult:
    """Largest base-rate-cut PPV compatible with the observed AUC.

    Returns the smallest grid value a = h/k1 whose auc_min reaches the
    observed value, i.e. the outer grid neighbour of the continuous root of
    auc_min(a) = auc, so no arrangement with this AUC can exceed it. The AUC
    is compared as the exact rational it is: pass a Fraction when the exact
    AUC is known, since a float is read as its own binary fraction.
    """

    return PpvResult(k=ratio.k1, hits=_hits_given_auc(auc, ratio)[1])


def ppvk_min_given_auc(auc: float | Fraction, ratio: ClassRatio) -> PpvResult:
    """Smallest base-rate-cut PPV compatible with the observed AUC.

    Returns the largest grid value a = h/k1 whose auc_max stays at or below
    the observed value (the least feasible level when there is none): the
    outer grid neighbour of the continuous root of auc_max(a) = auc, so no
    arrangement with this AUC can fall below it. Exact, as in
    ppvk_max_given_auc.
    """

    return PpvResult(k=ratio.k1, hits=_hits_given_auc(auc, ratio)[0])


class EnvelopeCurve(NamedTuple):
    """Envelope samples over the full hit grid of a ratio with k1 <= k2.

    ``samples`` holds (a, auc_min, auc_max) for a = i/k1, i = 0..k1. The
    ratio stored has the smaller class first; ``swapped`` records whether
    the requested ratio had to be swapped to reach it.
    """

    ratio: ClassRatio
    samples: tuple[tuple[float, float, float], ...]
    swapped: bool = False


def envelope_curve(ratio: ClassRatio) -> EnvelopeCurve:
    """Tabulate both envelopes over every hit level, smaller class first.

    Ratios with k1 > k2 are swapped first (AUC is swap-invariant and hit
    counts below k1 - k2 would be infeasible un-swapped), so the grid always
    has min(k1, k2) + 1 points.
    """

    k1, k2 = sorted(ratio)
    total = k1 * k2
    samples = tuple([
        (i / k1, i * (k2 - k1 + i) / total, (total - (k1 - i) ** 2) / total)
        for i in range(k1 + 1)
    ])
    return EnvelopeCurve(ratio=ClassRatio(k1, k2), samples=samples, swapped=ratio.k1 > ratio.k2)
