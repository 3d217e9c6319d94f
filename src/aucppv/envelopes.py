"""Extremal envelopes relating AUC and PPV at the base-rate cut.

Fix the class sizes k1 (positives) and k2 (negatives) and the hit count
h = PPV_k * k1. Over all arrangements with exactly h positives in the top k1,
the largest AUC is attained by packing the remaining positives directly below
the cut and the misplaced negatives directly above the bottom, and the
smallest by the mirror arrangement. With a = h/k1 and k1 <= k2 the extremes
have closed forms:

    auc_max(a) = 1 - (k1/k2) * (1 - a)^2
    auc_min(a) = a * (1 - (k1/k2) * (1 - a))

At a = h/k1 both are integer pair counts over the k1*k2 pairs:

    auc_max = (k1*k2 - (k1 - h)^2) / (k1*k2)
    auc_min = h * (k2 - k1 + h) / (k1*k2)

so the module works with those integer numerators and divides only at the
edge: a Fraction for the ``*_exact`` functions, one correctly rounded
int/int division for the float ones.

Ratios with k1 > k2 are reduced to this case through the class swap, which
leaves AUC unchanged and maps hit counts affinely (``ppv.swap_hits``, whose
inverse is the same map with the classes exchanged).

The inverse direction solves the envelopes for h: given an observed AUC
value b, the feasible hit counts are bracketed by the smallest h whose
auc_min reaches b and the largest h whose auc_max stays at or below b, the
outer grid neighbours of the continuous roots, so the reported interval
always contains every PPV_k attainable at AUC = b. Each root is read from
``math.isqrt`` and settled by an exact integer correction step, with b taken
as the exact rational it is (a float converts to its binary fraction, and
callers with an exact AUC pass a Fraction), so there is no slack.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from .errors import InconsistentInput, NonIntegralHits
from .ppv import PpvResult, hits_from_ppv, swap_hits

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


class ClassRatio(NamedTuple("ClassRatio", [("k1", int), ("k2", int)])):
    """Class sizes k1 (positives) and k2 (negatives), both at least 1."""

    __slots__ = ()

    def __init__(self, k1: int, k2: int) -> None:
        if k1 < 1 or k2 < 1:
            raise ValueError("class sizes must be at least 1")

    @property
    def n(self) -> int:
        return self.k1 + self.k2


def _envelope_pairs(hits: int, k1: int, k2: int) -> tuple[int, int]:
    """(auc_min, auc_max) numerators over k1*k2 at a = hits/k1; k1 <= k2."""

    miss = k1 - hits
    return hits * (k2 - miss), k1 * k2 - miss * miss


def _exact_pairs(hits: int, ratio: ClassRatio) -> tuple[int, int]:
    """(auc_min, auc_max) numerators over k1*k2 for any ratio, swapped to k1 <= k2."""

    if not 0 <= hits <= ratio.k1:
        raise NonIntegralHits(f"hits {hits} outside [0, {ratio.k1}]")
    if ratio.k1 <= ratio.k2:
        return _envelope_pairs(hits, ratio.k1, ratio.k2)
    return _envelope_pairs(swap_hits(hits, ratio.k1, ratio.k2), ratio.k2, ratio.k1)


def auc_max_exact(hits: int, ratio: ClassRatio) -> Fraction:
    """Exact rational auc_max for an integer hit count; any ratio."""

    return Fraction(_exact_pairs(hits, ratio)[1], ratio.k1 * ratio.k2)


def auc_min_exact(hits: int, ratio: ClassRatio) -> Fraction:
    """Exact rational auc_min for an integer hit count; any ratio."""

    return Fraction(_exact_pairs(hits, ratio)[0], ratio.k1 * ratio.k2)


def auc_max_given_ppvk(ppv: float, ratio: ClassRatio) -> float:
    """Largest AUC any arrangement with PPV_k = ppv can reach."""

    return float(auc_max_exact(hits_from_ppv(ppv, ratio.k1), ratio))


def auc_min_given_ppvk(ppv: float, ratio: ClassRatio) -> float:
    """Smallest AUC any arrangement with PPV_k = ppv can reach."""

    return float(auc_min_exact(hits_from_ppv(ppv, ratio.k1), ratio))


def _threshold(auc: float | Fraction, ratio: ClassRatio) -> tuple[int, int, int, int]:
    """(k1, k2, p, q): sizes smaller first, p / q == auc * k1*k2; auc in [0, 1]."""

    try:
        num, den = auc.as_integer_ratio()
    except (ValueError, OverflowError):  # NaN and +-inf have no ratio
        num, den = -1, 1
    if not 0 <= num <= den:
        raise InconsistentInput(f"auc {auc!r} outside [0, 1]")
    k1, k2 = (ratio.k1, ratio.k2) if ratio.k1 <= ratio.k2 else (ratio.k2, ratio.k1)
    return k1, k2, num * k1 * k2, den


def ppvk_max_given_auc(auc: float | Fraction, ratio: ClassRatio) -> PpvResult:
    """Largest base-rate-cut PPV compatible with the observed AUC.

    Returns the smallest grid value a = h/k1 whose auc_min reaches the
    observed value, i.e. the outer grid neighbour of the continuous root of
    auc_min(a) = auc, so no arrangement with this AUC can exceed it. The root
    of h * (k2 - k1 + h) = auc * k1*k2 is read from isqrt and stepped up to
    the first level that passes the exact test. The AUC is compared as the
    exact rational it is: pass a Fraction when the exact AUC is known, since
    a float is read as its own binary fraction.
    """

    k1, k2, p, q = _threshold(auc, ratio)
    d = k2 - k1
    # Least h with h * (d + h) * q >= p. Both inverses start from isqrt of a
    # floored integer, never above the true root (and here >= 0), so the
    # start cannot overshoot and falls at most about three levels short; each
    # step is an exact integer test, and h = k1 always passes.
    hits = (math.isqrt((d * d * q + 4 * p) // q) - d) // 2
    while hits * (d + hits) * q < p:
        hits += 1
    if ratio.k1 > ratio.k2:
        hits = swap_hits(hits, k1, k2)
    return PpvResult(k=ratio.k1, hits=hits)


def ppvk_min_given_auc(auc: float | Fraction, ratio: ClassRatio) -> PpvResult:
    """Smallest base-rate-cut PPV compatible with the observed AUC.

    Returns the largest grid value a = h/k1 whose auc_max stays at or below
    the observed value (0 when there is none): the outer grid neighbour of
    the continuous root of auc_max(a) = auc, so no arrangement with this AUC
    can fall below it. The root of (k1 - h)^2 = (1 - auc) * k1*k2 is read
    from isqrt and corrected exactly, as in ppvk_max_given_auc.
    """

    k1, k2, p, q = _threshold(auc, ratio)
    # Least miss count m = k1 - h with m^2 * q >= r; no level fits if m > k1.
    r = k1 * k2 * q - p
    miss = math.isqrt(r // q)
    while miss * miss * q < r:
        miss += 1
    hits = max(0, k1 - miss)
    if ratio.k1 > ratio.k2:
        hits = swap_hits(hits, k1, k2)
    return PpvResult(k=ratio.k1, hits=hits)


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

    k1, k2 = sorted((ratio.k1, ratio.k2))
    total = k1 * k2
    samples = []
    for i in range(k1 + 1):
        low, high = _envelope_pairs(i, k1, k2)
        samples.append((i / k1, low / total, high / total))
    return EnvelopeCurve(
        ratio=ClassRatio(k1, k2), samples=tuple(samples), swapped=ratio.k1 > ratio.k2
    )
