"""Positive predictive value at a positional cut, base-rate cut included.

PPV_k is precision when the top k records are predicted positive. The cut of
primary interest is k = k1 (as many predicted positives as there are actual
positives), where PPV_k, sensitivity, and F1 all coincide. ``ppv_swap``
translates PPV at the base-rate cut between a classifier and its reverse.
With k2 negatives, h hits at that cut fit some ranking only when
max(0, k1 - k2) <= h <= k1; ``ClassRatio`` holds the class sizes k1:k2 and
``_feasible_hits`` is the one check of that rule.
``expected_hits_at_k`` and ``hits_range_at_k`` read a ``TieTable``'s one cut lookup.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import EmptyPositiveClass, InconsistentInput, NonIntegralHits
from .ranking import Ranking, _integer

__all__ = [
    "ClassRatio",
    "PpvResult",
    "ppv_at_k",
    "ppv_base_rate",
    "hits_from_ppv",
    "ppv_swap",
    "expected_hits_at_k",
    "hits_range_at_k",
]


class PpvResult(NamedTuple("PpvResult", [("k", int), ("hits", int)])):
    """PPV at cut k: ``hits`` positives among the top k, value = hits / k.
    A float, a bool or other non-integer k or hits raises TypeError."""

    __slots__ = ()

    def __init__(self, k: int, hits: int) -> None:
        _integer(k), _integer(hits)
        if k < 1:
            raise ValueError("cut k must be at least 1")
        if not 0 <= hits <= k:
            raise ValueError("hits must lie in [0, k]")

    @property
    def value(self) -> float:
        return self.hits / self.k


def ppv_at_k(ranking: Ranking, k: int) -> PpvResult:
    """Count positives among the top k records; k an integer in 1..n."""

    return PpvResult(k=k, hits=ranking._cut_hits(k))


def ppv_base_rate(ranking: Ranking) -> PpvResult:
    """PPV at the base-rate cut k = k1."""

    if ranking.k1 == 0:
        raise EmptyPositiveClass("base-rate cut needs a non-empty positive class")
    return ppv_at_k(ranking, ranking.k1)


def hits_from_ppv(ppv: float, k: int) -> int:
    """Recover the integer hit count behind a PPV value at cut k.

    The ppv is accepted exactly when it equals the float hits / k for some
    hits in [0, k], at any k; there is no slack, so a float that merely
    lies near a hit count (``0.1 + 0.2`` at k = 10) raises NonIntegralHits.
    """

    PpvResult(k, 0)  # the cut rule: TypeError for a non-integer k, ValueError below 1
    try:
        hits = round(ppv * k)
    except (ValueError, OverflowError):  # ppv * k is NaN or infinite
        hits = -1  # outside 0..k: rejected below
    if hits / k != ppv or not 0 <= hits <= k:
        raise NonIntegralHits(f"ppv {ppv!r} at cut {k} is not h / {k} for any h in 0..{k}")
    return hits


class ClassRatio(NamedTuple("ClassRatio", [("k1", int), ("k2", int)])):
    """Class sizes k1 (positives) and k2 (negatives), integers of at least 1.
    A float, a bool or other non-integer size raises TypeError."""

    __slots__ = ()

    def __init__(self, k1: int, k2: int) -> None:
        _integer(k1), _integer(k2)
        if k1 < 1 or k2 < 1:
            raise ValueError("class sizes must be at least 1")

    @property
    def n(self) -> int:
        return self.k1 + self.k2


def _feasible_hits(hits: int, k1: int, k2: int) -> int:
    """``hits`` if max(0, k1 - k2) <= hits <= k1; else NonIntegralHits for a
    non-integer or outside [0, k1], or InconsistentInput when the top k1 would
    need more negatives."""

    try:
        hits = _integer(hits)
    except TypeError:  # 2.0, 2.5 or True: no hit count
        raise NonIntegralHits(f"hits {hits!r} is not an integer") from None
    if not 0 <= hits <= k1:
        raise NonIntegralHits(f"hits {hits} outside [0, {k1}]")
    if hits < k1 - k2:
        raise InconsistentInput(
            f"{hits} hits at cut {k1} fit no ranking of {k1} positives and {k2} negatives"
        )
    return hits


def ppv_swap(ppv_k1: float, k1: int, k2: int) -> float:
    """PPV of the reversed classifier at its base-rate cut k2.

    With h hits among the top k1, the bottom k2 records hold k2 - (k1 - h)
    negatives, so PPV_k2 = 1 - (k1/k2) * (1 - PPV_k1). Computed in integer
    arithmetic with one final division; raises InconsistentInput when the
    inputs cannot describe any ranking (non-integral hits or a result outside
    [0, 1]), and ClassRatio's errors for bad class sizes.
    """

    ClassRatio(k1, k2)
    return (k2 - k1 + _feasible_hits(hits_from_ppv(ppv_k1, k1), k1, k2)) / k2


def expected_hits_at_k(ranking: Ranking, k: int) -> float:
    """Expected positives in the top k when the boundary tie group is shuffled.

    Reads a Ranking or its TieTable. A tie policy fixes which members of a
    group straddling the cut land inside it; over all orderings of that
    group, those members are a uniform sample without replacement, so the
    expectation is hypergeometric, positives_before + group_positives *
    slots / group_size. Away from a straddling tie it equals the
    deterministic hit count.
    """

    g, hits_before, slots, size = ranking._cut_group(k)
    return (hits_before * size + (ranking.group_hits[g] - hits_before) * slots) / size


def hits_range_at_k(ranking: Ranking, k: int) -> tuple[int, int]:
    """Fewest and most positives in the top k over orderings of the boundary tie group.

    Reads a Ranking or its TieTable. The cut takes ``slots`` members of the
    tie group holding position k - 1: at least slots - (negatives in the
    group) of them and at most all of the group's positives are positive.
    Away from a straddling tie both ends equal the deterministic hit count.
    """

    g, hits_before, slots, size = ranking._cut_group(k)
    group_positives = ranking.group_hits[g] - hits_before
    return (
        hits_before + max(0, slots - (size - group_positives)),
        hits_before + min(group_positives, slots),
    )
