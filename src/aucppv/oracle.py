"""Exhaustive arrangement oracle and envelope certification.

For small class sizes every arrangement of k1 positives among n = k1 + k2
positions can be enumerated. Each arrangement is scored by its integer count
of correctly ordered positive/negative pairs, formed from the sum of the
positive positions; only the per-hit-level extremes become exact rationals
(pairs / (k1*k2)). They then certify the closed-form envelopes by exact
equality, with no floating point anywhere in the comparison.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from .envelopes import ClassRatio, auc_max_exact, auc_min_exact
from .errors import CertificationFailure, InstanceTooLarge

__all__ = [
    "DEFAULT_LIMIT",
    "HitLevelStats",
    "ArrangementStats",
    "CertificationEntry",
    "CertificationReport",
    "enumerate_arrangements",
    "certify_envelopes",
]

#: Largest n = k1 + k2 enumerated by default; C(16, 8) = 12870 arrangements.
DEFAULT_LIMIT = 16


@dataclass(frozen=True)
class HitLevelStats:
    """Extremes over arrangements with a fixed hit count at the cut."""

    hits: int
    count: int
    min_auc: Fraction
    max_auc: Fraction


@dataclass(frozen=True)
class ArrangementStats:
    """Exact per-hit-level AUC extremes over all C(n, k1) arrangements."""

    ratio: ClassRatio
    per_hits: Mapping[int, HitLevelStats]
    min_auc: Fraction
    max_auc: Fraction
    arrangements: int


def enumerate_arrangements(ratio: ClassRatio, limit: int = DEFAULT_LIMIT) -> ArrangementStats:
    """Enumerate every placement of the positives and tally exact AUCs.

    Arrangements are generated in lexicographic order of the positive
    positions p_0 < ... < p_{k1-1} (0-based). The positive at p_j is ordered
    above the n-1-p_j records after it, k1-1-j of which are positives, so an
    arrangement's correctly ordered pair count is the integer
    k1*(n-1) - k1*(k1-1)/2 - sum(p_j). Its hit count (positives inside the
    top k1) is the number of positions below k1. Extremes of the pair count
    are tracked per hit level as integers, and each becomes the exact
    rational AUC pairs / (k1*k2) once, at the end.
    Raises InstanceTooLarge when n exceeds ``limit``.
    """

    n = ratio.n
    if n > limit:
        raise InstanceTooLarge(f"n = {n} exceeds the enumeration limit {limit}")
    k1, k2 = ratio.k1, ratio.k2
    total = k1 * k2
    base = k1 * (n - 1) - k1 * (k1 - 1) // 2
    # Indexed by hit count; a level no arrangement reaches keeps count 0.
    counts = [0] * (k1 + 1)
    lows = [total + 1] * (k1 + 1)
    highs = [-1] * (k1 + 1)
    for positions in itertools.combinations(range(n), k1):
        pairs = base - sum(positions)
        hits = bisect_left(positions, k1)
        counts[hits] += 1
        if pairs < lows[hits]:
            lows[hits] = pairs
        if pairs > highs[hits]:
            highs[hits] = pairs
    per_hits = {
        hits: HitLevelStats(
            hits=hits,
            count=counts[hits],
            min_auc=Fraction(lows[hits], total),
            max_auc=Fraction(highs[hits], total),
        )
        for hits in range(k1 + 1)
        if counts[hits]
    }
    return ArrangementStats(
        ratio=ratio,
        per_hits=per_hits,
        min_auc=Fraction(min(lows), total),
        max_auc=Fraction(max(highs), total),
        arrangements=sum(counts),
    )


@dataclass(frozen=True)
class CertificationEntry:
    """One hit level's closed-form vs enumerated extremes, compared exactly."""

    hits: int
    expected_min: Fraction
    actual_min: Fraction
    expected_max: Fraction
    actual_max: Fraction

    @property
    def ok(self) -> bool:
        return self.expected_min == self.actual_min and self.expected_max == self.actual_max


@dataclass(frozen=True)
class CertificationReport:
    """Per-hit-level certification outcomes for one ratio."""

    ratio: ClassRatio
    entries: tuple[CertificationEntry, ...]
    arrangements: int

    @property
    def ok(self) -> bool:
        return all(entry.ok for entry in self.entries)


def certify_envelopes(ratio: ClassRatio, limit: int = DEFAULT_LIMIT) -> CertificationReport:
    """Prove the closed-form envelopes tight for one ratio by enumeration.

    For every feasible hit level the enumerated min/max AUC must equal the
    closed forms as exact rationals. Returns the full report on success and
    raises CertificationFailure (carrying the first mismatching level and the
    report) otherwise.
    """

    stats = enumerate_arrangements(ratio, limit)
    entries = tuple(
        CertificationEntry(
            hits=hits,
            expected_min=auc_min_exact(hits, ratio),
            actual_min=level.min_auc,
            expected_max=auc_max_exact(hits, ratio),
            actual_max=level.max_auc,
        )
        for hits, level in stats.per_hits.items()
    )
    report = CertificationReport(ratio=ratio, entries=entries, arrangements=stats.arrangements)
    if not report.ok:
        first = next(entry for entry in report.entries if not entry.ok)
        raise CertificationFailure(
            f"envelope mismatch at ratio {ratio.k1}:{ratio.k2}, hits {first.hits}: "
            f"expected [{first.expected_min}, {first.expected_max}], "
            f"enumerated [{first.actual_min}, {first.actual_max}]",
            hits=first.hits,
            expected=(first.expected_min, first.expected_max),
            actual=(first.actual_min, first.actual_max),
            report=report,
        )
    return report
