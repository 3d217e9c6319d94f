"""Counting arrangement oracle and envelope certification.

An arrangement places k1 positives among n = k1 + k2 ranked positions. Its
integer count of correctly ordered positive/negative pairs falls as the sum
of its positive positions grows. With h hits (positives in the top k1), h
positives fill the top block of k1 positions and k1 - h fill the bottom
block of k2. The Gaussian binomial [m choose j]_q counts the j-subsets of m
consecutive positions by how far their position sum exceeds the least one,
so a hit level's arrangements are counted by pair count with the product
[k1 choose h]_q * [k2 choose k1 - h]_q (the Mann-Whitney U null
distribution, split by hits). Summed over h this is [n choose k1]_q, the
q-Vandermonde identity. No arrangement is visited: each level's count is
the sum of its coefficients and its extremes are its lowest and highest
non-zero degrees. Only those extremes become exact rationals
(pairs / (k1*k2)); they then certify the closed-form envelopes by exact
equality, with no floating point anywhere in the comparison.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Mapping

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

#: Largest n = k1 + k2 counted by default; C(16, 8) = 12870 arrangements.
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


def _gaussian_rows(m: int, top: int) -> list[list[int]]:
    """Coefficients of [m choose j]_q for j = 0..min(top, m), one list per j.

    Coefficient d of row j counts the j-subsets of m positions whose sum
    exceeds the least, 0 + 1 + ... + (j-1), by d. Positions are added one at
    a time in front of the others: [m choose j]_q = [m-1 choose j-1]_q (the
    new position is taken) + q^j [m-1 choose j]_q (it is not, and each of the
    j taken positions moves down by one).
    """

    rows = [[1]]
    for size in range(1, m + 1):
        grown = [[1]]
        for j in range(1, min(top, size) + 1):
            taken = rows[j - 1]
            row = taken + [0] * (j * (size - j) + 1 - len(taken))
            if j < size:
                row[j:] = [a + b for a, b in zip(row[j:], rows[j])]
            grown.append(row)
        rows = grown
    return rows


def _convolve(left: list[int], right: list[int]) -> list[int]:
    """Coefficients of the product of two polynomials with non-negative
    integer coefficients.

    Kronecker substitution: each polynomial is evaluated at q = 256**width,
    with width bytes enough for any product coefficient (none exceeds the
    product of the two coefficient sums). One integer multiplication then
    forms the product, whose coefficients are read back width bytes apiece.
    """

    width = ((sum(left) * sum(right)).bit_length() + 7) // 8

    def evaluate(coefficients: list[int]) -> int:
        digits = b"".join(c.to_bytes(width, "little") for c in coefficients)
        return int.from_bytes(digits, "little")

    size = (len(left) + len(right) - 1) * width
    digits = (evaluate(left) * evaluate(right)).to_bytes(size, "little")
    return [int.from_bytes(digits[i:i + width], "little") for i in range(0, size, width)]


def _hit_levels(k1: int, k2: int) -> Iterator[tuple[int, int, list[int]]]:
    """Yield (hits, most, coefficients) for each feasible hit level.

    Coefficient d counts the level's arrangements with most - d correctly
    ordered pairs. The positive at 0-based position p_j is ordered above the
    n-1-p_j records after it, k1-1-j of them positives, so an arrangement has
    k1*(n-1) - k1*(k1-1)/2 - sum(p_j) such pairs. A level's least position
    sum puts its hits at 0..h-1 and its misses at k1..2*k1-h-1.
    """

    n = k1 + k2
    base = k1 * (n - 1) - k1 * (k1 - 1) // 2
    # Both blocks hold k1 - h misses: k1 - h negatives among the top k1
    # positions ([k1 choose h]_q = [k1 choose k1 - h]_q) and k1 - h
    # positives among the bottom k2.
    top_block = _gaussian_rows(k1, min(k1, k2))
    bottom_block = _gaussian_rows(k2, min(k1, k2))
    for hits in range(max(0, k1 - k2), k1 + 1):
        misses = k1 - hits
        least_sum = hits * (hits - 1) // 2 + misses * k1 + misses * (misses - 1) // 2
        yield hits, base - least_sum, _convolve(top_block[misses], bottom_block[misses])


def enumerate_arrangements(ratio: ClassRatio, limit: int = DEFAULT_LIMIT) -> ArrangementStats:
    """Count every placement of the positives by hit level and pair count.

    Each feasible hit level's arrangements are counted by pair count with a
    product of two Gaussian binomials (see the module docstring), built from
    their recurrence on every call. The level's count is the sum of the
    coefficients; its least and most pair counts come from its highest and
    lowest non-zero degree, and each becomes the exact rational AUC
    pairs / (k1*k2). Raises InstanceTooLarge when n exceeds ``limit``.
    """

    n = ratio.n
    if n > limit:
        raise InstanceTooLarge(f"n = {n} exceeds the enumeration limit {limit}")
    total = ratio.k1 * ratio.k2
    per_hits = {}
    for hits, most, coefficients in _hit_levels(ratio.k1, ratio.k2):
        degrees = [degree for degree, count in enumerate(coefficients) if count]
        per_hits[hits] = HitLevelStats(
            hits=hits,
            count=sum(coefficients),
            min_auc=Fraction(most - degrees[-1], total),
            max_auc=Fraction(most - degrees[0], total),
        )
    levels = per_hits.values()
    return ArrangementStats(
        ratio=ratio,
        per_hits=per_hits,
        min_auc=min(level.min_auc for level in levels),
        max_auc=max(level.max_auc for level in levels),
        arrangements=sum(level.count for level in levels),
    )


@dataclass(frozen=True)
class CertificationEntry:
    """One hit level's closed-form vs counted extremes, compared exactly."""

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
    """Prove the closed-form envelopes tight for one ratio by counting.

    For every feasible hit level the counted min/max AUC must equal the
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
