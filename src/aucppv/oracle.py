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
q-Vandermonde identity. No arrangement is visited, and no polynomial is
held as a list of coefficients: each is one integer, the polynomial at
q = 2**width, so coefficient d sits in bits d*width .. (d+1)*width - 1. The
slot width, comb(n, k1).bit_length() + 1 bits, is fixed per ratio; no
coefficient exceeds C(n, k1), so no slot carries into the next. A level's
count, the sum of its coefficients, is its product's residue modulo
2**width - 1; its extremes, the highest and lowest non-zero degrees, come
from the product's bit length and its trailing zeros. Those extremes are
integer pair counts over the k1*k2 pairs; they certify the closed-form
envelopes by integer equality with the closed forms' numerators. A Fraction
(pairs / (k1*k2)) is built only when a level's AUC is read, or to report a
mismatch.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Iterator, Mapping

from .envelopes import ClassRatio, _exact_pairs
from .errors import CertificationFailure, InstanceTooLarge

__all__ = [
    "DEFAULT_LIMIT",
    "HitLevelStats",
    "ArrangementStats",
    "enumerate_arrangements",
    "certify_envelopes",
]

#: Largest n = k1 + k2 counted by default; C(16, 8) = 12870 arrangements.
DEFAULT_LIMIT = 16


@dataclass(frozen=True)
class HitLevelStats:
    """Extremes over arrangements with a fixed hit count at the cut.

    ``count`` arrangements have ``hits`` positives in the top k1; their
    least and most correctly ordered pairs are ``min_pairs`` and
    ``max_pairs`` out of ``total_pairs`` = k1*k2.
    """

    hits: int
    count: int
    min_pairs: int
    max_pairs: int
    total_pairs: int

    @property
    def min_auc(self) -> Fraction:
        return Fraction(self.min_pairs, self.total_pairs)

    @property
    def max_auc(self) -> Fraction:
        return Fraction(self.max_pairs, self.total_pairs)


@dataclass(frozen=True)
class ArrangementStats:
    """Exact per-hit-level AUC extremes over all C(n, k1) arrangements."""

    ratio: ClassRatio
    per_hits: Mapping[int, HitLevelStats]
    arrangements: int

    @property
    def min_auc(self) -> Fraction:
        return min(level.min_auc for level in self.per_hits.values())

    @property
    def max_auc(self) -> Fraction:
        return max(level.max_auc for level in self.per_hits.values())


def _hit_levels(k1: int, k2: int) -> Iterator[tuple[int, int, int, int]]:
    """Yield (hits, most, width, packed) for each feasible hit level.

    ``packed`` holds the level's polynomial with ``width`` bits per
    coefficient: bits d*width .. (d+1)*width - 1 count the level's
    arrangements with most - d correctly ordered pairs. The positive at
    0-based position p_j is ordered above the n-1-p_j records after it,
    k1-1-j of them positives, so an arrangement has
    k1*(n-1) - k1*(k1-1)/2 - sum(p_j) such pairs. A level's least position
    sum puts its hits at 0..h-1 and its misses at k1..2*k1-h-1.

    Coefficient d of [m choose j]_q counts the j-subsets of m positions
    whose sum exceeds the least, 0 + 1 + ... + (j-1), by d. Positions are
    added one at a time in front of the others: [m choose j]_q =
    [m-1 choose j-1]_q (the new position is taken) + q^j [m-1 choose j]_q
    (it is not, and each of the j taken positions moves down by one). With
    q = 2**width that is one shift and one add per row, and a level's
    product is one integer multiplication.
    """

    n = k1 + k2
    # Every coefficient of a row or a product is at most its coefficient
    # sum: C(m, j) <= C(n, j) <= C(n, k1) for a row (m <= max(k1, k2) and
    # j <= min(k1, k2), so k1 lies in j..n-j), the level's count <= C(n, k1)
    # for a product. C(n, k1) < 2**(width-1), so no slot carries into the
    # next, and a level's count stays below the modulus 2**width - 1 that
    # enumerate_arrangements reads it with; the + 1 is that margin.
    width = comb(n, k1).bit_length() + 1
    base = k1 * (n - 1) - k1 * (k1 - 1) // 2
    # Both blocks hold k1 - h misses: k1 - h negatives among the top k1
    # positions ([k1 choose h]_q = [k1 choose k1 - h]_q) and k1 - h
    # positives among the bottom k2. One build of the rows [size choose j]_q,
    # j <= min(k1, k2), passes through size k1 and size k2.
    low = min(k1, k2)
    rows = top = bottom = [1]
    for size in range(1, max(k1, k2) + 1):
        prev = rows + [0]
        rows = [1] + [prev[j - 1] + (prev[j] << j * width) for j in range(1, min(size, low) + 1)]
        if size == k1:
            top = rows
        if size == k2:
            bottom = rows
    for hits in range(max(0, k1 - k2), k1 + 1):
        misses = k1 - hits
        least_sum = hits * (hits - 1) // 2 + misses * k1 + misses * (misses - 1) // 2
        yield hits, base - least_sum, width, top[misses] * bottom[misses]


def enumerate_arrangements(ratio: ClassRatio, limit: int = DEFAULT_LIMIT) -> ArrangementStats:
    """Count every placement of the positives by hit level and pair count.

    Each feasible hit level's arrangements are counted by pair count with a
    product of two Gaussian binomials (see the module docstring), built from
    their recurrence on every call and held as one packed integer, ``width``
    bits per coefficient. Three integer operations read the level off it.
    Its count, the sum of the coefficients, is the residue modulo
    2**width - 1, since 2**width is 1 modulo 2**width - 1 and the sum stays
    below the modulus. Its highest non-zero degree (the least pair count)
    comes from the bit length and its lowest (the most pair count) from the
    trailing zeros. Raises InstanceTooLarge when n exceeds ``limit``.
    """

    n = ratio.n
    if n > limit:
        raise InstanceTooLarge(f"n = {n} exceeds the enumeration limit {limit}")
    total = ratio.k1 * ratio.k2
    per_hits = {}
    for hits, most, width, packed in _hit_levels(ratio.k1, ratio.k2):
        per_hits[hits] = HitLevelStats(
            hits=hits,
            count=packed % ((1 << width) - 1),
            min_pairs=most - (packed.bit_length() - 1) // width,
            max_pairs=most - ((packed & -packed).bit_length() - 1) // width,
            total_pairs=total,
        )
    return ArrangementStats(
        ratio=ratio,
        per_hits=per_hits,
        arrangements=sum(level.count for level in per_hits.values()),
    )


def certify_envelopes(ratio: ClassRatio, limit: int = DEFAULT_LIMIT) -> ArrangementStats:
    """Prove the closed-form envelopes tight for one ratio by counting.

    For every feasible hit level the counted least and most pair counts must
    equal the closed forms' integer numerators over k1*k2. Returns the
    counted stats on success and raises CertificationFailure (carrying the
    first mismatching level as exact rationals, and the stats) otherwise.
    """

    stats = enumerate_arrangements(ratio, limit)
    for hits, level in stats.per_hits.items():
        expected = _exact_pairs(hits, ratio)
        if (level.min_pairs, level.max_pairs) != expected:
            lo, hi = (Fraction(pairs, level.total_pairs) for pairs in expected)
            raise CertificationFailure(
                f"envelope mismatch at ratio {ratio.k1}:{ratio.k2}, hits {hits}: "
                f"expected [{lo}, {hi}], enumerated [{level.min_auc}, {level.max_auc}]",
                hits=hits,
                expected=(lo, hi),
                actual=(level.min_auc, level.max_auc),
                report=stats,
            )
    return stats
