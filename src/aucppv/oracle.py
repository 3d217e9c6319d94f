"""Counting arrangement oracle and envelope certification.

An arrangement places k1 positives among n = k1 + k2 ranked positions. Its
integer count of correctly ordered positive/negative pairs falls by one for
each step its positives' position sum grows. With h hits (positives in the
top k1), h positives fill the top block of k1 positions and k1 - h fill the
bottom block of k2. The Gaussian binomial [m choose j]_q counts the
j-subsets of m consecutive positions by how far their position sum exceeds
the least one, so a hit level's arrangements are counted by pair count with
the product [k1 choose h]_q * [k2 choose k1 - h]_q (the Mann-Whitney U null
distribution, split by hits). Summed over h this is [n choose k1]_q, the
q-Vandermonde identity. No arrangement is visited.

Each Gaussian binomial is built as one integer, the polynomial at
q = 2**width: coefficient d sits in bits d*width .. (d+1)*width - 1. The
rows stream past, and the table keeps three integers per entry: its count
(its residue modulo 2**width - 1) and its lowest and highest non-zero
degrees (from its trailing zeros and bit length). A level is read off its
two factors, never multiplied out: its count is the product of theirs and,
as no coefficient is negative, its extreme degrees are the sums of theirs.
Those extremes are the level's most and least correctly ordered pairs; they
certify the closed-form envelopes by integer equality with the closed
forms' numerators over k1*k2. The extremes of [m choose j]_q are 0 and
j*(m - j), so past n of about 14 this checks the Gaussian-binomial
decomposition, not each arrangement. One table, at the slot width of
n = L, serves every ratio with n <= L: ``certify_up_to`` builds it once per
run, ``enumerate_arrangements`` one for its own ratio. A Fraction
(pairs / (k1*k2)) is built only when a level's AUC is read, or to report a
mismatch.
"""

from __future__ import annotations

from math import comb
from typing import TYPE_CHECKING, Iterator, Mapping, NamedTuple, Sequence

from .envelopes import ClassRatio, _exact_pairs
from .errors import AucppvError, CertificationFailure, InstanceTooLarge

if TYPE_CHECKING:
    from fractions import Fraction

__all__ = [
    "DEFAULT_LIMIT",
    "HitLevelStats",
    "ArrangementStats",
    "enumerate_arrangements",
    "certify_envelopes",
    "certify_up_to",
]

#: Largest n = k1 + k2 counted by default; C(16, 8) = 12870 arrangements.
DEFAULT_LIMIT = 16

#: Most bits the rows of one table may hold, by _table_bits; refused before
#: any row is built. Every limit up to 209 fits, and every balanced ratio up to
#: 137:137.
MAX_TABLE_BITS = 2**32


class HitLevelStats(NamedTuple):
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
        from fractions import Fraction

        return Fraction(self.min_pairs, self.total_pairs)

    @property
    def max_auc(self) -> Fraction:
        from fractions import Fraction

        return Fraction(self.max_pairs, self.total_pairs)


class ArrangementStats(NamedTuple):
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


def _table_bits(n: int, low: int, top: int) -> int:
    """Upper bound, in O(1) integer operations, on the bits rows 0 .. top of
    _rows(n, low, width) hold. Rows m = j .. min(top, n - j) hold entry j, of
    j*(m - j) + 1 slots: at most j*(t + 1)**2/2 + a slots in all, t the
    smaller of top - j and n - 2j and a = n + 1. Summed over j <= low in
    closed form with t + 1 taken as n + 1 - 2j, or as top + 1 - j, whichever
    total is smaller. A slot is width <= a bits, as C(n, low) < 2**n."""

    a, b = n + 1, top + 1
    sum_j = low * (low + 1) // 2
    sum_j2 = sum_j * (2 * low + 1) // 3
    sum_j3 = sum_j * sum_j
    squares = min(a * a * sum_j - 4 * a * sum_j2 + 4 * sum_j3, b * b * sum_j - 2 * b * sum_j2 + sum_j3)
    return a * (squares // 2 + (low + 1) * a)


def _rows(n: int, low: int, width: int) -> Iterator[list[int]]:
    """Yield, for m = 0 .. n - 1, [m choose j]_q packed for j <= min(m, low, n - m).

    Coefficient d of [m choose j]_q counts the j-subsets of m positions
    whose sum exceeds the least, 0 + 1 + ... + (j-1), by d. Positions are
    added one at a time in front of the others: [m choose j]_q =
    [m-1 choose j-1]_q (the new position is taken) + q^j [m-1 choose j]_q
    (it is not, and each of the j taken positions moves down by one). With
    q = 2**width that is one shift and one add per entry.
    """

    row = [1]
    yield row
    for size in range(1, n):
        prev = row + [0]
        row = [1] + [prev[j - 1] + (prev[j] << j * width) for j in range(1, min(size, low, n - size) + 1)]
        yield row


def _table(n: int, low: int, sizes: Sequence[int]) -> dict[int, list[tuple[int, int, int]]]:
    """Row m -> (count, lowest degree, highest degree) per entry, m in ``sizes``
    (ascending); no row past the last is built.

    It holds rows k1 and k2 of every ratio with k1 + k2 <= n and
    min(k1, k2) <= low. A coefficient is at most its entry's count
    C(m, j) <= C(n, low) < 2**(width - 1), so no slot carries into the next
    and the count is the entry's residue modulo 2**width - 1.
    """

    top = sizes[-1]
    if _table_bits(n, low, top) > MAX_TABLE_BITS:
        raise InstanceTooLarge(
            f"n = {n} exceeds the work bound: its Gaussian-binomial table "
            f"may pass {MAX_TABLE_BITS} bits"
        )
    width = comb(n, low).bit_length() + 1
    modulus = (1 << width) - 1
    return {
        size: [
            (packed % modulus, ((packed & -packed).bit_length() - 1) // width, (packed.bit_length() - 1) // width)
            for packed in row
        ]
        for size, row in zip(range(top + 1), _rows(n, low, width))
        if size in sizes
    }


def _read_levels(ratio: ClassRatio, table: dict[int, list[tuple[int, int, int]]]) -> ArrangementStats:
    """Every feasible hit level of ``ratio``, read off its two factors.

    Level h is [k1 choose k1 - h]_q * [k2 choose k1 - h]_q: k1 - h negatives
    in the top block and k1 - h positives in the bottom one. Degree 0 puts
    the hits on top and those positives right below the cut, each under each
    of those negatives: k1*k2 - (k1 - h)**2 pairs, and degree d has d fewer.
    """

    k1, k2 = ratio
    total = k1 * k2
    per_hits = {}
    for hits in range(max(0, k1 - k2), k1 + 1):
        misses = k1 - hits
        most = total - misses * misses
        top_count, top_lowest, top_highest = table[k1][misses]
        bottom_count, bottom_lowest, bottom_highest = table[k2][misses]
        per_hits[hits] = HitLevelStats(
            hits,
            top_count * bottom_count,
            most - top_highest - bottom_highest,
            most - top_lowest - bottom_lowest,
            total,
        )
    return ArrangementStats(ratio, per_hits, sum(level.count for level in per_hits.values()))


def _certify(stats: ArrangementStats) -> ArrangementStats:
    """``stats``, once every level's extremes equal the closed forms."""

    ratio = stats.ratio
    for hits, level in stats.per_hits.items():
        expected = _exact_pairs(hits, ratio)
        if (level.min_pairs, level.max_pairs) != expected:
            from fractions import Fraction

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


def enumerate_arrangements(ratio: ClassRatio, limit: int = DEFAULT_LIMIT) -> ArrangementStats:
    """Count every placement of the positives by hit level and pair count.

    Each feasible hit level is read off its two Gaussian-binomial factors
    (see the module docstring) in a table built for this ratio alone, at
    its own slot width comb(n, k1).bit_length() + 1. Raises
    InstanceTooLarge when n exceeds ``limit`` or the work bound.
    """

    k1, k2 = ratio
    if k1 + k2 > limit:
        raise InstanceTooLarge(f"n = {k1 + k2} exceeds the enumeration limit {limit}")
    low, top = sorted(ratio)
    return _read_levels(ratio, _table(k1 + k2, low, (low, top)))


def certify_envelopes(ratio: ClassRatio, limit: int = DEFAULT_LIMIT) -> ArrangementStats:
    """Prove the closed-form envelopes tight for one ratio by counting.

    For every feasible hit level the counted least and most pair counts must
    equal the closed forms' integer numerators over k1*k2. Returns the
    counted stats on success and raises CertificationFailure (carrying the
    first mismatching level as exact rationals, and the stats) otherwise.
    """

    return _certify(enumerate_arrangements(ratio, limit))


def certify_up_to(limit: int) -> Iterator[ArrangementStats]:
    """Certify every ratio with k1 + k2 <= ``limit`` through one table.

    Builds the table before returning, then yields each ratio's stats, by n
    and then k1, as certify_envelopes returns them. Raises AucppvError below
    2, InstanceTooLarge past the work bound and CertificationFailure at the
    first mismatching level.
    """

    if limit < 2:
        raise AucppvError("limit must be at least 2 (one record per class)")
    table = _table(limit, limit // 2, range(1, limit))
    return (
        _certify(_read_levels(ClassRatio(k1, n - k1), table))
        for n in range(2, limit + 1)
        for k1 in range(1, n)
    )
