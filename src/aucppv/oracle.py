"""Counting arrangement oracle and envelope certification.

An arrangement places k1 positives among n = k1 + k2 ranked positions. The
base-rate cut with h hits (positives in the top k1) splits it into two
blocks: the top k1 positions hold h positives and k1 - h negatives, the
bottom k2 hold k1 - h positives and k2 - k1 + h negatives. Every pair of a
top positive and a bottom negative is correctly ordered,
B = h * (k2 - k1 + h) of them, and no pair of a bottom positive and a top
negative is; the pairs inside the blocks can be any number from none to
all. Inside a block of m positions holding j records of one class, the
Gaussian binomial [m choose j]_q counts the arrangements by their
correctly ordered pairs: it counts the j-subsets of m consecutive
positions by how far their position sum exceeds the least one, and it
reads the same at j and m - j. So a hit level's arrangements are counted
by pair count with q^B * [k1 choose k1 - h]_q * [k2 choose k1 - h]_q (the
Mann-Whitney U null distribution, split by block). Summed over h this is
[n choose k1]_q, the q-Vandermonde identity. No arrangement is visited.

The table keeps three integers per entry of each Gaussian binomial: its
count and its lowest and highest non-zero degrees, built row by row from
the recurrence for [m choose j]_q; no polynomial is built. A level is read
off its two factors, never multiplied out: its count is the product of
theirs and, as no coefficient is negative, its extreme degrees are the sums
of theirs. B plus those sums are the level's least and most correctly
ordered pairs; they certify the closed-form envelopes by integer equality
with the closed forms' numerators over k1*k2. One table, with rows up to
L - 1 and entries up to L // 2, serves every ratio with n <= L:
``certify_up_to`` builds it once per run, ``enumerate_arrangements`` one
for its own ratio. The extremes of [m choose j]_q are 0 and j*(m - j), so
past n of about 14 certification assumes the Gaussian-binomial
decomposition rather than checking it; only the test suite checks it,
against every arrangement and by the q-Vandermonde identity. A Fraction
(pairs / (k1*k2)) is built only when a level's AUC is read, or to report a
mismatch.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator, Mapping, NamedTuple, Sequence

from .envelopes import ClassRatio, _envelope_pairs
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

#: Most entries one table may hold, (top + 1) * (low + 1) for rows up to top
#: and entries up to low; refused before any row is built. Every limit up to
#: 209 fits, and every balanced ratio up to 147:147.
MAX_TABLE_ENTRIES = 209 * 105


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


def _triples(n: int, low: int) -> Iterator[list[tuple[int, int, int]]]:
    """Yield, for m = 0 .. n - 1, (count, lowest degree, highest degree) of
    [m choose j]_q for j <= min(m, low, n - m), by [m choose j]_q =
    [m-1 choose j-1]_q + q^j [m-1 choose j]_q: a position added in front of
    the others is taken, or it is not and the j taken ones each move down by
    one. The counts add; as no coefficient is negative, the lowest degree is
    the lesser of the terms' and the highest the greater. The second term is
    zero at j = m, past the end of row m - 1.
    """

    row = [(1, 0, 0)]
    yield row
    for size in range(1, n):
        prev = row + [None]
        row = [(1, 0, 0)]
        for j in range(1, min(size, low, n - size) + 1):
            taken, skipped = prev[j - 1], prev[j]
            if skipped is not None:
                taken = (taken[0] + skipped[0], min(taken[1], skipped[1] + j), max(taken[2], skipped[2] + j))
            row.append(taken)
        yield row


def _table(n: int, low: int, sizes: Sequence[int]) -> dict[int, list[tuple[int, int, int]]]:
    """Row m -> (count, lowest degree, highest degree) per entry, m in ``sizes``
    (ascending); no row past the last is built.

    It holds rows k1 and k2 of every ratio with k1 + k2 <= n and
    min(k1, k2) <= low.
    """

    top = sizes[-1]
    if (top + 1) * (low + 1) > MAX_TABLE_ENTRIES:
        raise InstanceTooLarge(
            f"n = {n} exceeds the work bound: its Gaussian-binomial table "
            f"may hold more than {MAX_TABLE_ENTRIES} entries"
        )
    return {size: row for size, row in zip(range(top + 1), _triples(n, low)) if size in sizes}


def _read_levels(ratio: ClassRatio, table: dict[int, list[tuple[int, int, int]]]) -> ArrangementStats:
    """Every feasible hit level of ``ratio``, read off its two factors.

    Level h is q^B * [k1 choose k1 - h]_q * [k2 choose k1 - h]_q: k1 - h
    negatives in the top block, k1 - h positives in the bottom one, and the
    B = h * (k2 - k1 + h) pairs of a hit and a bottom negative.
    """

    k1, k2 = ratio
    total = k1 * k2
    per_hits = {}
    for hits in range(max(0, k1 - k2), k1 + 1):
        misses = k1 - hits
        cross = hits * (k2 - misses)
        top_count, top_lowest, top_highest = table[k1][misses]
        bottom_count, bottom_lowest, bottom_highest = table[k2][misses]
        per_hits[hits] = HitLevelStats(
            hits,
            top_count * bottom_count,
            cross + top_lowest + bottom_lowest,
            cross + top_highest + bottom_highest,
            total,
        )
    return ArrangementStats(ratio, per_hits, sum(level.count for level in per_hits.values()))


def _certify(stats: ArrangementStats) -> ArrangementStats:
    """``stats``, once every level's extremes equal the closed forms."""

    ratio = stats.ratio
    for hits, level in stats.per_hits.items():
        expected = _envelope_pairs(hits, *ratio)
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
    (see the module docstring) in a table built for this ratio alone, with
    rows up to its larger class. Raises InstanceTooLarge when n exceeds
    ``limit`` or the work bound.
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
