"""Arrangement counting oracle and envelope certification."""

from __future__ import annotations

import fractions
import itertools
import math
import random
from fractions import Fraction

import pytest

from aucppv import (
    ClassRatio,
    auc_pairwise,
    certify_envelopes,
    enumerate_arrangements,
)
from aucppv.errors import CertificationFailure, InstanceTooLarge
from aucppv.oracle import certify_up_to
import aucppv.oracle
from conftest import (
    enumerate_by_combinations,
    exact_auc,
    pairwise_per_hits,
    ranking_from_pattern,
    unpack_slots,
)


def test_two_record_enumeration():
    stats = enumerate_arrangements(ClassRatio(1, 1))
    assert stats.arrangements == 2
    assert set(stats.per_hits) == {0, 1}
    assert stats.per_hits[1].min_auc == Fraction(1)
    assert stats.per_hits[1].max_auc == Fraction(1)
    assert stats.per_hits[0].min_auc == Fraction(0)
    assert stats.per_hits[0].max_auc == Fraction(0)
    assert stats.min_auc == 0
    assert stats.max_auc == 1


def test_two_two_enumeration():
    stats = enumerate_arrangements(ClassRatio(2, 2))
    assert stats.arrangements == math.comb(4, 2)
    assert stats.per_hits[1].min_auc == Fraction(1, 4)
    assert stats.per_hits[1].max_auc == Fraction(3, 4)
    assert stats.per_hits[1].count == 4
    assert stats.per_hits[0].count == 1
    assert stats.per_hits[2].count == 1


def test_three_four_contains_worked_example():
    stats = enumerate_arrangements(ClassRatio(3, 4))
    assert stats.arrangements == math.comb(7, 3)
    level = stats.per_hits[2]
    # The worked-example arrangement has 2 hits and AUC 7/12; the level's
    # extremes are the closed forms 1/2 and 11/12 and must bracket it.
    assert level.min_auc == Fraction(1, 2)
    assert level.max_auc == Fraction(11, 12)
    assert level.min_auc <= Fraction(7, 12) <= level.max_auc


def test_per_level_counts_sum_to_binomial():
    for k1, k2 in [(1, 5), (2, 4), (3, 3), (4, 2), (3, 5)]:
        stats = enumerate_arrangements(ClassRatio(k1, k2))
        n = k1 + k2
        assert stats.arrangements == math.comb(n, k1)
        assert sum(level.count for level in stats.per_hits.values()) == math.comb(n, k1)
        # Hits levels follow the hypergeometric support.
        low = max(0, k1 - k2)
        assert set(stats.per_hits) == set(range(low, k1 + 1))
        for hits, level in stats.per_hits.items():
            assert level.count == math.comb(k1, hits) * math.comb(k2, k1 - hits)


def test_enumeration_matches_pairwise_auc_on_realizations():
    # Realize random arrangements as rankings with distinct scores and
    # compare the oracle's exact rational with the production AUC.
    rng = random.Random(53)
    for _ in range(30):
        k1 = rng.randint(1, 5)
        k2 = rng.randint(1, 6)
        stats = enumerate_arrangements(ClassRatio(k1, k2))
        pattern = ["N"] * (k1 + k2)
        for p in rng.sample(range(k1 + k2), k1):
            pattern[p] = "P"
        ranking = ranking_from_pattern("".join(pattern))
        value = exact_auc(ranking)
        result = auc_pairwise(ranking)
        assert result.value == float(value)
        hits = sum(1 for ch in pattern[:k1] if ch == "P")
        level = stats.per_hits[hits]
        assert level.min_auc <= value <= level.max_auc


def test_enumeration_matches_pairwise_reference_up_to_ten():
    # Every ratio with n <= 10: counts and exact extremes per hit level agree
    # with a reference that compares each positive with each negative.
    for n in range(2, 11):
        for k1 in range(1, n):
            stats = enumerate_arrangements(ClassRatio(k1, n - k1))
            reference = pairwise_per_hits(k1, n - k1)
            assert {
                hits: (level.count, level.min_auc, level.max_auc)
                for hits, level in stats.per_hits.items()
            } == reference
            assert list(stats.per_hits) == sorted(reference)
            assert stats.min_auc == min(lo for _, lo, _ in reference.values())
            assert stats.max_auc == max(hi for _, _, hi in reference.values())


def _level_distributions(k1: int, k2: int) -> dict[int, dict[int, int]]:
    """hits -> {correctly ordered pairs: arrangements}, unpacked from the
    product of each level's two packed Gaussian-binomial factors, taken from
    the counting oracle's rows: [k1 choose k1 - h]_q * [k2 choose k1 - h]_q.

    Degree d of a level's product counts its arrangements whose positive
    position sum exceeds the least by d. The positive at 0-based position p
    is ordered above the n-1-p records after it, k1-1-j of them positives
    for the j-th positive, so an arrangement has
    k1*(n-1) - k1*(k1-1)/2 - sum(p) correctly ordered pairs; the least sum
    puts the hits at 0..h-1 and the misses at k1..2*k1-h-1."""
    n = k1 + k2
    width = math.comb(n, k1).bit_length() + 1
    rows = list(aucppv.oracle._rows(n, min(k1, k2), width))
    base = k1 * (n - 1) - k1 * (k1 - 1) // 2
    distributions = {}
    for hits in range(max(0, k1 - k2), k1 + 1):
        misses = k1 - hits
        least_sum = hits * (hits - 1) // 2 + misses * k1 + misses * (misses - 1) // 2
        packed = rows[k1][misses] * rows[k2][misses]
        distributions[hits] = {
            base - least_sum - degree: count
            for degree, count in enumerate(unpack_slots(packed, width))
            if count
        }
    return distributions


def test_counting_matches_enumeration_up_to_fourteen():
    # Every ratio with n <= 14: each hit level's whole pair-count distribution
    # equals the one found by visiting every arrangement, and the public
    # count and extremes follow from it.
    for n in range(2, 15):
        for k1 in range(1, n):
            k2 = n - k1
            reference = enumerate_by_combinations(k1, k2)
            assert _level_distributions(k1, k2) == reference
            stats = enumerate_arrangements(ClassRatio(k1, k2))
            assert {
                hits: (level.count, level.min_auc, level.max_auc)
                for hits, level in stats.per_hits.items()
            } == {
                hits: (sum(level.values()), Fraction(min(level), k1 * k2), Fraction(max(level), k1 * k2))
                for hits, level in reference.items()
            }


def test_counting_past_sixteen_without_enumeration():
    # Every ratio with n <= 40, C(40, 20) ~ 1.4e11 arrangements at the widest.
    # Each level counts its hypergeometric share, and the levels together
    # give the pair counts of all k1-subsets of n positions, [n choose k1]_q
    # (the q-Vandermonde identity). That whole distribution comes from a
    # subset-sum DP over positions: sums[j][s] counts the j-subsets of the
    # positions seen so far whose sum is s.
    sums = [[1]]
    for n in range(1, 41):
        added = n - 1
        sums.append([0])
        for j in range(n, 0, -1):
            grown = sums[j] + [0] * (len(sums[j - 1]) + added - len(sums[j]))
            for s, count in enumerate(sums[j - 1]):
                grown[s + added] += count
            sums[j] = grown
        for k1 in range(1, n):
            k2 = n - k1
            stats = enumerate_arrangements(ClassRatio(k1, k2), limit=40)
            assert {hits: level.count for hits, level in stats.per_hits.items()} == {
                hits: math.comb(k1, hits) * math.comb(k2, k1 - hits)
                for hits in range(max(0, k1 - k2), k1 + 1)
            }
            assert stats.arrangements == math.comb(n, k1)
            whole: dict[int, int] = {}
            for level in _level_distributions(k1, k2).values():
                for pairs, count in level.items():
                    whole[pairs] = whole.get(pairs, 0) + count
            # n-1-p records sit below the positive at 0-based position p;
            # over all positives that counts every pair of a positive above
            # a negative plus the k1*(k1-1)/2 pairs of positives.
            base = k1 * (n - 1) - k1 * (k1 - 1) // 2
            assert whole == {base - s: count for s, count in enumerate(sums[k1]) if count}


def test_certification_far_past_sixteen(monkeypatch):
    # Every ratio with n <= 60, C(60, 30) ~ 1.2e17 arrangements at the widest:
    # the closed forms hold at every level, and each level's count, read from
    # the stats that certification itself counted, is its hypergeometric share.
    counted = []

    def recording(ratio, limit):
        counted.append(enumerate_arrangements(ratio, limit))
        return counted[-1]

    monkeypatch.setattr(aucppv.oracle, "enumerate_arrangements", recording)
    for n in range(2, 61):
        for k1 in range(1, n):
            k2 = n - k1
            stats = certify_envelopes(ClassRatio(k1, k2), limit=60)
            assert stats.arrangements == math.comb(n, k1)
            assert {hits: level.count for hits, level in counted.pop().per_hits.items()} == {
                hits: math.comb(k1, hits) * math.comb(k2, k1 - hits)
                for hits in range(max(0, k1 - k2), k1 + 1)
            }


def test_limit_enforced():
    with pytest.raises(InstanceTooLarge):
        enumerate_arrangements(ClassRatio(9, 8))
    # Raising the limit admits the instance.
    stats = enumerate_arrangements(ClassRatio(9, 8), limit=17)
    assert stats.arrangements == math.comb(17, 9)


def test_work_bound_refuses_before_building(monkeypatch):
    # Past the work bound no row is built, however high the limit.
    def no_rows(*args):
        raise AssertionError("a row was built")

    monkeypatch.setattr(aucppv.oracle, "_rows", no_rows)
    with pytest.raises(InstanceTooLarge, match="work bound"):
        enumerate_arrangements(ClassRatio(150, 150), limit=300)
    with pytest.raises(InstanceTooLarge, match="work bound"):
        enumerate_arrangements(ClassRatio(10**9, 10**9), limit=10**10)
    with pytest.raises(InstanceTooLarge, match="work bound"):
        certify_up_to(10**9)
    # The README's figure: limits up to 209 fit the bound. A single ratio
    # builds rows only up to its larger class: 137:137 fits, 150:150 not.
    bits, most = aucppv.oracle._table_bits, aucppv.oracle.MAX_TABLE_BITS
    assert bits(209, 104, 208) <= most < bits(210, 105, 209)
    assert bits(274, 137, 137) <= most < bits(300, 150, 150)


def test_work_bound_covers_every_row_built():
    # For every ratio with n <= 40, on its own table (rows up to its larger
    # class) and on the shared table of a run (every row), the bound never
    # reads below the bits of the rows built, nor below their slots at the
    # widest slot of n + 1 bits.
    for n in range(2, 41):
        for low in range(1, n // 2 + 1):
            width = math.comb(n, low).bit_length() + 1
            for top in (n - low, n - 1):
                built = list(itertools.islice(aucppv.oracle._rows(n, low, width), top + 1))
                bits = sum(entry.bit_length() for row in built for entry in row)
                slots = sum((entry.bit_length() - 1) // width + 1 for row in built for entry in row)
                bound = aucppv.oracle._table_bits(n, low, top)
                assert bits <= bound and slots * (n + 1) <= bound


def test_shared_table_matches_per_ratio_certification():
    # Every ratio with n <= 30, read through the one table of a run, has the
    # same levels, counts and extremes as certifying it on its own table.
    shared = list(certify_up_to(30))
    assert [stats.ratio for stats in shared] == [
        ClassRatio(k1, n - k1) for n in range(2, 31) for k1 in range(1, n)
    ]
    for stats in shared:
        assert stats == certify_envelopes(stats.ratio, limit=30)


def test_certification_passes_small_ratios():
    for n in range(2, 13):
        for k1 in range(1, n):
            stats = certify_envelopes(ClassRatio(k1, n - k1))
            assert stats.arrangements == math.comb(n, k1)


def test_certification_builds_no_fraction(monkeypatch):
    # Every ratio with n <= 16: both sides of each comparison are integer
    # pair counts, so a passing certification never builds a Fraction. The
    # oracle imports Fraction where it builds one, so it reads this patch.
    def no_fraction(*args):
        raise AssertionError("certification built a Fraction")

    monkeypatch.setattr(fractions, "Fraction", no_fraction)
    for n in range(2, 17):
        for k1 in range(1, n):
            stats = certify_envelopes(ClassRatio(k1, n - k1))
            assert stats.arrangements == math.comb(n, k1)


def test_certification_swapped_ratio_grid():
    # k1 > k2: feasible hit levels start at k1 - k2 and the closed forms are
    # evaluated through the class swap.
    stats = certify_envelopes(ClassRatio(4, 3))
    assert list(stats.per_hits) == [1, 2, 3, 4]


def test_certification_failure_reports_level(monkeypatch):
    # Sabotage the closed forms' least pair count and make sure the mismatch
    # is caught, attributed to a hit level, and carries the counted stats.
    exact_pairs = aucppv.oracle._exact_pairs

    def wrong_min(hits, ratio):
        return 0, exact_pairs(hits, ratio)[1]

    monkeypatch.setattr(aucppv.oracle, "_exact_pairs", wrong_min)
    with pytest.raises(CertificationFailure) as excinfo:
        certify_envelopes(ClassRatio(2, 2))
    failure = excinfo.value
    assert failure.hits == 1
    assert failure.expected == (Fraction(0), Fraction(3, 4))
    assert failure.actual == (Fraction(1, 4), Fraction(3, 4))
    level = failure.report.per_hits[1]
    assert (level.min_auc, level.max_auc) == (Fraction(1, 4), Fraction(3, 4))
