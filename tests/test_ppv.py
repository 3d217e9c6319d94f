"""PPV at a cut, the base-rate cut, and the class-swap translation."""

from __future__ import annotations

import math
import random

import pytest

from aucppv import (
    ClassRatio,
    ScoredRecord,
    TiePolicy,
    auc_max_given_ppvk,
    auc_min_given_ppvk,
    build_ranking,
    ppv_at_k,
    ppv_base_rate,
    ppv_swap,
    reverse_classifier,
)
from aucppv.errors import CutOutOfRange, EmptyPositiveClass, InconsistentInput, NonIntegralHits
from aucppv.ppv import PpvResult, expected_hits_at_k, hits_from_ppv, hits_range_at_k
from conftest import (
    WORKED_EXAMPLE,
    all_arrangements,
    exact_hits,
    random_ranking,
    ranking_from_pattern,
)


def test_worked_example_top_three():
    ranking = ranking_from_pattern(WORKED_EXAMPLE)
    result = ppv_at_k(ranking, 3)
    assert result == PpvResult(k=3, hits=2)
    assert ppv_base_rate(ranking) == result


def test_full_cut_is_prevalence():
    ranking = ranking_from_pattern(WORKED_EXAMPLE)
    assert ppv_at_k(ranking, 7).value == 3 / 7


def test_perfect_and_antisorted_extremes():
    perfect = ranking_from_pattern("PPPNNNN")
    assert ppv_base_rate(perfect).value == 1.0
    # Anti-sorted with k1 <= k2: the top k1 records are all negatives.
    anti = ranking_from_pattern("NNNNPPP")
    assert ppv_base_rate(anti).value == 0.0


@pytest.mark.parametrize("k", [0, 8, -1, 2.0, 1.5, "2", True])
def test_cut_out_of_range(k):
    # A cut that is not an integer is out of range too; ppv_at_k used to
    # return PpvResult(k=2.0, hits=1) for 2.0 and PpvResult(k=True, hits=1)
    # for True.
    ranking = ranking_from_pattern(WORKED_EXAMPLE)
    for measure in (ppv_at_k, hits_range_at_k, expected_hits_at_k):
        with pytest.raises(CutOutOfRange):
            measure(ranking, k)


def test_base_rate_needs_positives():
    ranking = ranking_from_pattern("NNN")
    with pytest.raises(EmptyPositiveClass):
        ppv_base_rate(ranking)


def test_hits_from_ppv_roundtrip_and_rejection():
    assert hits_from_ppv(2 / 3, 3) == 2
    assert hits_from_ppv(0.0, 5) == 0
    assert hits_from_ppv(1.0, 5) == 5
    with pytest.raises(InconsistentInput):
        hits_from_ppv(0.5, 3)
    with pytest.raises(InconsistentInput):
        hits_from_ppv(1.5, 2)
    with pytest.raises(ValueError, match="cut k must be at least 1"):
        hits_from_ppv(0.5, 0)
    # A cut that is not an integer: 0.4 = 1 / 2.5 used to give 1 hit.
    with pytest.raises(TypeError):
        hits_from_ppv(0.4, 2.5)
    # A bool is not a cut or a class size: both used to pass as 1.
    with pytest.raises(TypeError):
        hits_from_ppv(1.0, True)
    with pytest.raises(TypeError):
        ppv_swap(1.0, True, 3)
    # NaN, an infinity, or a product ppv * k that overflows to one: the hit
    # count is not rounded from them, and every caller sees the typed error.
    for ppv, k in [(math.nan, 5), (math.inf, 5), (-math.inf, 5), (1e308, 10**10)]:
        with pytest.raises(NonIntegralHits):
            hits_from_ppv(ppv, k)
    with pytest.raises(NonIntegralHits):
        auc_min_given_ppvk(math.nan, ClassRatio(5, 7))
    with pytest.raises(NonIntegralHits):
        auc_max_given_ppvk(math.inf, ClassRatio(5, 7))
    with pytest.raises(NonIntegralHits):
        ppv_swap(1e308, 10**10, 10**10)


def test_hits_from_ppv_takes_only_the_float_of_a_hit_count():
    # 0.1 + 0.2 is the float after 0.3 = 3 / 10: near a hit count, not one.
    assert hits_from_ppv(0.3, 10) == 3
    with pytest.raises(NonIntegralHits):
        hits_from_ppv(0.1 + 0.2, 10)
    with pytest.raises(NonIntegralHits):
        ppv_swap(0.1 + 0.2, 10, 12)


def test_hits_and_swap_at_a_hundred_million():
    # h / k at k = 1e8 drifts more than 1e-9 from h once multiplied back by
    # k; the hit count must still be recovered exactly.
    k1, k2 = 10**8, 123_456_789
    for hits in range(0, k1 + 1, 50_000):
        assert hits_from_ppv(hits / k1, k1) == hits
        assert ppv_swap(hits / k1, k1, k2) == (k2 - k1 + hits) / k2


def test_swap_worked_example():
    # 2 hits of 3 at the base-rate cut become 4 - 3 + 2 = 3 hits of 4.
    assert ppv_swap(2 / 3, 3, 4) == 3 / 4


def test_swap_fixed_points():
    assert ppv_swap(1.0, 3, 4) == 1.0
    assert ppv_swap(1.0, 4, 3) == 1.0
    # Symmetric classes: the swap is the identity.
    for hits in range(6):
        assert ppv_swap(hits / 5, 5, 5) == hits / 5


def test_swap_rejects_impossible_inputs():
    with pytest.raises(InconsistentInput):
        ppv_swap(0.5, 3, 4)
    # 0 hits of 4 against a single negative: the bottom cut of size 1
    # would need -3 negatives.
    with pytest.raises(InconsistentInput):
        ppv_swap(0.0, 4, 1)
    with pytest.raises(ValueError):
        ppv_swap(0.5, 0, 2)
    # Class sizes follow ClassRatio's rule; 2.5 positives used to give 0.5.
    with pytest.raises(TypeError):
        ppv_swap(0.4, 2.5, 3)


def test_swap_roundtrip_exhaustive():
    # Every arrangement with n <= 10: translating the base-rate PPV equals
    # evaluating the reversed classifier, bit for bit.
    for n in range(2, 11):
        for k1 in range(1, n):
            for pattern in all_arrangements(k1, n - k1):
                ranking = ranking_from_pattern(pattern)
                swapped = ppv_swap(ppv_base_rate(ranking).value, k1, n - k1)
                reversed_value = ppv_base_rate(reverse_classifier(ranking)).value
                assert swapped == reversed_value


def test_ppv_swap_is_its_own_inverse_with_the_classes_exchanged():
    # The reversed classifier holds k2 - (k1 - h) hits at its cut k2.
    for k1 in range(1, 8):
        for k2 in range(1, 8):
            for hits in range(max(0, k1 - k2), k1 + 1):
                assert ppv_swap(hits / k1, k1, k2) == (k2 - k1 + hits) / k2
                assert ppv_swap(ppv_swap(hits / k1, k1, k2), k2, k1) == hits / k1
            for hits in (k1 - k2 - 1, k1 + 1):
                with pytest.raises(InconsistentInput):
                    ppv_swap(hits / k1, k1, k2)


def test_swap_roundtrip_random():
    rng = random.Random(29)
    for _ in range(200):
        ranking = random_ranking(rng, rng.randint(2, 400), with_ties=True)
        swapped = ppv_swap(ppv_base_rate(ranking).value, ranking.k1, ranking.k2)
        assert swapped == ppv_base_rate(reverse_classifier(ranking)).value


def test_double_swap_is_identity():
    rng = random.Random(31)
    for _ in range(100):
        ranking = random_ranking(rng, rng.randint(2, 100), with_ties=False)
        value = ppv_base_rate(ranking).value
        back = ppv_swap(ppv_swap(value, ranking.k1, ranking.k2), ranking.k2, ranking.k1)
        assert back == value


def test_prevalence_identity_property():
    rng = random.Random(37)
    for _ in range(100):
        ranking = random_ranking(rng, rng.randint(2, 200), with_ties=True)
        result = ppv_at_k(ranking, ranking.n)
        assert result.hits == ranking.k1
        assert result.value == ranking.k1 / ranking.n


def test_hits_invariant_under_intra_segment_permutations():
    # Reordering records strictly inside ranks 1..k, or strictly inside
    # ranks k+1..n, never changes the hit count at k.
    rng = random.Random(41)
    for _ in range(50):
        ranking = random_ranking(rng, rng.randint(4, 60), with_ties=False)
        k = rng.randint(1, ranking.n - 1)
        baseline = ppv_at_k(ranking, k).hits
        top = list(ranking.items[:k])
        bottom = list(ranking.items[k:])
        rng.shuffle(top)
        rng.shuffle(bottom)
        n = ranking.n
        reordered = [
            ScoredRecord(rec.id, float(n - i), rec.positive)
            for i, rec in enumerate(top + bottom)
        ]
        permuted = build_ranking(reordered)
        assert ppv_at_k(permuted, k).hits == baseline


def test_expected_hits_without_boundary_tie():
    ranking = ranking_from_pattern(WORKED_EXAMPLE)
    for k in range(1, ranking.n + 1):
        assert expected_hits_at_k(ranking, k) == exact_hits(ranking, k)


def test_expected_hits_two_way_tie():
    records = [
        ScoredRecord("a", 0.5, True),
        ScoredRecord("b", 0.5, False),
    ]
    ranking = build_ranking(records)
    assert expected_hits_at_k(ranking, 1) == 0.5


def test_expected_hits_hypergeometric_group():
    # Two positives in a four-way tie straddled by a cut taking two slots:
    # expectation is 1 + 2*2/4 = 2.
    records = [
        ScoredRecord("top", 2.0, True),
        ScoredRecord("t1", 1.0, True),
        ScoredRecord("t2", 1.0, True),
        ScoredRecord("t3", 1.0, False),
        ScoredRecord("t4", 1.0, False),
        ScoredRecord("low", 0.0, False),
    ]
    ranking = build_ranking(records)
    assert expected_hits_at_k(ranking, 3) == 2.0
    assert expected_hits_at_k(ranking, 1) == 1.0
    assert expected_hits_at_k(ranking, 6) == 3.0


def test_expected_hits_matches_average_over_orderings():
    # Brute force: average deterministic hits over every ordering of the
    # tie group and compare with the hypergeometric expectation.
    import itertools
    from fractions import Fraction

    labels = [True, False, True, False, False]
    k = 2
    total = Fraction(0)
    count = 0
    for perm in set(itertools.permutations(labels)):
        records = [ScoredRecord(f"g{i}", 1.0, lab) for i, lab in enumerate(perm)]
        ranking = build_ranking(records, tie_policy=TiePolicy.GIVEN)
        total += exact_hits(ranking, k)
        count += 1
    average = total / count
    any_order = build_ranking(
        [ScoredRecord(f"g{i}", 1.0, lab) for i, lab in enumerate(labels)]
    )
    assert expected_hits_at_k(any_order, k) == float(average)


def test_hits_range_matches_extremes_over_orderings():
    # Brute force: the fewest and most hits over every ordering of the tie
    # groups, at every cut, against the range read from the group table.
    import itertools

    labels = [True, False, True, False, False, True]
    scores = [2.0, 1.0, 1.0, 1.0, 1.0, 0.0]
    hits_by_cut: dict[int, list[int]] = {k: [] for k in range(1, len(labels) + 1)}
    for middle in set(itertools.permutations(labels[1:5])):
        order = [labels[0], *middle, labels[5]]
        records = [ScoredRecord(f"g{i}", s, lab) for i, (s, lab) in enumerate(zip(scores, order))]
        ranking = build_ranking(records, tie_policy=TiePolicy.GIVEN)
        for k, seen in hits_by_cut.items():
            seen.append(exact_hits(ranking, k))
    any_order = build_ranking(
        [ScoredRecord(f"g{i}", s, lab) for i, (s, lab) in enumerate(zip(scores, labels))]
    )
    for k, seen in hits_by_cut.items():
        assert hits_range_at_k(any_order, k) == (min(seen), max(seen))
    with pytest.raises(CutOutOfRange):
        hits_range_at_k(any_order, 0)
