"""ROC sweep and the two AUC routes, checked against each other."""

from __future__ import annotations

import random
from fractions import Fraction
from types import SimpleNamespace

import pytest

from aucppv import (
    DegenerateClasses,
    auc_pairwise,
    auc_trapezoid,
    reverse_classifier,
    roc_curve,
)
from conftest import (
    WORKED_EXAMPLE,
    all_arrangements,
    exact_auc,
    random_ranking,
    ranking_from_pattern,
)


def test_roc_sweep_reference_ordering():
    # Hand sweep of PPNPNNN: cuts after each record pass through
    # (0,1/3), (0,2/3), (1/4,2/3), (1/4,1), then walk the top edge.
    ranking = ranking_from_pattern("PPNPNNN")
    assert roc_curve(ranking).points == (
        (0.0, 0.0),
        (0.0, 1 / 3),
        (0.0, 2 / 3),
        (1 / 4, 2 / 3),
        (1 / 4, 1.0),
        (1 / 2, 1.0),
        (3 / 4, 1.0),
        (1.0, 1.0),
    )


def test_roc_sweep_worked_example():
    ranking = ranking_from_pattern(WORKED_EXAMPLE)
    assert roc_curve(ranking).points == (
        (0.0, 0.0),
        (0.0, 1 / 3),
        (1 / 4, 1 / 3),
        (1 / 4, 2 / 3),
        (1 / 2, 2 / 3),
        (3 / 4, 2 / 3),
        (1.0, 2 / 3),
        (1.0, 1.0),
    )


def test_roc_groups_ties_into_single_vertices():
    # Three records tied on one score: a single interior vertex.
    ranking = ranking_from_pattern("PNP", scores=[1.0, 1.0, 1.0])
    assert roc_curve(ranking).points == ((0.0, 0.0), (1.0, 1.0))


def test_trapezoid_worked_example():
    ranking = ranking_from_pattern(WORKED_EXAMPLE)
    assert auc_trapezoid(roc_curve(ranking)) == pytest.approx(7 / 12, abs=1e-12)


def test_trapezoid_diagonal_and_perfect():
    # All scores equal: the curve is the diagonal, area one half.
    diagonal = ranking_from_pattern("PNPN", scores=[1.0] * 4)
    assert auc_trapezoid(roc_curve(diagonal)) == 0.5
    perfect = ranking_from_pattern("PPNN")
    assert auc_trapezoid(roc_curve(perfect)) == 1.0


def test_pairwise_worked_example_exact():
    ranking = ranking_from_pattern(WORKED_EXAMPLE)
    result = auc_pairwise(ranking)
    assert result.correct_pairs == 7.0
    assert result.total_pairs == 12
    assert result.value == 7 / 12


def test_pairwise_all_tied_half():
    ranking = ranking_from_pattern("PNPN", scores=[1.0] * 4)
    result = auc_pairwise(ranking)
    assert result.value == 0.5
    assert result.correct_pairs == 2.0
    assert result.total_pairs == 4


def test_pairwise_extremes():
    assert auc_pairwise(ranking_from_pattern("PPPNN")).value == 1.0
    assert auc_pairwise(ranking_from_pattern("NNPPP")).value == 0.0


def test_degenerate_classes_rejected():
    with pytest.raises(DegenerateClasses):
        roc_curve(ranking_from_pattern("PPP"))
    with pytest.raises(DegenerateClasses):
        auc_pairwise(ranking_from_pattern("NN"))


def test_pairwise_matches_exact_rational_oracle():
    rng = random.Random(11)
    for _ in range(50):
        ranking = random_ranking(rng, rng.randint(2, 40), with_ties=True)
        expected = exact_auc(ranking)
        result = auc_pairwise(ranking)
        assert Fraction(result.doubled_u, 2 * result.total_pairs) == expected
        assert Fraction(result.correct_pairs) == expected * result.total_pairs
        assert result.value == float(expected)


def test_pairwise_keeps_the_half_pair_past_two_to_the_53():
    # k1 * k2 = 1e16 > 2**53: one tied pair leaves the odd doubled U
    # 2e16 - 1, which halving in floating point would round away. The sweep
    # reads only the tie-group table, so a stand-in carries it.
    k = 10**8
    table = SimpleNamespace(
        n=2 * k, k1=k, k2=k, group_ends=(k - 1, k + 1, 2 * k), group_hits=(k - 1, k, k)
    )
    result = auc_pairwise(table)
    assert result.doubled_u == 2 * k * k - 1
    assert result.total_pairs == k * k


def test_routes_agree_with_and_without_ties():
    rng = random.Random(13)
    for with_ties in (False, True):
        for _ in range(40):
            ranking = random_ranking(rng, rng.randint(2, 80), with_ties=with_ties)
            trap = auc_trapezoid(roc_curve(ranking))
            pair = auc_pairwise(ranking).value
            assert abs(trap - pair) <= 1e-12


def test_class_swap_invariance_exhaustive():
    # Every arrangement with n <= 8: the reversed classifier has the same
    # AUC, bit for bit (integer rank sums, one shared final division).
    for n in range(2, 9):
        for k1 in range(1, n):
            for pattern in all_arrangements(k1, n - k1):
                ranking = ranking_from_pattern(pattern)
                swapped = reverse_classifier(ranking)
                assert auc_pairwise(swapped).value == auc_pairwise(ranking).value


def test_class_swap_invariance_with_ties():
    rng = random.Random(17)
    for _ in range(200):
        ranking = random_ranking(rng, rng.randint(2, 120), with_ties=True)
        swapped = reverse_classifier(ranking)
        assert auc_pairwise(swapped).value == auc_pairwise(ranking).value


def test_sorted_extremes_exhaustive():
    for k1, k2 in [(1, 1), (2, 3), (3, 4), (5, 2)]:
        top = ranking_from_pattern("P" * k1 + "N" * k2)
        bottom = ranking_from_pattern("N" * k2 + "P" * k1)
        assert auc_pairwise(top).value == 1.0
        assert auc_pairwise(bottom).value == 0.0


def test_pair_count_split_decomposition():
    # For distinct scores, cutting the ranking at any position s splits the
    # correctly ordered pairs into within-prefix, within-suffix, and the
    # cross pairs (every positive in the prefix beats every negative in the
    # suffix). Checked by brute force over all arrangements with n <= 8.
    def correct_pairs(labels: str) -> int:
        pairs = 0
        for i, a in enumerate(labels):
            if a != "P":
                continue
            pairs += sum(1 for b in labels[i + 1 :] if b == "N")
        return pairs

    for n in range(2, 9):
        for k1 in range(1, n):
            for pattern in all_arrangements(k1, n - k1):
                ranking = ranking_from_pattern(pattern)
                total = auc_pairwise(ranking)
                assert total.correct_pairs == correct_pairs(pattern)
                for s in range(n + 1):
                    prefix, suffix = pattern[:s], pattern[s:]
                    cross = prefix.count("P") * suffix.count("N")
                    split_sum = correct_pairs(prefix) + correct_pairs(suffix) + cross
                    assert split_sum == total.correct_pairs


def test_auc_bounds_property():
    rng = random.Random(19)
    for _ in range(100):
        ranking = random_ranking(rng, rng.randint(2, 50), with_ties=True)
        value = auc_pairwise(ranking).value
        assert 0.0 <= value <= 1.0


def test_curve_vertex_count_matches_distinct_scores():
    rng = random.Random(23)
    for _ in range(50):
        ranking = random_ranking(rng, rng.randint(2, 60), with_ties=True)
        distinct = len({rec.score for rec in ranking.items})
        assert len(roc_curve(ranking).points) == distinct + 1
