"""Closed-form AUC envelopes for fixed PPV and their inverse bounds."""

from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aucppv import (
    ClassRatio,
    auc_max_exact,
    auc_max_given_ppvk,
    auc_min_exact,
    auc_min_given_ppvk,
    auc_pairwise,
    envelope_curve,
    ppv_base_rate,
    ppv_swap,
    ppvk_max_given_auc,
    ppvk_min_given_auc,
)
from aucppv.errors import InconsistentInput, NonIntegralHits
from conftest import (
    all_arrangements,
    exact_auc,
    fraction_auc_max,
    fraction_auc_min,
    ppvk_hits_by_bisection,
    random_ranking,
    ranking_from_pattern,
)

GRRS_RATIO = ClassRatio(4262, 7515)
GRRS_AUC = 0.6909022561790231


def test_normalize_keeps_small_first_ratio():
    ratio = ClassRatio(3, 4)
    assert auc_min_given_ppvk(2 / 3, ratio) == float(auc_min_exact(2, ratio)) == 0.5
    assert auc_max_given_ppvk(2 / 3, ratio) == float(auc_max_exact(2, ratio))


def test_normalize_swaps_large_first_ratio():
    # 3 hits of 4 against 3 negatives: the reversed classifier has
    # 3 - (4 - 3) = 2 hits at cut 3.
    assert ppv_swap(3 / 4, 4, 3) == 2 / 3
    for bound in (auc_min_given_ppvk, auc_max_given_ppvk):
        assert bound(3 / 4, ClassRatio(4, 3)) == bound(2 / 3, ClassRatio(3, 4))


def test_normalize_symmetric_identity():
    ratio = ClassRatio(5, 5)
    assert ppv_swap(3 / 5, 5, 5) == 3 / 5
    assert auc_min_given_ppvk(3 / 5, ratio) == float(auc_min_exact(3, ratio))
    assert auc_max_given_ppvk(3 / 5, ratio) == float(auc_max_exact(3, ratio))


def test_normalize_rejects_non_integral_hits():
    for ppv in (0.5, 1.5):
        for bound in (auc_min_given_ppvk, auc_max_given_ppvk):
            with pytest.raises(NonIntegralHits):
                bound(ppv, ClassRatio(3, 4))


def test_exact_envelopes_refuse_hit_counts_that_are_not_integers():
    # 2.5 and 2.0 passed the hit-level check and then raised a bare
    # TypeError from Fraction; True passed as 1 hit.
    ratio = ClassRatio(3, 4)
    for hits in (2.5, 2.0, "2", None, True):
        for bound in (auc_min_exact, auc_max_exact):
            with pytest.raises(NonIntegralHits) as raised:
                bound(hits, ratio)
            assert str(raised.value) == f"hits {hits!r} is not an integer"


def test_normalize_rejects_infeasible_swap():
    # 0 hits of 4 cannot happen with a single negative.
    for bound in (auc_min_given_ppvk, auc_max_given_ppvk):
        with pytest.raises(InconsistentInput):
            bound(0.0, ClassRatio(4, 1))


def test_entries_accept_exactly_the_feasible_hit_levels():
    # A ranking of k1 positives and k2 negatives holds h hits in its top k1
    # only when max(0, k1 - k2) <= h <= k1. The four envelope entries and
    # ppv_swap accept exactly those levels, in either class order, and
    # refuse every other level with one error type and message.
    for k1 in range(1, 9):
        for k2 in range(1, 9):
            ratio, total = ClassRatio(k1, k2), k1 * k2
            for hits in range(-1, k1 + 2):
                ppv = hits / k1
                if max(0, k1 - k2) <= hits <= k1:
                    lo, hi = hits * (k2 - k1 + hits), total - (k1 - hits) ** 2
                    assert auc_min_exact(hits, ratio) == Fraction(lo, total)
                    assert auc_max_exact(hits, ratio) == Fraction(hi, total)
                    assert auc_min_given_ppvk(ppv, ratio) == float(auc_min_exact(hits, ratio))
                    assert auc_max_given_ppvk(ppv, ratio) == float(auc_max_exact(hits, ratio))
                    swapped = ppv_swap(ppv, k1, k2)
                    assert swapped == (k2 - k1 + hits) / k2
                    for bound in (auc_min_given_ppvk, auc_max_given_ppvk):
                        assert bound(ppv, ratio) == bound(swapped, ClassRatio(k2, k1))
                    continue
                if 0 <= hits <= k1:
                    infeasible = f"{hits} hits at cut {k1} fit no ranking of {k1} positives and {k2} negatives"
                    by_hits = by_ppv = (InconsistentInput, infeasible)
                else:
                    by_hits = (NonIntegralHits, f"hits {hits} outside [0, {k1}]")
                    by_ppv = (NonIntegralHits, f"ppv {ppv!r} at cut {k1} is not h / {k1} for any h in 0..{k1}")
                calls = [
                    (by_hits, auc_min_exact, hits, ratio),
                    (by_hits, auc_max_exact, hits, ratio),
                    (by_ppv, auc_min_given_ppvk, ppv, ratio),
                    (by_ppv, auc_max_given_ppvk, ppv, ratio),
                    (by_ppv, ppv_swap, ppv, k1, k2),
                ]
                for (error, message), entry, *args in calls:
                    with pytest.raises(InconsistentInput) as raised:
                        entry(*args)
                    assert type(raised.value) is error
                    assert str(raised.value) == message


def test_ratio_validation():
    assert ClassRatio(2, 3).n == 5
    with pytest.raises(ValueError):
        ClassRatio(0, 3)
    with pytest.raises(ValueError):
        ClassRatio(3, -1)


def test_ratio_refuses_non_integer_sizes():
    # A float size used to give a silent answer or a TypeError deep inside
    # math.isqrt; it is refused when the ratio is built.
    # A bool is a label, not a size; it used to pass as 1 and be stored as True.
    for k1, k2 in ((2.5, 3), (2, 3.0), (Fraction(5, 2), 3), ("2", 3), (True, 2), (2, False)):
        with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
            ClassRatio(k1, k2)


def test_auc_max_examples():
    # The headline extreme: PPV 0 at ratio 1:4 still allows AUC 0.75.
    assert auc_max_given_ppvk(0.0, ClassRatio(1, 4)) == 0.75
    assert auc_max_given_ppvk(1.0, ClassRatio(3, 4)) == 1.0
    assert auc_max_given_ppvk(1.0, ClassRatio(7, 2)) == 1.0
    assert auc_max_given_ppvk(0.5, ClassRatio(2, 2)) == 0.75


def test_auc_min_examples():
    assert auc_min_given_ppvk(0.0, ClassRatio(1, 4)) == 0.0
    assert auc_min_given_ppvk(0.0, ClassRatio(2, 9)) == 0.0
    assert auc_min_given_ppvk(0.5, ClassRatio(2, 2)) == 0.25
    assert auc_min_given_ppvk(2 / 3, ClassRatio(3, 4)) == 0.5


def test_exact_variants_match_formulas():
    for k1, k2 in [(1, 4), (2, 2), (3, 4), (5, 9)]:
        ratio = ClassRatio(k1, k2)
        for hits in range(k1 + 1):
            a = Fraction(hits, k1)
            expected_max = 1 - Fraction(k1, k2) * (1 - a) ** 2
            expected_min = a * (1 - Fraction(k1, k2) * (1 - a))
            assert auc_max_exact(hits, ratio) == expected_max
            assert auc_min_exact(hits, ratio) == expected_min


def test_exact_variants_swap_ratio():
    # hits on a k1 > k2 ratio translate affinely onto the swapped grid.
    assert auc_max_exact(3, ClassRatio(4, 3)) == auc_max_exact(2, ClassRatio(3, 4))
    assert auc_min_exact(3, ClassRatio(4, 3)) == auc_min_exact(2, ClassRatio(3, 4))
    with pytest.raises(InconsistentInput):
        auc_min_exact(0, ClassRatio(4, 1))
    with pytest.raises(NonIntegralHits):
        auc_max_exact(5, ClassRatio(3, 4))


@st.composite
def normalized_points(draw, largest: int = 10**8):
    """(k1, k2, hits) with 1 <= k1 <= k2 <= largest and 0 <= hits <= k1."""
    k1 = draw(st.integers(1, largest))
    k2 = draw(st.integers(k1, largest))
    return k1, k2, draw(st.integers(0, k1))


@settings(max_examples=500, deadline=None)
@given(normalized_points())
def test_integer_forms_match_fraction_formulas(point):
    # The integer numerators over k1*k2 equal the textbook Fraction forms,
    # exactly and after rounding to float, on the ratio and its swap.
    k1, k2, hits = point
    expected_min = fraction_auc_min(hits, k1, k2)
    expected_max = fraction_auc_max(hits, k1, k2)
    for ratio, h in ((ClassRatio(k1, k2), hits), (ClassRatio(k2, k1), hits + k2 - k1)):
        assert auc_min_exact(h, ratio) == expected_min
        assert auc_max_exact(h, ratio) == expected_max
        assert auc_min_given_ppvk(h / ratio.k1, ratio) == float(expected_min)
        assert auc_max_given_ppvk(h / ratio.k1, ratio) == float(expected_max)


@settings(max_examples=200, deadline=None)
@given(normalized_points(largest=300))
def test_envelope_curve_matches_fraction_formulas(point):
    k1, k2, _ = point
    curve = envelope_curve(ClassRatio(k2, k1))
    assert curve.samples == tuple(
        (i / k1, float(fraction_auc_min(i, k1, k2)), float(fraction_auc_max(i, k1, k2)))
        for i in range(k1 + 1)
    )


@settings(max_examples=500, deadline=None)
@given(normalized_points(), st.floats(0.0, 1.0))
def test_ppvk_bounds_are_the_outer_grid_neighbours(point, auc):
    # Checked against the definition with the Fraction forms: the smallest
    # level whose auc_min reaches the AUC, the largest whose auc_max stays
    # at or below it, with the float read as its exact binary fraction.
    k1, k2, _ = point
    ratio = ClassRatio(k1, k2)
    bar = Fraction(auc)
    top = ppvk_max_given_auc(auc, ratio).hits
    assert fraction_auc_min(top, k1, k2) >= bar
    assert top == 0 or fraction_auc_min(top - 1, k1, k2) < bar
    bottom = ppvk_min_given_auc(auc, ratio).hits
    if fraction_auc_max(0, k1, k2) > bar:
        assert bottom == 0
    else:
        assert fraction_auc_max(bottom, k1, k2) <= bar
        assert bottom == k1 or fraction_auc_max(bottom + 1, k1, k2) > bar


def test_given_ppvk_at_a_hundred_million():
    # PPV values h/k1 at k1 = 1e8 carry more float error than the old
    # integrality tolerance; every one of them is a legal hit count.
    k1, k2 = 10**8, 123_456_789
    ratio = ClassRatio(k1, k2)
    for hits in range(0, k1 + 1, 50_000):
        assert auc_min_given_ppvk(hits / k1, ratio) == float(fraction_auc_min(hits, k1, k2))
        assert auc_max_given_ppvk(hits / k1, ratio) == float(fraction_auc_max(hits, k1, k2))


@settings(max_examples=500, deadline=None)
@given(st.integers(1, 10**9), st.integers(1, 10**9), st.data())
def test_given_ppvk_floats_equal_the_exact_rationals(k1, k2, data):
    # Each float wrapper divides its integer numerator by k1*k2 once; an
    # int/int division rounds as float(Fraction) does, bit for bit.
    ratio = ClassRatio(k1, k2)
    hits = data.draw(st.integers(max(0, k1 - k2), k1), label="hits")
    assert auc_min_given_ppvk(hits / k1, ratio) == float(auc_min_exact(hits, ratio))
    assert auc_max_given_ppvk(hits / k1, ratio) == float(auc_max_exact(hits, ratio))


def test_envelopes_are_tight_small_ratios():
    # Brute force every arrangement for a handful of ratios and check that
    # the closed forms are attained, not just bounding.
    for k1, k2 in [(1, 1), (1, 4), (2, 3), (3, 4), (2, 2), (3, 3)]:
        ratio = ClassRatio(k1, k2)
        best: dict[int, Fraction] = {}
        worst: dict[int, Fraction] = {}
        for pattern in all_arrangements(k1, k2):
            ranking = ranking_from_pattern(pattern)
            hits = sum(1 for ch in pattern[:k1] if ch == "P")
            value = exact_auc(ranking)
            best[hits] = max(best.get(hits, Fraction(0)), value)
            worst[hits] = min(worst.get(hits, Fraction(1)), value)
        for hits in best:
            assert auc_max_exact(hits, ratio) == best[hits]
            assert auc_min_exact(hits, ratio) == worst[hits]


def test_ppvk_max_examples():
    assert ppvk_max_given_auc(1.0, ClassRatio(3, 4)).value == 1.0
    assert ppvk_max_given_auc(0.0, ClassRatio(1, 4)).value == 0.0
    grrs = ppvk_max_given_auc(GRRS_AUC, GRRS_RATIO)
    assert grrs.k == 4262
    assert grrs.hits == 3351
    assert grrs.value == pytest.approx(0.7862506, abs=1e-4)


def test_ppvk_min_examples():
    assert ppvk_min_given_auc(0.0, ClassRatio(3, 4)).value == 0.0
    # AUC 0.75 at ratio 1:4 is consistent with zero hits.
    assert ppvk_min_given_auc(0.75, ClassRatio(1, 4)).value == 0.0
    grrs = ppvk_min_given_auc(GRRS_AUC, GRRS_RATIO)
    assert grrs.k == 4262
    assert grrs.hits == 1115
    assert grrs.value == pytest.approx(0.2616143, abs=1e-4)


def test_ppvk_bounds_reject_bad_auc():
    bad = (1.5, -0.5, math.nan, math.inf, -math.inf, -0.1, 1.0000001, Fraction(3, 2), Fraction(-1, 2))
    for auc in bad:
        for inverse in (ppvk_min_given_auc, ppvk_max_given_auc):
            for ratio in (ClassRatio(3, 4), ClassRatio(4, 3)):
                with pytest.raises(InconsistentInput) as refused:
                    inverse(auc, ratio)
                assert str(refused.value) == f"auc {auc!r} outside [0, 1]"


@pytest.mark.parametrize(
    "auc, expected",
    [(0, (0, 0, 1, 1)), (-0.0, (0, 0, 1, 1)), (1, (3, 3, 4, 4)), (True, (3, 3, 4, 4))],
    ids=repr,
)
def test_ppvk_bounds_accept_the_unit_interval_ends(auc, expected):
    # (min, max) hits at ratio 3:4, then at 4:3, whose grid starts at 1.
    assert expected == tuple(
        inverse(auc, ratio).hits
        for ratio in (ClassRatio(3, 4), ClassRatio(4, 3))
        for inverse in (ppvk_min_given_auc, ppvk_max_given_auc)
    )


@st.composite
def ratio_and_auc(draw, largest: int = 10**9):
    """A ratio in either class order and an AUC in [0, 1]: a float, a point
    of the k1*k2 grid, an exact envelope level nudged by 0 or +-1e-30, or an
    end of the interval."""
    k1, k2 = draw(st.integers(1, largest)), draw(st.integers(1, largest))
    small, large = sorted((k1, k2))
    total = small * large
    hits = draw(st.integers(0, small))
    levels = (hits * (large - small + hits), total - (small - hits) ** 2)
    nudge = draw(st.sampled_from((0, 1, -1))) * Fraction(1, 10**30)
    auc = draw(
        st.one_of(
            st.floats(0.0, 1.0),
            st.integers(0, total).map(lambda pairs: Fraction(pairs, total)),
            st.sampled_from(levels).map(lambda level: min(max(Fraction(level, total) + nudge, 0), 1)),
            st.sampled_from((0, 1)),
        )
    )
    return ClassRatio(k1, k2), auc


@settings(max_examples=1000, deadline=None)
@given(ratio_and_auc())
def test_ppvk_bounds_match_bisection(case):
    ratio, auc = case
    expected = ppvk_hits_by_bisection(auc, ratio)
    assert (ppvk_min_given_auc(auc, ratio).hits, ppvk_max_given_auc(auc, ratio).hits) == expected


def test_ppvk_bounds_bracket_every_arrangement():
    # For every arrangement, feeding its AUC back through the inverse bounds,
    # exact or as the rounded float, must bracket its actual hit count.
    for k1, k2 in [(1, 4), (2, 3), (3, 4), (3, 3)]:
        ratio = ClassRatio(k1, k2)
        for pattern in all_arrangements(k1, k2):
            ranking = ranking_from_pattern(pattern)
            hits = ppv_base_rate(ranking).hits
            for auc in (exact_auc(ranking), auc_pairwise(ranking).value):
                low = ppvk_min_given_auc(auc, ratio)
                high = ppvk_max_given_auc(auc, ratio)
                assert low.hits <= hits <= high.hits


def test_ppvk_bounds_on_swapped_ratio():
    # A k1 > k2 ratio reports bounds on its own hit grid, shifted from the
    # normalized one by k1 - k2.
    normalized = ppvk_max_given_auc(0.6, ClassRatio(3, 4))
    swapped = ppvk_max_given_auc(0.6, ClassRatio(4, 3))
    assert swapped.k == 4
    assert swapped.hits == normalized.hits + 1
    low = ppvk_min_given_auc(0.6, ClassRatio(4, 3))
    assert low.hits == ppvk_min_given_auc(0.6, ClassRatio(3, 4)).hits + 1


def test_roundtrip_inequalities():
    # Exact envelope values map back to their own hit level; their floats
    # land on the same side of it.
    for k1, k2 in [(1, 4), (2, 3), (3, 4), (4, 4), (5, 11)]:
        ratio = ClassRatio(k1, k2)
        for hits in range(k1 + 1):
            assert ppvk_max_given_auc(auc_min_exact(hits, ratio), ratio).hits == hits
            assert ppvk_min_given_auc(auc_max_exact(hits, ratio), ratio).hits == hits
            a = hits / k1
            assert ppvk_max_given_auc(auc_min_given_ppvk(a, ratio), ratio).hits >= hits
            assert ppvk_min_given_auc(auc_max_given_ppvk(a, ratio), ratio).hits <= hits


def test_ppvk_bounds_contain_attainable_levels_at_ten_million():
    # Near AUC 0 and 1 the grid step (2h +- 1)/(k1*k2) is far below 1e-12,
    # so any absolute slack on the AUC moves the answer across many levels.
    k1 = k2 = 10**7
    ratio = ClassRatio(k1, k2)
    for hits in (3, 50):
        assert ppvk_max_given_auc(auc_min_exact(hits, ratio), ratio).hits == hits
        assert ppvk_min_given_auc(auc_min_exact(hits, ratio), ratio).hits <= hits
        assert ppvk_max_given_auc(float(auc_min_exact(hits, ratio)), ratio).hits >= hits
        assert ppvk_min_given_auc(float(auc_min_exact(hits, ratio)), ratio).hits <= hits
    hits = k1 - 3
    assert ppvk_min_given_auc(auc_max_exact(hits, ratio), ratio).hits == hits
    assert ppvk_max_given_auc(auc_max_exact(hits, ratio), ratio).hits >= hits
    assert ppvk_min_given_auc(float(auc_max_exact(hits, ratio)), ratio).hits <= hits
    assert ppvk_max_given_auc(float(auc_max_exact(hits, ratio)), ratio).hits >= hits


def test_ppvk_min_at_a_hundred_million_is_exact():
    # One half pair below AUC 1: auc_max(k1 - 1) = 1 - 1/k1**2 still fits,
    # auc_max(k1) = 1 does not.
    k = 10**8
    auc = Fraction(2 * k * k - 1, 2 * k * k)
    assert ppvk_min_given_auc(auc, ClassRatio(k, k)).hits == k - 1
    assert ppvk_max_given_auc(auc, ClassRatio(k, k)).hits == k


def test_envelope_curve_symmetric_two():
    curve = envelope_curve(ClassRatio(2, 2))
    assert curve.ratio == ClassRatio(2, 2)
    assert not curve.swapped
    assert curve.samples == (
        (0.0, 0.0, 0.0),
        (0.5, 0.25, 0.75),
        (1.0, 1.0, 1.0),
    )


def test_envelope_curve_headline_gap():
    curve = envelope_curve(ClassRatio(1, 4))
    a0 = curve.samples[0]
    assert a0 == (0.0, 0.0, 0.75)
    a1 = curve.samples[-1]
    assert a1 == (1.0, 1.0, 1.0)


def test_envelope_curve_normalizes_swapped_ratio():
    curve = envelope_curve(ClassRatio(4, 3))
    assert curve.ratio == ClassRatio(3, 4)
    assert curve.swapped
    assert len(curve.samples) == 4


def test_envelope_curve_monotone_and_bounded():
    for k1, k2 in [(1, 1), (1, 9), (4, 7), (6, 6), (9, 2)]:
        curve = envelope_curve(ClassRatio(k1, k2))
        prev_lo, prev_hi = -1.0, -1.0
        for a, lo, hi in curve.samples:
            assert 0.0 <= lo <= hi <= 1.0
            assert lo <= a + 1e-15
            assert lo >= prev_lo
            assert hi >= prev_hi
            prev_lo, prev_hi = lo, hi


def test_symmetric_closed_forms():
    # Equal classes: auc_max = 2a - a^2 and auc_min = a^2.
    for k1 in (1, 2, 5, 17, 50):
        ratio = ClassRatio(k1, k1)
        for i in range(k1 + 1):
            a = i / k1
            assert auc_max_given_ppvk(a, ratio) == pytest.approx(2 * a - a * a, abs=1e-12)
            assert auc_min_given_ppvk(a, ratio) == pytest.approx(a * a, abs=1e-12)


def test_symmetric_gap_formula():
    # The symmetric-class envelope gap is 2a - 2a^2, peaking at 1/2 for a = 1/2.
    for k1 in (2, 3, 10, 25):
        curve = envelope_curve(ClassRatio(k1, k1))
        for a, lo, hi in curve.samples:
            assert hi - lo == pytest.approx(2 * a - 2 * a * a, abs=1e-12)


def _largest_gaps(ratio: ClassRatio) -> tuple[Fraction, list[int], Fraction, list[int]]:
    """The largest auc_max(h) - h/k1 and the largest h/k1 - auc_min(h) over
    the hit levels 0..k1 (k1 <= k2), each with the levels that reach it."""

    above = [auc_max_exact(h, ratio) - Fraction(h, ratio.k1) for h in range(ratio.k1 + 1)]
    below = [Fraction(h, ratio.k1) - auc_min_exact(h, ratio) for h in range(ratio.k1 + 1)]
    top, bottom = max(above), max(below)
    return (
        top,
        [h for h, gap in enumerate(above) if gap == top],
        bottom,
        [h for h, gap in enumerate(below) if gap == bottom],
    )


def test_largest_gap_has_a_closed_form():
    # For k1 <= k2, AUC exceeds PPV_k by at most 1 - k1/k2, at h = 0, when
    # k2 >= 2*k1, and otherwise by (k2^2 - k2 mod 2) / (4*k1*k2), at
    # h = k1 - k2/2 (the two nearest levels tie when k2 is odd). PPV_k
    # exceeds AUC by at most floor(k1^2/4) / (k1*k2), at h = floor(k1/2)
    # (and at ceil(k1/2), which ties when k1 is odd).
    for k1 in range(1, 40):
        for k2 in range(k1, 80):
            top, top_hits, bottom, bottom_hits = _largest_gaps(ClassRatio(k1, k2))
            if k2 >= 2 * k1:
                assert (top, top_hits) == (1 - Fraction(k1, k2), [0])
            else:
                assert top == Fraction(k2 * k2 - k2 % 2, 4 * k1 * k2)
                assert top_hits == sorted({k1 - k2 // 2, k1 - (k2 + 1) // 2})
            assert bottom == Fraction(k1 * k1 // 4, k1 * k2)
            assert bottom_hits == sorted({k1 // 2, (k1 + 1) // 2})


@pytest.mark.parametrize(
    "k1, k2, top, top_hits, bottom, bottom_hits",
    [
        # The abstract's 0.75 is the gap at a 20% base rate.
        (1, 4, 0.75, [0], 0.0, [0, 1]),
        (1000, 4000, 0.75, [0], 0.0625, [500]),
        # The bundled general and violent scales.
        (4262, 7515, 0.4408, [504, 505], 0.1418, [2131]),
        (1085, 11441, 0.9052, [0], 0.0237, [542, 543]),
    ],
)
def test_largest_gap_at_named_ratios(k1, k2, top, top_hits, bottom, bottom_hits):
    gaps = _largest_gaps(ClassRatio(k1, k2))
    assert (round(float(gaps[0]), 4), gaps[1]) == (top, top_hits)
    assert (round(float(gaps[2]), 4), gaps[3]) == (bottom, bottom_hits)


def _assert_sandwiched(ranking, ratio):
    # Exact: the pair count lies between the envelopes at the hit count.
    # Float: correct rounding is monotone, so the floats keep that order.
    auc = auc_pairwise(ranking)
    ppv = ppv_base_rate(ranking)
    exact = Fraction(auc.doubled_u, 2 * auc.total_pairs)
    assert auc_min_exact(ppv.hits, ratio) <= exact <= auc_max_exact(ppv.hits, ratio)
    low, high = auc_min_given_ppvk(ppv.value, ratio), auc_max_given_ppvk(ppv.value, ratio)
    assert low <= auc.value <= high


def test_sandwich_exhaustive_small():
    for n in range(2, 13):
        for k1 in range(1, n):
            ratio = ClassRatio(k1, n - k1)
            for pattern in all_arrangements(k1, n - k1):
                _assert_sandwiched(ranking_from_pattern(pattern), ratio)


def test_sandwich_random_large():
    rng = random.Random(43)
    for _ in range(200):
        ranking = random_ranking(rng, rng.randint(2, 800), with_ties=False)
        _assert_sandwiched(ranking, ClassRatio(ranking.k1, ranking.k2))


def test_sandwich_with_ties_uses_expected_hits():
    # Deterministic hits under ties can step outside the envelopes, but the
    # hypergeometric expected hit count stays inside them: auc_min is convex
    # and auc_max concave in a, so averaging over boundary-tie orderings can
    # only move the pair inward.
    from aucppv.ppv import expected_hits_at_k

    rng = random.Random(47)
    for _ in range(100):
        ranking = random_ranking(rng, rng.randint(2, 200), with_ties=True)
        k1, k2 = ranking.k1, ranking.k2
        if k1 > k2:
            continue
        auc = auc_pairwise(ranking).value
        a = Fraction(expected_hits_at_k(ranking, k1)).limit_denominator(10**9) / k1
        lo = a * (1 - Fraction(k1, k2) * (1 - a))
        hi = 1 - Fraction(k1, k2) * (1 - a) ** 2
        assert float(lo) - 1e-9 <= auc <= float(hi) + 1e-9


def test_monotonicity_in_hits():
    for k1, k2 in [(3, 4), (5, 5), (2, 9)]:
        ratio = ClassRatio(k1, k2)
        for hits in range(k1):
            assert auc_max_exact(hits, ratio) < auc_max_exact(hits + 1, ratio)
            assert auc_min_exact(hits, ratio) < auc_min_exact(hits + 1, ratio)


def test_auc_min_never_exceeds_ppv():
    for k1 in range(1, 8):
        for k2 in range(k1, 9):
            ratio = ClassRatio(k1, k2)
            for hits in range(k1 + 1):
                assert auc_min_exact(hits, ratio) <= Fraction(hits, k1)
