"""Ranking construction, tie handling and classifier reversal."""

from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aucppv import (
    ConfusionCounts,
    Ranking,
    ScoredRecord,
    TiePolicy,
    build_ranking,
    confusion_at_cut,
    ppv_at_k,
    ppv_base_rate,
    reverse_classifier,
)
from aucppv.errors import CutOutOfRange, DuplicateId, EmptyInput, InconsistentInput, NonFiniteScore
from aucppv.ppv import PpvResult, expected_hits_at_k, hits_range_at_k
from conftest import (
    exact_hits,
    pattern_of,
    random_ranking,
    ranking_from_pattern,
    reference_rank_order,
)


def test_build_sorts_descending_and_counts_classes():
    ranking = ranking_from_pattern("PPNPNNN")
    assert ranking.k1 == 3
    assert ranking.k2 == 4
    assert ranking.n == 7
    scores = [rec.score for rec in ranking.items]
    assert scores == sorted(scores, reverse=True)
    assert pattern_of(ranking) == "PPNPNNN"


def test_build_is_order_insensitive_for_distinct_scores():
    records = [
        ScoredRecord("a", 3.0, True),
        ScoredRecord("b", 1.0, False),
        ScoredRecord("c", 2.0, True),
    ]
    shuffled = [records[1], records[2], records[0]]
    assert build_ranking(records) == build_ranking(shuffled)


def test_singleton_ranking():
    ranking = build_ranking([ScoredRecord("only", 0.25, True)])
    assert (ranking.n, ranking.k1, ranking.k2) == (1, 1, 0)


def test_ties_break_by_id_ascending():
    records = [
        ScoredRecord("b", 1.0, False),
        ScoredRecord("a", 1.0, True),
    ]
    ranking = build_ranking(records)
    assert [rec.id for rec in ranking.items] == ["a", "b"]


def test_given_tie_policy_preserves_input_order():
    records = [
        ScoredRecord("b", 1.0, False),
        ScoredRecord("a", 1.0, True),
    ]
    ranking = build_ranking(records, tie_policy=TiePolicy.GIVEN)
    assert [rec.id for rec in ranking.items] == ["b", "a"]
    assert ranking.tie_policy is TiePolicy.GIVEN


def test_empty_input_rejected():
    with pytest.raises(EmptyInput):
        build_ranking([])


def test_duplicate_id_rejected():
    records = [ScoredRecord("a", 1.0, True), ScoredRecord("a", 0.5, False)]
    with pytest.raises(DuplicateId):
        build_ranking(records)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_scores_rejected(bad):
    with pytest.raises(NonFiniteScore):
        ScoredRecord("a", bad, True)


def test_blank_id_rejected():
    with pytest.raises(EmptyInput):
        ScoredRecord("", 1.0, True)


def test_constructor_ranks_ties_by_id_in_any_column_order():
    # Ties given in descending id order still rank by ascending id, so the
    # base-rate cut inside the top tie group takes "a", not "b".
    ids, scores, labels = ["b", "a", "d", "c"], [1.0, 1.0, 0.5, 0.5], [True, False, False, False]
    ranking = Ranking(ids, scores, labels, TiePolicy.BY_ID_ASCENDING)
    built = build_ranking(map(ScoredRecord, ids, scores, labels))
    assert ranking.ids == ("a", "b", "c", "d")
    assert ranking == built
    assert ppv_base_rate(ranking) == ppv_base_rate(built) == PpvResult(k=1, hits=0)


@pytest.mark.parametrize(
    "ids, scores, error",
    [
        (["a", "b", "a"], [1.0, 0.5, 0.5], DuplicateId),
        (["a", "", "c"], [1.0, 0.5, 0.5], EmptyInput),
        (["a", "b", "c"], [1.0, 0.5], InconsistentInput),
        (["a", "b"], [1.0, 0.5, 0.5], InconsistentInput),
    ],
)
def test_constructor_refuses_bad_columns(ids, scores, error):
    with pytest.raises(error):
        Ranking(ids, scores, [True, False, True], TiePolicy.GIVEN)


def test_tie_group_table_matches_record_walk():
    rng = random.Random(17)
    for _ in range(60):
        ranking = random_ranking(rng, rng.randint(2, 50), with_ties=True)
        for built in (ranking, reverse_classifier(ranking)):
            scores = [rec.score for rec in built.items]
            ends = [i for i in range(1, built.n) if scores[i] != scores[i - 1]] + [built.n]
            assert list(built.group_ends) == ends
            assert list(built.group_hits) == [exact_hits(built, end) for end in ends]
            for k in range(built.n + 1):
                assert confusion_at_cut(built, k).tp == exact_hits(built, k)
                if k:
                    assert ppv_at_k(built, k).hits == exact_hits(built, k)
            again = build_ranking(built.items, built.tie_policy)
            assert again == built
            assert (again.group_ends, again.group_hits) == (built.group_ends, built.group_hits)


def _counts_levels(scores, labels) -> bool:
    """Ranking's rule: when two positives share a score it counts the records
    at each level, otherwise it sorts every score."""

    positives = [score for score, label in zip(scores, labels) if label]
    return len(set(positives)) < len(positives)


def _tied_columns(rng: random.Random):
    """Columns in no particular order: one record, all tied, 0.0 and -0.0 in
    one group, then random heavily tied tables with ids out of order. Ties
    among the negatives alone, a single positive or none take the sort
    route; the rest count each level."""

    yield ["a"], [0.5], [True]
    yield [f"id{i}" for i in range(9, 0, -1)], [2.0] * 9, [i % 3 == 0 for i in range(9)]
    yield ["z", "b", "y", "a", "c"], [0.0, -0.0, 1.0, -0.0, 0.0], [True, False, False, True, True]
    yield ["z", "b", "y", "a", "c"], [0.0, -0.0, 1.0, -0.0, 0.0], [False, True, False, False, False]
    steps = [step / 4 for step in range(-10, 40)]
    for _ in range(120):
        n = rng.randint(1, 40)
        pool = rng.sample([-1.5, -0.0, 0.0, 0.25, 0.5, 3.0, 7.0], rng.randint(1, 4))
        ids = [f"r{v}" for v in rng.sample(range(1000), n)]
        scores = [rng.choice(pool) for _ in ids]
        yield ids, scores, [rng.random() < 0.4 for _ in ids]
        yield ids, scores, [False] * n
        one = rng.randrange(n)
        yield ids, scores, [i == one for i in range(n)]
        # Every positive at a score of its own; the negatives share a few.
        labels = [rng.random() < 0.4 for _ in ids]
        distinct = iter(rng.sample(steps, n))
        pool = rng.sample(steps, rng.randint(1, 3))
        yield ids, [next(distinct) if label else rng.choice(pool) for label in labels], labels


def _tie_group_reads(ranking: Ranking) -> dict:
    """Everything the sweeps and the cut read, at every cut."""

    n, cuts = ranking.n, range(1, ranking.n + 1)
    return {
        "groups": (ranking.group_ends, ranking.group_hits),
        "hits": [ranking.hits_at(k) for k in range(n + 1)],
        "confusion": [confusion_at_cut(ranking, k) for k in range(n + 1)],
        "ppv": [ppv_at_k(ranking, k) for k in cuts],
        "range": [hits_range_at_k(ranking, k) for k in cuts],
        "expected": [expected_hits_at_k(ranking, k) for k in cuts],
    }


def _walked_reads(ids, scores, labels) -> dict:
    """The same reads taken by walking columns already in rank order."""

    n, k1 = len(ids), sum(labels)
    hits = [sum(labels[:k]) for k in range(n + 1)]
    ends = [i for i in range(1, n) if scores[i] != scores[i - 1]] + [n]
    ranges, expected = [], []
    for k in range(1, n + 1):
        group = [i for i in range(n) if scores[i] == scores[k - 1]]
        slots = k - group[0]
        inside = sum(labels[i] for i in group)
        before = hits[group[0]]
        ranges.append((before + max(0, slots - (len(group) - inside)), before + min(inside, slots)))
        expected.append(float(before + Fraction(inside * slots, len(group))))
    return {
        "groups": (tuple(ends), tuple(hits[end] for end in ends)),
        "hits": hits,
        "confusion": [
            ConfusionCounts(tp=h, fp=k - h, fn=k1 - h, tn=n - k1 - (k - h))
            for k, h in enumerate(hits)
        ],
        "ppv": [PpvResult(k=k, hits=hits[k]) for k in range(1, n + 1)],
        "range": ranges,
        "expected": expected,
    }


def _refuse_rank_order(self):
    raise AssertionError("the records were put in rank order")


@pytest.mark.parametrize("policy", list(TiePolicy))
def test_tie_group_reads_need_no_rank_order(monkeypatch, policy):
    # From records, from the shuffled columns and from the columns already
    # in rank order, on a freshly built ranking: the group table and the cut
    # reads match a full sort while the record order cannot be built, then
    # the columns, the records, == and hash match it too; the reads match
    # again on a ranking whose columns were read first. Both routes to the
    # group table run, on tied inputs.
    routes = {False: 0, True: 0}
    for ids, scores, labels in _tied_columns(random.Random(41)):
        routes[_counts_levels(scores, labels)] += len(set(scores)) < len(scores)
        ranked = reference_rank_order(ids, scores, labels, policy)
        expected = _walked_reads(*ranked)
        builds = (
            lambda: build_ranking(map(ScoredRecord, ids, scores, labels), policy),
            lambda: Ranking(ids, scores, labels, policy),
            lambda: Ranking(*ranked, policy),
        )
        rankings = []
        for build in builds:
            ranking = build()
            with monkeypatch.context() as patched:
                patched.setattr(Ranking, "_rank_order", _refuse_rank_order)
                assert _tie_group_reads(ranking) == expected
            assert (ranking.ids, ranking.scores, ranking.labels) == ranked
            assert list(map(repr, ranking.scores)) == list(map(repr, ranked[1]))
            assert ranking.items == tuple(map(ScoredRecord, *ranked))
            rankings.append(ranking)
            # Columns first, then the reads, on another fresh ranking.
            ranking = build()
            assert ranking.ids == ranked[0]
            assert _tie_group_reads(ranking) == expected
        assert rankings[0] == rankings[1] == rankings[2]
        assert len({hash(ranking) for ranking in rankings}) == 1
    assert min(routes.values()) >= 50


def test_signed_zero_level_is_the_first_in_column_order():
    # 0.0 and -0.0 form one group on either route, and its level is the
    # zero that comes first in the columns.
    ids = ["z", "b", "y", "a", "c"]
    for scores in ([0.0, -0.0, 1.0, -0.0, -0.0], [-0.0, 0.0, 1.0, 0.0, 0.0]):
        for labels in ([True, False, False, True, True], [False, True, False, False, False]):
            ranking = Ranking(ids, scores, labels, TiePolicy.BY_ID_ASCENDING)
            assert (ranking.group_ends, ranking.group_hits) == ((1, 5), (0, sum(labels)))
            assert list(map(repr, ranking._levels)) == ["1.0", repr(scores[0])]


def test_non_finite_score_names_the_same_record_on_both_routes():
    # Two positives share inf, or two positives share one NaN object, so
    # the levels are counted; with one positive or none they are sorted.
    # Either way the first bad record in column order is named, not the
    # first bad level.
    ids = ["a", "b", "c", "d", "e"]
    for bad, other in ((-math.inf, math.inf), (math.nan, math.inf), (math.inf, math.nan)):
        scores = [1.0, bad, 0.5, bad, other]
        for labels in ([False, True, False, True, False], [True] * 5, [False] * 5, [True] + [False] * 4):
            assert _counts_levels(scores, labels) is (sum(labels[1::2]) == 2)
            with pytest.raises(NonFiniteScore) as raised:
                Ranking(ids, scores, labels, TiePolicy.BY_ID_ASCENDING)
            assert str(raised.value) == f"record 'b' has non-finite score {bad!r}"


def test_hits_at_rejects_cuts_outside_the_ranking():
    ranking = ranking_from_pattern("PNP", scores=[1.0, 0.5, 0.5])
    assert [ranking.hits_at(k) for k in range(4)] == [0, 1, 1, 2]
    for k in (-1, 4):
        with pytest.raises(CutOutOfRange):
            ranking.hits_at(k)


def test_reverse_flips_order_and_roles():
    ranking = ranking_from_pattern("PPNPNNN")
    reversed_ranking = reverse_classifier(ranking)
    # Reading the original labels back to front: N N N P N P P.
    # Every role flips, so the new positives sit where old negatives were.
    assert pattern_of(reversed_ranking) == "PPPNPNN"
    assert reversed_ranking.k1 == 4
    assert reversed_ranking.k2 == 3
    assert [rec.id for rec in reversed_ranking.items] == [
        rec.id for rec in reversed(ranking.items)
    ]
    assert reversed_ranking.tie_policy is TiePolicy.GIVEN


def test_reverse_negates_scores_monotonically():
    ranking = ranking_from_pattern("PN")
    reversed_ranking = reverse_classifier(ranking)
    assert [rec.score for rec in reversed_ranking.items] == [-1.0, -2.0]


def test_reverse_is_an_involution():
    ranking = ranking_from_pattern("PPNPNNN")
    twice = reverse_classifier(reverse_classifier(ranking))
    assert pattern_of(twice) == pattern_of(ranking)
    assert [rec.id for rec in twice.items] == [rec.id for rec in ranking.items]
    assert [rec.score for rec in twice.items] == [rec.score for rec in ranking.items]
    assert (twice.k1, twice.k2) == (ranking.k1, ranking.k2)


def test_reverse_singleton_swaps_role():
    ranking = build_ranking([ScoredRecord("only", 0.25, True)])
    reversed_ranking = reverse_classifier(ranking)
    assert (reversed_ranking.k1, reversed_ranking.k2) == (0, 1)
    assert not reversed_ranking.items[0].positive


def test_reverse_keeps_tied_blocks_reversed():
    records = [
        ScoredRecord("a", 1.0, True),
        ScoredRecord("b", 1.0, False),
        ScoredRecord("c", 1.0, True),
    ]
    ranking = build_ranking(records)
    reversed_ranking = reverse_classifier(ranking)
    assert [rec.id for rec in reversed_ranking.items] == ["c", "b", "a"]


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_build_properties(data):
    n = data.draw(st.integers(min_value=1, max_value=40))
    scores = data.draw(
        st.lists(
            st.integers(min_value=-5, max_value=5).map(float),
            min_size=n,
            max_size=n,
        )
    )
    labels = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
    records = [
        ScoredRecord(f"id{i}", scores[i], labels[i]) for i in range(n)
    ]
    ranking = build_ranking(records)
    out_scores = [rec.score for rec in ranking.items]
    assert out_scores == sorted(out_scores, reverse=True)
    assert sorted(rec.id for rec in ranking.items) == sorted(r.id for r in records)
    assert ranking.k1 == sum(labels)
    assert ranking.k1 + ranking.k2 == n


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_reverse_involution_property(data):
    n = data.draw(st.integers(min_value=1, max_value=30))
    rng = random.Random(data.draw(st.integers(min_value=0, max_value=10**6)))
    records = [
        ScoredRecord(f"id{i}", float(rng.randint(-4, 4)), rng.random() < 0.5)
        for i in range(n)
    ]
    ranking = build_ranking(records)
    twice = reverse_classifier(reverse_classifier(ranking))
    assert [rec.id for rec in twice.items] == [rec.id for rec in ranking.items]
    assert [rec.positive for rec in twice.items] == [
        rec.positive for rec in ranking.items
    ]
