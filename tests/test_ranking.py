"""Ranking construction, tie handling and classifier reversal."""

from __future__ import annotations

import math
import random
from collections import Counter
from decimal import Decimal
from fractions import Fraction
from itertools import accumulate, permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import aucppv.ranking
from aucppv import (
    ConfusionCounts,
    Ranking,
    ScoredRecord,
    TiePolicy,
    auc_pairwise,
    build_ranking,
    confusion_at_cut,
    ppv_at_k,
    ppv_base_rate,
    reverse_classifier,
    roc_curve,
)
from aucppv.errors import (
    CutOutOfRange,
    DegenerateClasses,
    DuplicateId,
    EmptyInput,
    InconsistentInput,
    NonFiniteScore,
)
from aucppv.ppv import PpvResult, expected_hits_at_k, hits_range_at_k
from aucppv.ranking import TieTable
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


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, Decimal("sNaN")])
def test_non_finite_scores_rejected(bad):
    with pytest.raises(NonFiniteScore):
        ScoredRecord("a", bad, True)


def test_blank_id_rejected():
    with pytest.raises(EmptyInput):
        ScoredRecord("", 1.0, True)
    # Only an id equal to "" is empty: 0 is an id like any other.
    assert ScoredRecord(0, 0.5, True).id == 0


@pytest.mark.parametrize("policy", list(TiePolicy))
def test_integer_ids_round_trip_through_records(policy):
    # Ranking accepted id 0, but its records used to refuse it.
    ranking = Ranking(list(range(4)), [0.5, 0.9, 0.5, 0.1], [True, False, False, True], policy)
    assert build_ranking(ranking.items, ranking.tie_policy) == ranking


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
        # Of several bad ids, the first in column order is named.
        (["a", "", ["b"]], [1.0, 0.5, 0.5], EmptyInput),
        (["a", "a", ["b"]], [1.0, 0.5, 0.5], DuplicateId),
        (["", "a", "a"], [1.0, 0.5, 0.5], EmptyInput),
    ],
)
def test_constructor_refuses_bad_columns(ids, scores, error):
    with pytest.raises(error):
        Ranking(ids, scores, [True, False, True], TiePolicy.GIVEN)


def test_constructor_refuses_labels_that_are_not_booleans():
    # The string "0" is truthy, so it used to count as a positive, and a
    # label of 2 made the tie walk count two hits for one record. An
    # unhashable label must not escape as a bare TypeError from the set check.
    ids, scores = ["a", "b", "c", "d"], [0.9, 0.9, 0.7, 0.6]
    for labels, bad in (
        (["1", "0", "1", "0"], 0),
        ([True, 2, False, False], 1),
        ([1, 0, None, 0], 2),
        ([False, True, False, 0.5], 3),
        ([[1], 0, 1, 0], 0),
        ([True, {}, False, False], 1),
    ):
        for policy in TiePolicy:
            with pytest.raises(InconsistentInput) as raised:
                Ranking(ids, scores, labels, policy)
            assert str(raised.value) == (
                f"record {ids[bad]!r} has label {labels[bad]!r}, not True or False"
            )


def test_build_ranking_refuses_a_non_boolean_positive():
    # ScoredRecord checks its label by the rule the ranking applies, so the
    # record is refused before any ranking is built.
    with pytest.raises(InconsistentInput, match="record 'b' has label '0', not True or False"):
        records = [ScoredRecord("a", 0.9, True), ScoredRecord("b", 0.5, "0")]
        build_ranking(records)


@pytest.mark.parametrize("label", ["0", 2, None, 0.5, [1], {}])
def test_scored_record_refuses_a_label_with_rankings_text(label):
    with pytest.raises(InconsistentInput) as from_ranking:
        Ranking(["a"], [0.5], [label], TiePolicy.GIVEN)
    with pytest.raises(InconsistentInput) as from_record:
        ScoredRecord("a", 0.5, label)
    assert str(from_record.value) == str(from_ranking.value)
    assert str(from_record.value) == f"record 'a' has label {label!r}, not True or False"


@pytest.mark.parametrize(
    "ids, scores, labels, error, text",
    [
        # Several faults in different columns: the first bad record in
        # column order is named, whichever column its fault is in.
        (["a", "a"], [math.nan, 1.0], [True, False], NonFiniteScore, "record 'a' has non-finite score nan"),
        (
            ["a", "b", "b"],
            [1.0, 0.5, 0.5],
            [True, "x", False],
            InconsistentInput,
            "record 'b' has label 'x', not True or False",
        ),
        (["a", ""], [math.inf, 1.0], [True, False], NonFiniteScore, "record 'a' has non-finite score inf"),
    ],
    ids=["score-before-repeated-id", "label-before-repeated-id", "score-before-empty-id"],
)
def test_first_bad_record_in_column_order_is_named(ids, scores, labels, error, text):
    for policy in TiePolicy:
        with pytest.raises(error) as raised:
            Ranking(ids, scores, labels, policy)
        assert str(raised.value) == text


def test_integer_labels_rank_like_booleans():
    # 0 and 1 (and their float forms) pass, and every hit count is an int.
    ids, scores = ["a", "b", "c", "d"], [0.9, 0.9, 0.7, 0.6]
    as_bools = Ranking(ids, scores, [True, False, True, False], TiePolicy.BY_ID_ASCENDING)
    for labels in ([1, 0, 1, 0], [1.0, 0.0, 1.0, 0.0]):
        ranking = Ranking(ids, scores, labels, TiePolicy.BY_ID_ASCENDING)
        assert (ranking.k1, ranking.k2) == (2, 2)
        assert ranking == as_bools
        hits = [ranking.hits_at(k) for k in range(5)]
        assert hits == [0, 1, 1, 2, 2]
        assert all(type(h) is int for h in hits)


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
        "cut_group": [ranking._cut_group(k) for k in cuts],
    }


def _walked_reads(ids, scores, labels) -> dict:
    """The same reads taken by walking columns already in rank order."""

    n, k1 = len(ids), sum(labels)
    hits = [sum(labels[:k]) for k in range(n + 1)]
    ends = [i for i in range(1, n) if scores[i] != scores[i - 1]] + [n]
    ranges, expected, cut_groups = [], [], []
    for k in range(1, n + 1):
        group = [i for i in range(n) if scores[i] == scores[k - 1]]
        slots = k - group[0]
        inside = sum(labels[i] for i in group)
        before = hits[group[0]]
        ranges.append((before + max(0, slots - (len(group) - inside)), before + min(inside, slots)))
        expected.append(float(before + Fraction(inside * slots, len(group))))
        # The group's index, the positives before it, its members inside
        # the cut and its size: the boundary group size build_report prints.
        cut_groups.append((ends.index(group[-1] + 1), before, slots, len(group)))
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
        "cut_group": cut_groups,
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


def _table_from_counts(counts) -> TieTable:
    """The TieTable of (positives, negatives) per score level, highest level first."""

    ends = tuple(accumulate(positives + negatives for positives, negatives in counts))
    hits = tuple(accumulate(positives for positives, _ in counts))
    return TieTable(ends, hits)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_table_from_level_counts_reads_like_the_ranking(data):
    # The per-level counts alone give the ranking's table, and every sweep
    # and cut read gives on that table what it gives on the ranking.
    n = data.draw(st.integers(min_value=1, max_value=60))
    scores = data.draw(st.lists(st.integers(0, 6), min_size=n, max_size=n))
    labels = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
    policy = data.draw(st.sampled_from(TiePolicy))
    ranking = Ranking([f"r{i}" for i in range(n)], [score / 4 for score in scores], labels, policy)
    at_level = Counter(zip(scores, labels))
    table = _table_from_counts(
        [(at_level[level, True], at_level[level, False]) for level in sorted(set(scores), reverse=True)]
    )
    assert table == ranking.table
    for sweep in (auc_pairwise, roc_curve):
        if 0 < ranking.k1 < n:
            assert sweep(table) == sweep(ranking)
        else:
            for source in (table, ranking):
                with pytest.raises(DegenerateClasses):
                    sweep(source)
    for k in range(1, n + 1):
        assert hits_range_at_k(table, k) == hits_range_at_k(ranking, k)
        assert expected_hits_at_k(table, k) == expected_hits_at_k(ranking, k)
        assert table._cut_group(k) == ranking._cut_group(k)


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
    # A signalling NaN cannot be hashed, compared or converted to a float;
    # whichever of those fails first, the record is named.
    snan = Decimal("sNaN")
    for scores, bad in (([snan, 0.5], 0), ([0.5, snan], 1), ([snan], 0)):
        for policy in TiePolicy:
            with pytest.raises(NonFiniteScore) as raised:
                Ranking(ids[:len(scores)], scores, [True, False][:len(scores)], policy)
            assert str(raised.value) == f"record {ids[bad]!r} has non-finite score {snan!r}"


def test_score_that_is_not_a_real_number_names_its_record():
    # A string or None used to escape as a bare TypeError from the sort, an
    # all-string column from the finiteness check and an unhashable score
    # from the level count. Each route names the first such record.
    ids = ["a", "b", "c", "d"]
    for scores, bad in (
        ([0.9, "x", 0.5, 0.1], 1),
        ([None, 0.9, 0.5, 0.1], 0),
        (["0.9", "0.7", "0.5", "0.1"], 0),
        ([0.9, 0.5, [0.5], 0.1], 2),
        ([[0.9], [0.5], [0.5], [0.1]], 0),
        ([0.9, 0.5, 1j, 0.1], 2),
    ):
        for labels in ([True, False, True, False], [True] * 4, [False] * 4):
            for policy in TiePolicy:
                with pytest.raises(NonFiniteScore) as raised:
                    Ranking(ids, scores, labels, policy)
                assert str(raised.value) == f"record {ids[bad]!r} has score {scores[bad]!r}, not a real number"
        # ScoredRecord used to raise a bare TypeError from math.isfinite.
        with pytest.raises(NonFiniteScore) as raised:
            ScoredRecord(ids[bad], scores[bad], True)
        assert str(raised.value) == f"record {ids[bad]!r} has score {scores[bad]!r}, not a real number"


def test_bulk_check_type_error_no_record_names_is_re_raised():
    # A score with __float__ and __eq__ but no hash passes the record rule,
    # yet the level count cannot hash it: the walk names no record, so the
    # bulk check's own TypeError comes out unchanged.
    class Unhashable:
        def __init__(self, value):
            self.value = value

        def __float__(self):
            return self.value

        def __eq__(self, other):
            return isinstance(other, Unhashable) and self.value == other.value

    scores = [Unhashable(0.9), Unhashable(0.1)]
    ScoredRecord("a", scores[0], True)
    for policy in TiePolicy:
        with pytest.raises(TypeError, match="unhashable type: 'Unhashable'") as raised:
            Ranking(["a", "b"], scores, [True, False], policy)
        assert type(raised.value) is TypeError


def test_score_too_large_for_a_float_names_its_record():
    # An int or Fraction past the float range used to escape as a bare
    # OverflowError from math.isfinite. The text leaves the score out: the
    # repr of 10**5000 is itself refused.
    message = "record 'b' has a score too large for a float"
    for huge in (10**400, -(10**400), 10**5000, Fraction(10**400, 3)):
        for policy in TiePolicy:
            with pytest.raises(NonFiniteScore) as raised:
                Ranking(["a", "b", "c"], [0.5, huge, 0.1], [True, False, True], policy)
            assert str(raised.value) == message
        with pytest.raises(NonFiniteScore) as raised:
            ScoredRecord("b", huge, True)
        assert str(raised.value) == message
    with pytest.raises(NonFiniteScore, match="record 'a' has a score too large"):
        Ranking(["a"], [10**400], [True], TiePolicy.GIVEN)
    # An int a float can hold ranks as the number it is.
    ranking = Ranking(["a", "b"], [1, 10**300], [False, True], TiePolicy.GIVEN)
    assert (ranking.hits_at(1), ranking.ids) == (1, ("b", "a"))


def test_ids_of_different_tie_groups_are_never_compared():
    # Each tie group's ids share a type, but the column mixes them: the rank
    # order sorts each group by id and compares no id across groups.
    ids, scores = [3, "b", 2, "a", 1], [0.1, 0.5, 0.9, 0.5, 0.9]
    labels = [True, False, True, True, False]
    ranking = Ranking(ids, scores, labels, TiePolicy.BY_ID_ASCENDING)
    assert ranking.ids == (1, 2, "a", "b", 3)
    assert ranking.labels == (False, True, True, False, True)
    assert [ranking.hits_at(k) for k in range(6)] == [0, 0, 1, 2, 2, 3]
    assert ranking == Ranking(ids[::-1], scores[::-1], labels[::-1], TiePolicy.BY_ID_ASCENDING)
    assert reverse_classifier(reverse_classifier(ranking)).ids == ranking.ids


def test_unhashable_id_names_itself():
    # It used to escape as a bare TypeError from the duplicate check.
    for ids, bad in (([["a"], "b"], 0), (["a", {"b": 1}], 1)):
        with pytest.raises(InconsistentInput) as raised:
            Ranking(ids, [0.5, 0.4], [True, False], TiePolicy.BY_ID_ASCENDING)
        assert str(raised.value) == f"record id {ids[bad]!r} is unhashable"
    # ScoredRecord used to accept it, failing only in the Ranking built from it.
    with pytest.raises(InconsistentInput) as raised:
        ScoredRecord(["a"], 0.5, True)
    assert str(raised.value) == "record id ['a'] is unhashable"


def test_hits_at_rejects_cuts_outside_the_ranking():
    ranking = ranking_from_pattern("PNP", scores=[1.0, 0.5, 0.5])
    assert [ranking.hits_at(k) for k in range(4)] == [0, 1, 1, 2]
    # A cut that is not an integer is out of range too; 2.0 used to pass as
    # 2, True as 1 and False as 0.
    for k in (-1, 4, 2.0, 1.5, "2", None, True, False):
        with pytest.raises(CutOutOfRange):
            ranking.hits_at(k)
    # The cut lookup behind hits_at and the boundary-group reads takes 1..n.
    for k in (0, 4):
        with pytest.raises(CutOutOfRange, match=rf"cut {k} outside \[1, 3\]"):
            ranking._cut_group(k)


@pytest.mark.parametrize("k", [3, 4], ids=["inside-a-tie-group", "on-a-group-boundary"])
def test_each_cut_reader_checks_and_searches_its_cut_once(monkeypatch, k):
    # ppv_at_k used to check its cut three times and search group_ends twice,
    # hits_at to check its cut twice. The records' own integer checks
    # (PpvResult, ConfusionCounts) bind the rule in their modules and are
    # not counted here.
    calls = {"integer": 0, "bisect_left": 0}

    def counted(name, real):
        def count(*args):
            calls[name] += 1
            return real(*args)

        return count

    monkeypatch.setattr(aucppv.ranking, "_integer", counted("integer", aucppv.ranking._integer))
    monkeypatch.setattr(aucppv.ranking, "bisect_left", counted("bisect_left", aucppv.ranking.bisect_left))
    # Tie groups end at 1, 4, 5 and 6: cut 3 splits the second, cut 4 ends it.
    ranking = ranking_from_pattern("PNPNNP", scores=[0.9, 0.5, 0.5, 0.5, 0.2, 0.1])
    readers = (Ranking.hits_at, ppv_at_k, confusion_at_cut, hits_range_at_k, expected_hits_at_k)
    reads = [(read, ranking) for read in readers]
    # The boundary-group reads take the ranking's table as well.
    reads += [(read, ranking.table) for read in (hits_range_at_k, expected_hits_at_k)]
    for read, source in reads:
        calls.update(integer=0, bisect_left=0)
        read(source, k)
        assert calls == {"integer": 1, "bisect_left": 1}, (read.__name__, type(source).__name__)


def test_ids_that_cannot_be_ordered_name_two_of_them():
    # Both sorts by id, the one tie group hits_at orders and the full rank
    # order the columns read, used to raise a bare TypeError from the sort.
    tied = (["b", 1, "a", 2], [0.5, 0.5, 0.5, 0.1], [True, False, True, False])
    mixed = {
        f"record ids {a!r} and {b!r} cannot be ordered"
        for a, b in permutations(tied[0], 2)
        if type(a) is not type(b)
    }
    for read in (lambda ranking: ranking.hits_at(1), lambda ranking: ranking.ids):
        ranking = Ranking(*tied, TiePolicy.BY_ID_ASCENDING)
        with pytest.raises(InconsistentInput) as raised:
            read(ranking)
        assert str(raised.value) in mixed
    # Ids of different tie groups are never compared, so a mixed column
    # whose ties do not mix types reads at every cut and in rank order.
    ranking = Ranking([1, "a"], [0.9, 0.5], [True, False], TiePolicy.BY_ID_ASCENDING)
    assert [ranking.hits_at(k) for k in range(3)] == [0, 1, 1]
    assert ranking.ids == (1, "a")
    # GIVEN never compares ids.
    ranking = Ranking(*tied, TiePolicy.GIVEN)
    assert (ranking.hits_at(1), ranking.ids) == (1, ("b", 1, "a", 2))


def test_ranking_is_immutable_and_shows_its_sizes():
    ranking = ranking_from_pattern("PPNPNNN")
    with pytest.raises(AttributeError, match="Ranking is immutable"):
        ranking.k1 = 4
    with pytest.raises(AttributeError):
        ranking.note = "x"
    assert ranking.k1 == 3
    assert repr(ranking) == "Ranking(n=7, k1=3, k2=4, tie_policy=TiePolicy.BY_ID_ASCENDING)"
    # The table is stored once, in ``table``; its fields are reads of it.
    assert "table" in Ranking.__slots__
    assert not set(Ranking.__slots__) & set(TieTable._fields)
    assert ranking.table == (ranking.group_ends, ranking.group_hits)
    assert ranking.table.n == 7
    assert ranking.table.k1 == 3
    assert ranking.table.k2 == 4


def test_ranking_equals_no_other_type():
    ranking = ranking_from_pattern("PNP")
    assert (ranking == "PNP") is False
    assert ranking.__eq__(3) is NotImplemented


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


@pytest.mark.parametrize("policy", list(TiePolicy))
def test_reversing_twice_gives_an_equal_ranking(policy):
    # The k1 = 2 cut splits the 0.5 tie group. The round trip comes back
    # under GIVEN, with the records in the same rank order, so it equals the
    # original and hashes alike; repr still names the policy.
    ranking = Ranking(["a", "b", "c", "d"], [0.9, 0.5, 0.5, 0.1], [True, False, True, False], policy)
    twice = reverse_classifier(reverse_classifier(ranking))
    assert twice == ranking
    assert hash(twice) == hash(ranking)
    assert twice.hits_at(ranking.k1) == ranking.hits_at(ranking.k1)
    assert repr(twice).endswith(f"tie_policy={TiePolicy.GIVEN})")


def test_rankings_of_one_record_set_differ_when_their_orders_do():
    columns = (["b", "a"], [0.5, 0.5], [True, False])
    given_order = Ranking(*columns, TiePolicy.GIVEN)
    by_id = Ranking(*columns, TiePolicy.BY_ID_ASCENDING)
    assert given_order.ids != by_id.ids
    assert given_order != by_id


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
