"""Scored, labeled records and the rankings a classifier induces on them.

A classifier is modeled extensionally: a finite set of records, each with a
real-valued score and a binary ground-truth label, sorted by descending score.
Every downstream quantity (confusion counts, ROC, AUC, PPV at a cut) is a
function of that sorted sequence alone.
"""

from __future__ import annotations

import enum
import math
from bisect import bisect_left
from collections import Counter
from functools import cmp_to_key
from itertools import accumulate, compress, islice, repeat
from operator import index, itemgetter, ne
from typing import Iterable, NamedTuple

from .errors import CutOutOfRange, DuplicateId, EmptyInput, InconsistentInput, NonFiniteScore

__all__ = [
    "TiePolicy",
    "ScoredRecord",
    "Ranking",
    "build_ranking",
    "reverse_classifier",
]


class TiePolicy(enum.Enum):
    """How records with equal scores are totally ordered.

    BY_ID_ASCENDING breaks score ties by ascending id, which makes a ranking a
    deterministic function of its record set. GIVEN preserves the order in
    which the records were supplied (stable sort on score only); it is also
    used for rankings whose order is inherited, e.g. from reversal.
    """

    BY_ID_ASCENDING = "by-id-ascending"
    GIVEN = "given"


class ScoredRecord(
    NamedTuple("ScoredRecord", [("id", str), ("score", float), ("positive", bool)])
):
    """One record: unique id, finite real score, binary label.

    ``positive`` is True for the positive class (the outcome the classifier
    tries to place on top, e.g. reoffended within two years). A record passes
    the one rule Ranking applies to each of its records: a bad id, label or
    score raises what Ranking raises for it, with the same text, and any
    other hashable id, 0 included, is accepted.
    """

    __slots__ = ()

    def __init__(self, id: str, score: float, positive: bool) -> None:
        _check_record(id, score, positive)


class Ranking:
    """Records sorted by descending score under a fixed tie policy, as columns.

    k1 counts positive records, k2 negative ones; k1 + k2 = n. The tie-group
    table is built from the score and label columns as given, without putting
    the records in order: ``group_ends[g]`` is the end offset of the g-th run
    of equal scores in rank order and ``group_hits[g]`` the positives before
    that offset, so the sweeps read O(groups) entries instead of walking
    records. When two positives share a score, the scores are tied: the table
    counts the records at each score and sorts only the distinct scores,
    O(n + d log d) for d of them. Otherwise it sorts the bare scores, which
    is faster when most of them are distinct. Either way a group's level is
    its first score in column order, so 0.0 and -0.0 share a group.
    ``hits_at``, ``ppv`` and ``reporting`` find the tie group a cut falls in
    by one lookup, which checks the cut once (0 is a legal cut only for
    ``hits_at``), and ``hits_at`` puts only its members in tie order, once
    per group. ``ids``, ``scores`` and ``labels`` (parallel tuples in rank
    order, ``labels[i]`` True for a positive) are built on first access, and
    so are ``items``, ``==`` and ``hash``, which read them.

    ``Ranking(ids, scores, labels, tie_policy)`` is the only constructor. It
    takes parallel, sized columns in any order and raises InconsistentInput
    for columns of different lengths, EmptyInput for empty columns, what
    ScoredRecord raises for a bad record and DuplicateId for an id that an
    earlier record holds; of several bad records, the first in column order
    is named. Records of equal score rank by ascending id under
    BY_ID_ASCENDING and in column order under GIVEN. Under BY_ID_ASCENDING,
    two ids of one tie group that ``<`` cannot order raise InconsistentInput
    from the first sort by id that meets them: ``hits_at`` sorts the ids of
    the group a cut splits, the columns those of every group; ids of
    different groups are never compared. A Ranking is immutable.
    """

    __slots__ = (
        "n", "k1", "k2", "tie_policy", "group_ends", "group_hits",
        "_columns", "_tie_key", "_levels", "_tie_hits", "_ordered",
    )

    n: int
    k1: int
    k2: int
    tie_policy: TiePolicy
    group_ends: tuple[int, ...]
    group_hits: tuple[int, ...]

    def __init__(self, ids, scores, labels, tie_policy: TiePolicy) -> None:
        n = len(ids)
        if n == 0:
            raise EmptyInput("cannot rank an empty record set")
        if len(scores) != n or len(labels) != n:
            raise InconsistentInput(
                f"columns differ in length: {n} ids, {len(scores)} scores, {len(labels)} labels"
            )
        # Bulk checks at C speed; when one fails, the walk names the first bad record.
        try:
            distinct = set(ids)  # before the copy to tuples: the faster order
            ids, scores, labels = tuple(ids), tuple(scores), tuple(labels)
            sound = len(distinct) == n and "" not in distinct and {False, True}.issuperset(labels)
            if sound:
                positives, levels, ends = _tie_groups(scores, labels)
                # Every score is one of the levels, so checking them checks every record.
                sound = all(map(math.isfinite, levels))
        except (TypeError, ValueError, ArithmeticError):
            _name_bad_record(ids, scores, labels)
            raise
        if not sound:
            _name_bad_record(ids, scores, labels)
        hits = tuple(accumulate(map(positives.get, levels, repeat(0))))
        assign = object.__setattr__
        assign(self, "n", n)
        assign(self, "k1", hits[-1])
        assign(self, "k2", n - hits[-1])
        assign(self, "tie_policy", tie_policy)
        assign(self, "group_ends", tuple(ends))
        assign(self, "group_hits", hits)
        assign(self, "_columns", (ids, scores, labels))
        # Positions of equal score rank by this key; None keeps column order.
        by_id = tie_policy is TiePolicy.BY_ID_ASCENDING
        assign(self, "_tie_key", ids.__getitem__ if by_id else None)
        assign(self, "_levels", levels)
        assign(self, "_tie_hits", {})
        assign(self, "_ordered", None)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError("Ranking is immutable")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Ranking):
            return NotImplemented
        return (
            self.tie_policy is other.tie_policy
            and self.labels == other.labels
            and self.scores == other.scores
            and self.ids == other.ids
        )

    def __hash__(self) -> int:
        return hash((self.ids, self.scores, self.labels, self.tie_policy))

    def __repr__(self) -> str:
        return f"Ranking(n={self.n}, k1={self.k1}, k2={self.k2}, tie_policy={self.tie_policy})"

    @property
    def ids(self) -> tuple[str, ...]:
        return self._rank_order()[0]

    @property
    def scores(self) -> tuple[float, ...]:
        return self._rank_order()[1]

    @property
    def labels(self) -> tuple[bool, ...]:
        return self._rank_order()[2]

    @property
    def items(self) -> tuple[ScoredRecord, ...]:
        """The records in rank order, built on each access."""

        return tuple(map(ScoredRecord, *self._rank_order()))

    def _rank_order(self) -> tuple[tuple, tuple, tuple]:
        """The columns in rank order, built on the first call: positions
        sorted stably by descending score, then each tie group's members by
        the tie key, so ids are compared only inside a tie group."""

        if self._ordered is None:
            ids, scores, labels = self._columns
            order = sorted(range(self.n), key=scores.__getitem__, reverse=True)
            if self._tie_key is not None:
                start = 0
                for end in self.group_ends:
                    if end - start > 1:
                        order[start:end] = self._tie_sorted(order[start:end])
                    start = end
            pick = itemgetter(*order) if self.n > 1 else lambda column: (column[0],)
            object.__setattr__(self, "_ordered", (pick(ids), pick(scores), pick(labels)))
        return self._ordered

    def hits_at(self, k: int) -> int:
        """Positives among the top k records; CutOutOfRange unless k is an integer in 0..n."""

        return self._cut_hits(k, 0)

    def _cut_hits(self, k: int, least: int = 1) -> int:
        """Positives among the top k off one cut lookup; CutOutOfRange unless k is in least..n."""

        g, before, taken, size = self._cut_group(k, least)
        if 0 < taken < size:
            return before + self._hits_in_tie_order(g, size)[taken]
        return self.group_hits[g] if taken else before

    def _cut_group(self, k: int, least: int = 1) -> tuple[int, int, int, int]:
        """(g, positives before it, members the cut takes, size) of the tie group g
        holding position k - 1 (group 0 at k = 0); CutOutOfRange unless k is in least..n."""

        try:
            cut = _integer(k)
        except TypeError:
            raise CutOutOfRange(f"cut {k!r} is not an integer") from None
        if not least <= cut <= self.n:
            raise CutOutOfRange(f"cut {k} outside [{least}, {self.n}]")
        ends = self.group_ends
        g = bisect_left(ends, k)
        start, before = (ends[g - 1], self.group_hits[g - 1]) if g else (0, 0)
        return g, before, k - start, ends[g] - start

    def _hits_in_tie_order(self, g: int, size: int) -> list[int]:
        """Positives among the first j members of tie group g, j = 0..size,
        with the members in tie order; built once per group."""

        hits = self._tie_hits.get(g)
        if hits is None:
            _, scores, labels = self._columns
            find, level, at = scores.index, self._levels[g], -1
            members = []
            for _ in range(size):
                at = find(level, at + 1)
                members.append(at)
            members = self._tie_sorted(members)
            positives = map(bool, map(labels.__getitem__, members))
            hits = self._tie_hits[g] = list(accumulate(positives, initial=0))
        return hits

    def _tie_sorted(self, positions: Iterable[int]) -> list[int]:
        """The positions sorted by the tie key. When ``<`` fails on two ids, a
        second sort, by a comparator, names them in InconsistentInput."""

        try:
            return sorted(positions, key=self._tie_key)
        except TypeError:

            def compare(a, b) -> int:
                try:
                    return (b < a) - (a < b)
                except TypeError:
                    raise InconsistentInput(f"record ids {a!r} and {b!r} cannot be ordered") from None

            sorted(map(self._columns[0].__getitem__, positions), key=cmp_to_key(compare))
            raise


def _tie_groups(scores: tuple, labels: tuple) -> tuple[Counter, tuple, list[int]]:
    """The tie groups of the columns (see Ranking): the positives at each
    score, the distinct scores in descending order and each group's end
    offset in rank order."""

    n = len(scores)
    positives = Counter(compress(scores, labels))
    if len(positives) < positives.total():
        # Two positives share a score: count the records at each level and
        # sort only the distinct levels.
        sizes = Counter(scores)
        levels = tuple(sorted(sizes, reverse=True))
        ends = list(accumulate(map(sizes.__getitem__, levels)))
    else:
        ordered = sorted(scores, reverse=True)
        # Offsets where the sorted score changes, then n: the end of every
        # tie group; a group's level is the score at its start.
        ends = list(compress(range(1, n), map(ne, ordered, islice(ordered, 1, None))))
        levels = tuple(map(ordered.__getitem__, [0, *ends]))
        ends.append(n)
    return positives, levels, ends


def _check_record(rec_id, score, label) -> None:
    """The one record rule, in this order: InconsistentInput for an unhashable
    id, EmptyInput for one equal to ``""``, InconsistentInput for a label that
    is not True or False (0 and 1 pass) and NonFiniteScore unless the score is
    a finite real number that a float can hold."""

    try:
        hash(rec_id)
    except TypeError:
        raise InconsistentInput(f"record id {rec_id!r} is unhashable") from None
    if rec_id == "":
        raise EmptyInput("record id must be a non-empty string")
    if label not in (False, True):
        raise InconsistentInput(f"record {rec_id!r} has label {label!r}, not True or False")
    try:
        finite = math.isfinite(score)
    except TypeError:
        raise NonFiniteScore(f"record {rec_id!r} has score {score!r}, not a real number") from None
    except OverflowError:  # an int or Fraction past the float range; its repr may be huge
        raise NonFiniteScore(f"record {rec_id!r} has a score too large for a float") from None
    except ValueError:  # a signalling NaN, which no float holds
        finite = False
    if not finite:
        raise NonFiniteScore(f"record {rec_id!r} has non-finite score {score!r}")


def _name_bad_record(ids, scores, labels) -> None:
    """Raise for the first bad record in column order: the record rule, then
    an id that an earlier record holds."""

    seen = set()
    for rec_id, score, label in zip(ids, scores, labels):
        _check_record(rec_id, score, label)
        if rec_id in seen:
            raise DuplicateId(f"duplicate record id {rec_id!r}")
        seen.add(rec_id)


def _integer(value) -> int:
    """``value`` as an int, the one rule for counts, cuts and class sizes: TypeError
    for what ``operator.index`` refuses (2.0, "2") and for a bool, a label here."""

    if value.__class__ is bool:
        raise TypeError("'bool' object cannot be interpreted as an integer")
    return index(value)


def build_ranking(
    records: Iterable[ScoredRecord],
    tie_policy: TiePolicy = TiePolicy.BY_ID_ASCENDING,
) -> Ranking:
    """Sort records by descending score into a Ranking.

    Raises EmptyInput for an empty iterable and DuplicateId when two records
    share an id.
    """

    items = list(records)
    return Ranking(
        [rec.id for rec in items],
        [rec.score for rec in items],
        [rec.positive for rec in items],
        tie_policy,
    )


def reverse_classifier(ranking: Ranking) -> Ranking:
    """The classifier with reversed order and swapped class roles.

    Scores are negated (an exact involution for floats), the sequence is
    reversed, and each label is flipped, so the old negatives become the new
    positives. Applying this twice returns the original ranking. The result
    carries TiePolicy.GIVEN because reversal inverts the id order inside tie
    groups.
    """

    return Ranking(
        ranking.ids[::-1],
        tuple(-score for score in reversed(ranking.scores)),
        tuple(not label for label in reversed(ranking.labels)),
        TiePolicy.GIVEN,
    )
