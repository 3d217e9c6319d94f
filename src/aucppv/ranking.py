"""Scored, labeled records and the rankings a classifier induces on them.

A classifier is modeled extensionally: a finite set of records, each with a
real-valued score and a binary ground-truth label, sorted by descending score.
Every downstream quantity (confusion counts, ROC, AUC, PPV at a cut) is a
function of that sorted sequence alone.
"""

from __future__ import annotations

import enum
import math
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate, compress, islice
from operator import itemgetter, ne
from typing import Iterable

from .errors import DuplicateId, EmptyInput, NonFiniteScore

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


@dataclass(frozen=True)
class ScoredRecord:
    """One record: unique id, finite real score, binary label.

    ``positive`` is True for the positive class (the outcome the classifier
    tries to place on top, e.g. reoffended within two years).
    """

    id: str
    score: float
    positive: bool

    def __post_init__(self) -> None:
        if not self.id:
            raise EmptyInput("record id must be a non-empty string")
        if not math.isfinite(self.score):
            raise NonFiniteScore(f"record {self.id!r} has non-finite score {self.score!r}")


class Ranking:
    """Records sorted by descending score under a fixed tie policy, as columns.

    ``ids``, ``scores`` and ``labels`` are parallel tuples in rank order
    (``labels[i]`` is True for a positive). k1 counts positive records, k2
    negative ones; k1 + k2 = n. The tie-group table is built once:
    ``group_ends[g]`` is the end offset of the g-th run of equal scores and
    ``group_hits[g]`` the positives in the records before that offset, so the
    sweeps read O(groups) entries instead of walking records.

    Constructing a Ranking from records validates them; ``build_ranking``,
    ``to_ranking`` and ``reverse_classifier`` build theirs already sorted and
    skip that re-check. A Ranking is immutable.
    """

    __slots__ = ("ids", "scores", "labels", "k1", "k2", "tie_policy", "group_ends", "group_hits")

    ids: tuple[str, ...]
    scores: tuple[float, ...]
    labels: tuple[bool, ...]
    k1: int
    k2: int
    tie_policy: TiePolicy
    group_ends: tuple[int, ...]
    group_hits: tuple[int, ...]

    def __init__(
        self,
        items: Iterable[ScoredRecord],
        k1: int,
        k2: int,
        tie_policy: TiePolicy,
    ) -> None:
        items = tuple(items)
        if not items:
            raise EmptyInput("a ranking needs at least one record")
        if k1 + k2 != len(items):
            raise ValueError("class counts do not sum to the number of records")
        if k1 != sum(1 for rec in items if rec.positive):
            raise ValueError("k1 does not match the number of positive records")
        for earlier, later in zip(items, items[1:]):
            if earlier.score < later.score:
                raise ValueError("ranking is not sorted by descending score")
        self._fill(
            tuple(rec.id for rec in items),
            tuple(rec.score for rec in items),
            tuple(rec.positive for rec in items),
            tie_policy,
        )

    @classmethod
    def _presorted(
        cls,
        ids: tuple[str, ...],
        scores: tuple[float, ...],
        labels: tuple[bool, ...],
        tie_policy: TiePolicy,
    ) -> Ranking:
        """A ranking from non-empty columns already in rank order; not re-checked."""

        ranking = cls.__new__(cls)
        ranking._fill(ids, scores, labels, tie_policy)
        return ranking

    def _fill(self, ids, scores, labels, tie_policy: TiePolicy) -> None:
        n = len(ids)
        # Offsets where the score changes, then n: the end of every tie group.
        ends = list(compress(range(1, n), map(ne, scores, islice(scores, 1, None))))
        ends.append(n)
        positives_before = list(accumulate(labels, initial=0))
        k1 = positives_before[n]
        assign = object.__setattr__
        assign(self, "ids", ids)
        assign(self, "scores", scores)
        assign(self, "labels", labels)
        assign(self, "k1", k1)
        assign(self, "k2", n - k1)
        assign(self, "tie_policy", tie_policy)
        assign(self, "group_ends", tuple(ends))
        assign(self, "group_hits", tuple(positives_before[end] for end in ends))

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
    def n(self) -> int:
        return len(self.ids)

    @property
    def items(self) -> tuple[ScoredRecord, ...]:
        """The records in rank order, built on each access."""

        return tuple(map(ScoredRecord, self.ids, self.scores, self.labels))

    def hits_at(self, k: int) -> int:
        """Positives among the top k records, k in 0..n."""

        # Whole groups that end at or before the cut, then the cut's share of
        # the group it falls inside.
        g = bisect_right(self.group_ends, k)
        start, before = (self.group_ends[g - 1], self.group_hits[g - 1]) if g else (0, 0)
        return before + self.labels[start:k].count(True)


def _rank(ids, scores, labels, tie_policy: TiePolicy) -> Ranking:
    """Sort parallel columns into a Ranking.

    Raises EmptyInput for empty columns and DuplicateId when two records
    share an id. Scores must already be finite.
    """

    n = len(ids)
    if n == 0:
        raise EmptyInput("cannot rank an empty record set")
    if len(set(ids)) != n:
        seen: set[str] = set()
        for rec_id in ids:
            if rec_id in seen:
                raise DuplicateId(f"duplicate record id {rec_id!r}")
            seen.add(rec_id)
    order = list(range(n))
    if tie_policy is TiePolicy.BY_ID_ASCENDING:
        order.sort(key=ids.__getitem__)
    # A stable sort on score alone keeps the order inside ties: ascending id
    # after the sort above, the supplied order under GIVEN.
    order.sort(key=scores.__getitem__, reverse=True)
    pick = itemgetter(*order) if n > 1 else lambda column: (column[0],)
    return Ranking._presorted(pick(ids), pick(scores), pick(labels), tie_policy)


def build_ranking(
    records: Iterable[ScoredRecord],
    tie_policy: TiePolicy = TiePolicy.BY_ID_ASCENDING,
) -> Ranking:
    """Sort records by descending score into a Ranking.

    Raises EmptyInput for an empty iterable and DuplicateId when two records
    share an id. Scores were already validated finite by ScoredRecord.
    """

    items = list(records)
    return _rank(
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

    return Ranking._presorted(
        ranking.ids[::-1],
        tuple(-score for score in reversed(ranking.scores)),
        tuple(not label for label in reversed(ranking.labels)),
        TiePolicy.GIVEN,
    )
