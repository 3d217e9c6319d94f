"""CSV ingestion for COMPAS-style score tables and decile summaries.

A usable row needs an id, a raw score, a decile in 1..10, and a binary
outcome. Rows with missing values are dropped (and counted per reason);
structurally bad values raise MalformedRow with the offending row number.
Duplicate ids keep the first occurrence. The loader reports everything it did
in a LoadSummary so filtering is auditable.

Canonical cells (a decile of "1".."10", an outcome of "0" or "1", a score
that float() reads as finite, a fresh non-empty id) are resolved by lookup;
any other row gets the full checks, which give the same result for it.
"""

from __future__ import annotations

import csv
import enum
import math
from collections import Counter
from dataclasses import dataclass, field
from itertools import compress
from pathlib import Path
from typing import Sequence

from .errors import EmptyAfterFilter, MalformedRow, MissingColumn
from .ranking import Ranking, TiePolicy

__all__ = [
    "Scale",
    "ColumnMap",
    "CompasRow",
    "ScoreTable",
    "LoadSummary",
    "LoadResult",
    "DecileCount",
    "BucketStats",
    "DecileReport",
    "load_csv",
    "to_ranking",
    "decile_report",
    "LOW_DECILES",
    "MEDIUM_DECILES",
    "HIGH_DECILES",
]

#: Decile buckets used in risk communication: 1-4 low, 5-7 medium, 8-10 high.
LOW_DECILES = (1, 2, 3, 4)
MEDIUM_DECILES = (5, 6, 7)
HIGH_DECILES = (8, 9, 10)

#: Cell contents treated as missing data rather than malformed data.
MISSING_MARKERS = {"", "na", "n/a", "nan", "none", "null"}


class Scale(enum.Enum):
    """Which recidivism risk scale a score table belongs to."""

    GENERAL = "general"
    VIOLENT = "violent"


@dataclass(frozen=True)
class ColumnMap:
    """Names of the four required columns in the input CSV."""

    id: str = "person_id"
    score: str = "raw_score"
    decile: str = "decile"
    outcome: str = "outcome"

    def required(self) -> tuple[str, ...]:
        return (self.id, self.score, self.decile, self.outcome)


@dataclass(frozen=True)
class CompasRow:
    """One score-table row; ``load_csv`` validates the values it reads."""

    person_id: str
    raw_score: float
    decile: int
    outcome: bool
    scale: Scale


@dataclass(eq=False)
class ScoreTable(Sequence[CompasRow]):
    """Score-table rows of one scale, held as parallel columns.

    It is a sequence of CompasRow, and each CompasRow is built only when a
    row is indexed or iterated; a slice is a list of them. ``to_ranking`` and
    ``decile_report`` read the columns directly.
    """

    scale: Scale
    ids: list[str] = field(default_factory=list)
    scores: list[float] = field(default_factory=list)
    deciles: list[int] = field(default_factory=list)
    labels: list[bool] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.ids)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        return CompasRow(
            self.ids[index], self.scores[index], self.deciles[index], self.labels[index], self.scale
        )

    def __iter__(self):
        scale = self.scale
        for row in zip(self.ids, self.scores, self.deciles, self.labels):
            yield CompasRow(*row, scale)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, ScoreTable):
            return (
                self.scale is other.scale
                and self.ids == other.ids
                and self.scores == other.scores
                and self.deciles == other.deciles
                and self.labels == other.labels
            )
        if isinstance(other, list):
            return list(self) == other
        return NotImplemented


@dataclass
class LoadSummary:
    """What the loader read, kept, and dropped (by reason)."""

    path: str
    scale: Scale
    rows_read: int = 0
    rows_kept: int = 0
    dropped: dict[str, int] = field(default_factory=dict)

    def drop(self, reason: str) -> None:
        self.dropped[reason] = self.dropped.get(reason, 0) + 1

    @property
    def rows_dropped(self) -> int:
        return sum(self.dropped.values())


@dataclass
class LoadResult:
    rows: ScoreTable
    summary: LoadSummary


#: Canonical decile and outcome cells, resolved by one lookup each.
_DECILES = {str(d): d for d in range(1, 11)}
_OUTCOMES = {"0": False, "1": True}


def _parse_outcome(raw: str) -> bool:
    if raw == "0":
        return False
    if raw == "1":
        return True
    raise ValueError(f"outcome must be 0 or 1, got {raw!r}")


def _checked_row(
    cells: tuple[str, str, str, str],
    row_number: int,
    seen: set[str],
    summary: LoadSummary,
    dedupe: bool,
    drop_missing: bool,
) -> tuple[str, float, int, bool] | None:
    """Every check on one row's id, score, decile and outcome cells.

    Returns the parsed row, or None when the row is dropped (counted in
    ``summary``); raises MalformedRow for a row that can be neither kept nor
    dropped. The caller adds the id to ``seen``.
    """

    person_id, score_text, decile_text, outcome_text = (cell.strip() for cell in cells)
    if not person_id:
        if drop_missing:
            summary.drop("missing id")
            return None
        raise MalformedRow(row_number, "missing id")
    missing = None
    if score_text.lower() in MISSING_MARKERS:
        missing = "missing score"
    elif decile_text.lower() in MISSING_MARKERS:
        missing = "missing decile"
    elif outcome_text.lower() in MISSING_MARKERS:
        missing = "missing outcome"
    if missing is not None:
        if drop_missing:
            summary.drop(missing)
            return None
        raise MalformedRow(row_number, missing)
    try:
        score = float(score_text)
        if not math.isfinite(score):
            raise ValueError(f"score {score_text!r} is not finite")
        decile = int(decile_text)
        if not 1 <= decile <= 10:
            raise ValueError(f"decile {decile_text!r} outside [1, 10]")
        outcome = _parse_outcome(outcome_text)
    except ValueError as exc:
        raise MalformedRow(row_number, str(exc)) from exc
    if person_id in seen:
        if dedupe:
            summary.drop("duplicate id")
            return None
        raise MalformedRow(row_number, f"duplicate id {person_id!r}")
    return person_id, score, decile, outcome


def load_csv(
    path: str | Path,
    column_map: ColumnMap = ColumnMap(),
    scale: Scale = Scale.GENERAL,
    *,
    delimiter: str = ",",
    dedupe: bool = True,
    drop_missing: bool = True,
) -> LoadResult:
    """Read and validate a score table.

    Missing score/decile/outcome cells drop the row when ``drop_missing`` is
    set (the default) and are counted in the summary; with it unset they raise
    MalformedRow. Unparseable non-missing values always raise MalformedRow.
    Duplicate ids keep the first occurrence when ``dedupe`` is set, else raise.
    Raises MissingColumn if the header lacks a mapped column, FileNotFoundError
    for a missing file, and EmptyAfterFilter when nothing survives.
    """

    path = Path(path)
    summary = LoadSummary(path=str(path), scale=scale)
    rows = ScoreTable(scale)
    ids, scores, deciles, labels = rows.ids, rows.scores, rows.deciles, rows.labels
    seen: set[str] = set()
    decile_of, outcome_of, isfinite, nan = _DECILES.get, _OUTCOMES.get, math.isfinite, math.nan
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle, delimiter=delimiter)
        header = next(reader, [])
        for column in column_map.required():
            if column not in header:
                raise MissingColumn(f"column {column!r} not in header {header}")
        # A repeated header name reads its last column, as csv.DictReader did.
        position = {name: index for index, name in enumerate(header)}
        id_at, score_at, decile_at, outcome_at = (position[c] for c in column_map.required())
        width = max(id_at, score_at, decile_at, outcome_at) + 1
        row_number = 1
        for raw in reader:
            if not raw:
                continue  # blank lines are neither read nor numbered
            row_number += 1
            if len(raw) < width:
                raw += [""] * (width - len(raw))  # a short row's absent cells are empty
            # Canonical cells resolve by lookup to the values the full checks
            # give them: float() strips what str.strip() strips, and the only
            # missing marker it parses is nan, which fails isfinite.
            person_id = raw[id_at].strip()
            decile = decile_of(raw[decile_at])
            outcome = outcome_of(raw[outcome_at])
            score = nan
            if decile is not None and outcome is not None and person_id and person_id not in seen:
                try:
                    score = float(raw[score_at])
                except ValueError:
                    pass
            if not isfinite(score):
                cells = (raw[id_at], raw[score_at], raw[decile_at], raw[outcome_at])
                checked = _checked_row(cells, row_number, seen, summary, dedupe, drop_missing)
                if checked is None:
                    continue
                person_id, score, decile, outcome = checked
            seen.add(person_id)
            ids.append(person_id)
            scores.append(score)
            deciles.append(decile)
            labels.append(outcome)
    if not rows:
        raise EmptyAfterFilter(f"no usable rows in {path}")
    summary.rows_read = row_number - 1
    summary.rows_kept = len(rows)
    return LoadResult(rows=rows, summary=summary)


def to_ranking(rows: ScoreTable) -> Ranking:
    """Rank a score table by descending raw score, ids breaking ties.

    ``Ranking`` checks the columns, so a hand-built table with an empty id
    raises EmptyInput and one with a NaN or infinite score NonFiniteScore.
    """

    return Ranking(rows.ids, rows.scores, rows.labels, TiePolicy.BY_ID_ASCENDING)


@dataclass(frozen=True)
class DecileCount:
    decile: int
    total: int
    positives: int

    @property
    def rate(self) -> float | None:
        """Positive share in this decile; None when the decile is empty."""
        if self.total == 0:
            return None
        return self.positives / self.total


@dataclass(frozen=True)
class BucketStats:
    """A decile bucket's totals; rate is None for an empty bucket."""

    deciles: tuple[int, ...]
    total: int
    positives: int

    @property
    def rate(self) -> float | None:
        if self.total == 0:
            return None
        return self.positives / self.total


@dataclass(frozen=True)
class DecileReport:
    """Per-decile counts plus the low/medium/high bucket summaries."""

    scale: Scale
    per_decile: tuple[DecileCount, ...]
    low: BucketStats
    medium: BucketStats
    high: BucketStats


def _bucket(per_decile: tuple[DecileCount, ...], deciles: tuple[int, ...]) -> BucketStats:
    total = sum(per_decile[d - 1].total for d in deciles)
    positives = sum(per_decile[d - 1].positives for d in deciles)
    return BucketStats(deciles=deciles, total=total, positives=positives)


def decile_report(rows: ScoreTable) -> DecileReport:
    """Tally outcomes per decile and per bucket, under the table's scale.

    Raises ValueError for a decile outside 1..10, which only a hand-built
    table can hold.
    """

    if not rows:
        raise EmptyAfterFilter("decile report needs at least one row")
    totals = Counter(rows.deciles)
    for decile in totals:
        if decile not in range(1, 11):
            raise ValueError(f"decile {decile!r} outside [1, 10]")
    positives = Counter(compress(rows.deciles, rows.labels))
    per_decile = tuple(
        DecileCount(decile=d, total=totals[d], positives=positives[d]) for d in range(1, 11)
    )
    return DecileReport(
        scale=rows.scale,
        per_decile=per_decile,
        low=_bucket(per_decile, LOW_DECILES),
        medium=_bucket(per_decile, MEDIUM_DECILES),
        high=_bucket(per_decile, HIGH_DECILES),
    )
