"""CSV ingestion for COMPAS-style score tables and decile summaries.

A usable row needs an id, a raw score, a decile in 1..10, and a binary
outcome. A row with a missing cell is dropped and a repeated id keeps its
first row, each counted per reason in a LoadSummary so filtering is
auditable; a non-missing value that cannot be parsed raises MalformedRow with
the offending row number. The kept rows are returned as a ScoreTable of
parallel columns.

Canonical cells (a decile of "1".."10", an outcome of "0" or "1", a score
that float() reads as finite, a fresh non-empty id) are resolved by lookup;
any other row gets the full checks, which give the same result for it.
"""

from __future__ import annotations

import csv
import enum
import math
from collections import Counter
from itertools import compress
from pathlib import Path
from types import MappingProxyType, SimpleNamespace
from typing import Mapping, NamedTuple

from .errors import EmptyAfterFilter, MalformedRow, MissingColumn
from .ranking import Ranking, TiePolicy

__all__ = [
    "Scale",
    "ColumnMap",
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


class ColumnMap(NamedTuple):
    """Names of the four required columns in the input CSV."""

    id: str = "person_id"
    score: str = "raw_score"
    decile: str = "decile"
    outcome: str = "outcome"

    def required(self) -> tuple[str, ...]:
        return (self.id, self.score, self.decile, self.outcome)


class ScoreTable(SimpleNamespace):
    """Score-table rows, held as parallel columns; the load summary names their scale.

    The loader appends to the lists, so this is the one mutable record, and
    not a tuple: ``len`` counts its rows, and ``SimpleNamespace`` supplies
    the field-by-field ``==`` and the repr.
    """

    def __init__(
        self,
        ids: list[str] | None = None,
        scores: list[float] | None = None,
        deciles: list[int] | None = None,
        labels: list[bool] | None = None,
    ) -> None:
        self.ids = [] if ids is None else ids
        self.scores = [] if scores is None else scores
        self.deciles = [] if deciles is None else deciles
        self.labels = [] if labels is None else labels

    def __len__(self) -> int:
        return len(self.ids)


class LoadSummary(NamedTuple):
    """What the loader read, kept, and dropped (by reason).

    The default ``dropped`` is an empty read-only mapping: a NamedTuple
    default is one object shared by every instance.
    """

    path: str
    scale: Scale
    rows_read: int = 0
    rows_kept: int = 0
    dropped: Mapping[str, int] = MappingProxyType({})

    @property
    def rows_dropped(self) -> int:
        return sum(self.dropped.values())


class LoadResult(NamedTuple):
    """The rows ``load_csv`` kept and the summary of what it read."""

    rows: ScoreTable
    summary: LoadSummary


_DECILE_SCALE = range(1, 11)
#: Canonical decile and outcome cells, resolved by one lookup each.
_DECILES = {str(d): d for d in _DECILE_SCALE}
_OUTCOMES = {"0": False, "1": True}


def _checked_row(
    cells: tuple[str, str, str, str],
    row_number: int,
    dropped: Counter[str],
) -> tuple[str, float, int, bool] | None:
    """Every check on one row's id, score, decile and outcome cells.

    Returns the parsed row, or None when the row is dropped for a missing
    cell (counted by reason in ``dropped``); raises MalformedRow for a
    non-missing value that cannot be parsed. The caller drops a repeated id,
    after these checks, so a malformed repeat still raises.
    """

    person_id, score_text, decile_text, outcome_text = map(str.strip, cells)
    missing = None
    if not person_id:
        missing = "missing id"
    elif score_text.lower() in MISSING_MARKERS:
        missing = "missing score"
    elif decile_text.lower() in MISSING_MARKERS:
        missing = "missing decile"
    elif outcome_text.lower() in MISSING_MARKERS:
        missing = "missing outcome"
    if missing is not None:
        dropped[missing] += 1
        return None
    try:
        score = float(score_text)
        if not math.isfinite(score):
            raise ValueError(f"score {score_text!r} is not finite")
        decile = int(decile_text)
        if decile not in _DECILE_SCALE:
            raise ValueError(f"decile {decile_text!r} outside [1, 10]")
        outcome = _OUTCOMES.get(outcome_text)
        if outcome is None:
            raise ValueError(f"outcome must be 0 or 1, got {outcome_text!r}")
    except ValueError as exc:
        raise MalformedRow(row_number, str(exc)) from exc
    return person_id, score, decile, outcome


def load_csv(
    path: str | Path,
    column_map: ColumnMap = ColumnMap(),
    scale: Scale = Scale.GENERAL,
    *,
    delimiter: str = ",",
) -> LoadResult:
    """Read and validate a score table.

    A row with a missing id, score, decile or outcome is dropped and a
    repeated id keeps its first row; the summary counts each drop by reason.
    A non-missing value that cannot be parsed, or a row the csv module cannot
    read, raises MalformedRow. A leading byte order mark is ignored. ``scale``
    is recorded in the summary.
    Raises MissingColumn if the header lacks a mapped column, FileNotFoundError
    for a missing file, and EmptyAfterFilter when nothing survives.
    """

    path = Path(path)
    rows = ScoreTable()
    ids, scores, deciles, labels = rows.ids, rows.scores, rows.deciles, rows.labels
    seen: set[str] = set()
    dropped: Counter[str] = Counter()
    decile_of, outcome_of, isfinite, nan = _DECILES.get, _OUTCOMES.get, math.isfinite, math.nan
    # "utf-8-sig" drops a leading byte order mark, as spreadsheets write one.
    with open(path, newline="", encoding="utf-8-sig") as handle:
        reader = csv.reader(handle, delimiter=delimiter)
        row_number = 0  # rows read so far; the header is row 1
        try:
            header = next(reader, [])
            row_number = 1
            for column in column_map.required():
                if column not in header:
                    raise MissingColumn(f"column {column!r} not in header {header}")
            # A repeated header name reads its last column, as csv.DictReader did.
            position = {name: index for index, name in enumerate(header)}
            id_at, score_at, decile_at, outcome_at = (position[c] for c in column_map.required())
            width = max(id_at, score_at, decile_at, outcome_at) + 1
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
                if decile is not None and outcome is not None and person_id:
                    try:
                        score = float(raw[score_at])
                    except ValueError:
                        pass
                if not isfinite(score):
                    cells = (raw[id_at], raw[score_at], raw[decile_at], raw[outcome_at])
                    checked = _checked_row(cells, row_number, dropped)
                    if checked is None:
                        continue
                    person_id, score, decile, outcome = checked
                if person_id in seen:
                    dropped["duplicate id"] += 1
                    continue
                seen.add(person_id)
                ids.append(person_id)
                scores.append(score)
                deciles.append(decile)
                labels.append(outcome)
        except csv.Error as exc:
            # A NUL byte (before Python 3.11) or a cell over csv.field_size_limit()
            # stops csv inside the row after the last one read.
            raise MalformedRow(row_number + 1, str(exc)) from exc
    if not rows:
        raise EmptyAfterFilter("no usable rows")
    summary = LoadSummary(str(path), scale, row_number - 1, len(rows), dict(dropped))
    return LoadResult(rows=rows, summary=summary)


def to_ranking(rows: ScoreTable) -> Ranking:
    """Rank a score table by descending raw score, ids breaking ties.

    ``Ranking`` checks the columns, so a hand-built table with an empty id
    raises EmptyInput and one with a NaN or infinite score NonFiniteScore.
    """

    return Ranking(rows.ids, rows.scores, rows.labels, TiePolicy.BY_ID_ASCENDING)


def _rate(counts: DecileCount | BucketStats) -> float | None:
    """Positive share of a decile or bucket; None when it is empty."""

    return None if counts.total == 0 else counts.positives / counts.total


class DecileCount(NamedTuple):
    """One decile's totals; rate is None for an empty decile."""

    decile: int
    total: int
    positives: int

    rate = property(_rate)


class BucketStats(NamedTuple):
    """A decile bucket's totals; rate is None for an empty bucket."""

    deciles: tuple[int, ...]
    total: int
    positives: int

    rate = property(_rate)


class DecileReport(NamedTuple):
    """Per-decile counts; the low, medium and high bucket summaries are
    read-only sums over them, so ``_replace`` cannot leave one stale."""

    per_decile: tuple[DecileCount, ...]

    low = property(lambda self: _bucket(self.per_decile, LOW_DECILES))
    medium = property(lambda self: _bucket(self.per_decile, MEDIUM_DECILES))
    high = property(lambda self: _bucket(self.per_decile, HIGH_DECILES))


def _bucket(per_decile: tuple[DecileCount, ...], deciles: tuple[int, ...]) -> BucketStats:
    total = sum(per_decile[d - 1].total for d in deciles)
    positives = sum(per_decile[d - 1].positives for d in deciles)
    return BucketStats(deciles=deciles, total=total, positives=positives)


def decile_report(rows: ScoreTable) -> DecileReport:
    """Tally outcomes per decile; the report sums them into its buckets.

    Raises ValueError for a decile outside 1..10, which only a hand-built
    table can hold.
    """

    if not rows:
        raise EmptyAfterFilter("decile report needs at least one row")
    totals = Counter(rows.deciles)
    for decile in totals:
        if decile not in _DECILE_SCALE:
            raise ValueError(f"decile {decile!r} outside [1, 10]")
    positives = Counter(compress(rows.deciles, rows.labels))
    per_decile = tuple(
        DecileCount(decile=d, total=totals[d], positives=positives[d]) for d in _DECILE_SCALE
    )
    return DecileReport(per_decile)
