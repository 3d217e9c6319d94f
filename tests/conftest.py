"""Shared fixtures and independent test-side oracles.

The exact-rational AUC counter here is written from the pairwise
definition alone, deliberately independent of the library internals,
so it can certify the production implementations. ``reference_load_csv``
runs every row check on every row, the reference for the loader's lookup
path. ``reference_rank_order`` puts every record in rank order, the
reference for the rankings that build only their tie-group table.
``enumerate_by_combinations`` visits every arrangement, the reference for
the oracle that counts them by Gaussian binomials. ``ppvk_hits_by_bisection``
searches the hit levels, the reference for the envelope inverses that solve
for them in closed form.
"""

from __future__ import annotations

import bisect
import csv
import functools
import itertools
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest

from aucppv import (
    ColumnMap,
    Ranking,
    Scale,
    ScoredRecord,
    TiePolicy,
    build_ranking,
)
from aucppv.errors import EmptyAfterFilter, MalformedRow, MissingColumn
from aucppv.ingest import MISSING_MARKERS, LoadResult, LoadSummary, ScoreTable

# The seven-element worked example: positives at ranks 1, 3 and 7.
# Correctly ordered pairs: 4 + 3 + 0 = 7 of 3*4 = 12, so AUC = 7/12,
# and the top-3 cut captures 2 of 3 positives (PPV_3 = 2/3).
WORKED_EXAMPLE = "PNPNNNP"


def ranking_from_pattern(pattern: str, scores=None, tie_policy=TiePolicy.BY_ID_ASCENDING) -> Ranking:
    """Build a ranking whose descending-score order spells out ``pattern``."""
    n = len(pattern)
    if scores is None:
        scores = [float(n - i) for i in range(n)]
    records = [
        ScoredRecord(id=f"r{i:04d}", score=scores[i], positive=ch == "P")
        for i, ch in enumerate(pattern)
    ]
    return build_ranking(records, tie_policy=tie_policy)


def pattern_of(ranking: Ranking) -> str:
    return "".join("P" if rec.positive else "N" for rec in ranking.items)


def exact_auc(ranking: Ranking) -> Fraction:
    """Exact-rational pairwise AUC, straight from the definition."""
    positives = [(rec.score, i) for i, rec in enumerate(ranking.items) if rec.positive]
    negatives = [(rec.score, i) for i, rec in enumerate(ranking.items) if not rec.positive]
    if not positives or not negatives:
        raise ValueError("need both classes")
    doubled = 0
    for p_score, _ in positives:
        for n_score, _ in negatives:
            if p_score > n_score:
                doubled += 2
            elif p_score == n_score:
                doubled += 1
    return Fraction(doubled, 2 * len(positives) * len(negatives))


def exact_hits(ranking: Ranking, k: int) -> int:
    return sum(1 for rec in ranking.items[:k] if rec.positive)


def all_arrangements(k1: int, k2: int):
    """Yield every P/N pattern with k1 positives and k2 negatives."""
    n = k1 + k2
    for pos in itertools.combinations(range(n), k1):
        yield "".join("P" if i in pos else "N" for i in range(n))


def fraction_auc_max(hits: int, k1: int, k2: int) -> Fraction:
    """auc_max(a) = 1 - (k1/k2)(1 - a)^2 at a = hits/k1, in Fractions; k1 <= k2."""
    miss = Fraction(k1 - hits, k1)
    return 1 - Fraction(k1, k2) * miss * miss


def fraction_auc_min(hits: int, k1: int, k2: int) -> Fraction:
    """auc_min(a) = a(1 - (k1/k2)(1 - a)) at a = hits/k1, in Fractions; k1 <= k2."""
    a = Fraction(hits, k1)
    return a * (1 - Fraction(k1, k2) * (1 - a))


def pairwise_per_hits(k1: int, k2: int) -> dict[int, tuple[int, Fraction, Fraction]]:
    """hits -> (count, min AUC, max AUC) over every arrangement of k1 positives
    among k1 + k2 positions, each AUC counted pair by pair."""
    levels: dict[int, tuple[int, Fraction, Fraction]] = {}
    for pattern in all_arrangements(k1, k2):
        positives = [i for i, ch in enumerate(pattern) if ch == "P"]
        negatives = [i for i, ch in enumerate(pattern) if ch == "N"]
        auc = Fraction(sum(1 for p in positives for q in negatives if p < q), k1 * k2)
        hits = pattern[:k1].count("P")
        count, lo, hi = levels.get(hits, (0, auc, auc))
        levels[hits] = (count + 1, min(lo, auc), max(hi, auc))
    return levels


def enumerate_by_combinations(k1: int, k2: int) -> dict[int, dict[int, int]]:
    """hits -> {correctly ordered pairs: arrangements} over every placement of
    k1 positives among k1 + k2 positions.

    Positions are 0-based from the top. The positive at p_j is ordered above
    the n-1-p_j records after it, k1-1-j of which are positives, so the pair
    count is k1*(n-1) - k1*(k1-1)/2 - sum(p_j); the hits are the positions
    below k1.
    """
    n = k1 + k2
    base = k1 * (n - 1) - k1 * (k1 - 1) // 2
    levels: dict[int, dict[int, int]] = {}
    for positions in itertools.combinations(range(n), k1):
        level = levels.setdefault(bisect.bisect_left(positions, k1), {})
        pairs = base - sum(positions)
        level[pairs] = level.get(pairs, 0) + 1
    return levels


@functools.cache
def gaussian_binomial(m: int, j: int) -> tuple[int, ...]:
    """Coefficients of [m choose j]_q, lowest degree first: coefficient d
    counts the j-subsets of m positions whose sum exceeds the least by d.

    By [m choose j]_q = [m-1 choose j-1]_q + q^j [m-1 choose j]_q, added
    coefficient by coefficient, for 0 <= j <= m."""
    if j in (0, m):
        return (1,)
    taken, skipped = gaussian_binomial(m - 1, j - 1), gaussian_binomial(m - 1, j)
    coefficients = list(taken) + [0] * (j + len(skipped) - len(taken))
    for degree, count in enumerate(skipped):
        coefficients[degree + j] += count
    return tuple(coefficients)


def ppvk_hits_by_bisection(auc, ratio) -> tuple[int, int]:
    """(ppvk_min_given_auc hits, ppvk_max_given_auc hits) on the ratio's own
    grid, by bisection over the hit levels with Fraction comparisons.

    On the ratio with the smaller class k1 first, the min is the last level
    whose auc_max = k1*k2 - (k1 - h)^2 stays at or below auc * k1*k2 (0 when
    none does), the max the first level whose auc_min = h * (k2 - k1 + h)
    reaches it; both envelopes increase in h. A ratio with the larger class
    first shifts both by the difference of the class sizes.
    """
    k1, k2 = sorted((ratio.k1, ratio.k2))
    bar = Fraction(auc) * k1 * k2
    lo, hi = 0, k1
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if k1 * k2 - (k1 - mid) ** 2 <= bar:
            lo = mid
        else:
            hi = mid - 1
    bottom = lo
    lo, hi = 0, k1
    while lo < hi:
        mid = (lo + hi) // 2
        if mid * (k2 - k1 + mid) >= bar:
            hi = mid
        else:
            lo = mid + 1
    shift = ratio.k1 - k1
    return bottom + shift, lo + shift


def reference_load_csv(
    path: str | Path,
    column_map: ColumnMap = ColumnMap(),
    scale: Scale = Scale.GENERAL,
    *,
    delimiter: str = ",",
) -> LoadResult:
    """``load_csv`` with every check run on every row, as it read before
    canonical cells were resolved by lookup."""

    def parse_outcome(raw: str) -> bool:
        if raw == "0":
            return False
        if raw == "1":
            return True
        raise ValueError(f"outcome must be 0 or 1, got {raw!r}")

    path = Path(path)
    rows = ScoreTable()
    seen: set[str] = set()
    rows_read = 0
    dropped: dict[str, int] = {}

    def drop(reason: str) -> None:
        dropped[reason] = dropped.get(reason, 0) + 1

    with open(path, newline="", encoding="utf-8-sig") as handle:
        reader = csv.reader(handle, delimiter=delimiter)
        header = next(reader, [])
        for column in column_map.required():
            if column not in header:
                raise MissingColumn(f"column {column!r} not in header {header}")
        position = {name: index for index, name in enumerate(header)}
        id_at, score_at, decile_at, outcome_at = (position[c] for c in column_map.required())
        width = max(id_at, score_at, decile_at, outcome_at) + 1
        row_number = 1
        for raw in reader:
            if not raw:
                continue
            row_number += 1
            rows_read += 1
            if len(raw) < width:
                raw += [""] * (width - len(raw))
            person_id = raw[id_at].strip()
            score_text = raw[score_at].strip()
            decile_text = raw[decile_at].strip()
            outcome_text = raw[outcome_at].strip()
            if not person_id:
                drop("missing id")
                continue
            if score_text.lower() in MISSING_MARKERS:
                drop("missing score")
                continue
            if decile_text.lower() in MISSING_MARKERS:
                drop("missing decile")
                continue
            if outcome_text.lower() in MISSING_MARKERS:
                drop("missing outcome")
                continue
            try:
                score = float(score_text)
                if not math.isfinite(score):
                    raise ValueError(f"score {score_text!r} is not finite")
                decile = int(decile_text)
                if not 1 <= decile <= 10:
                    raise ValueError(f"decile {decile_text!r} outside [1, 10]")
                outcome = parse_outcome(outcome_text)
            except ValueError as exc:
                raise MalformedRow(row_number, str(exc)) from exc
            if person_id in seen:
                drop("duplicate id")
                continue
            seen.add(person_id)
            rows.ids.append(person_id)
            rows.scores.append(score)
            rows.deciles.append(decile)
            rows.labels.append(outcome)
    if not rows:
        raise EmptyAfterFilter("no usable rows")
    summary = LoadSummary(str(path), scale, rows_read, len(rows), dropped)
    return LoadResult(rows=rows, summary=summary)


def reference_rank_order(ids, scores, labels, tie_policy: TiePolicy):
    """Columns in rank order by two stable index sorts: by id under
    BY_ID_ASCENDING (given order under GIVEN), then by descending score."""

    order = list(range(len(ids)))
    if tie_policy is TiePolicy.BY_ID_ASCENDING:
        order.sort(key=ids.__getitem__)
    order.sort(key=scores.__getitem__, reverse=True)
    return tuple(
        tuple(column[i] for i in order) for column in (ids, scores, labels)
    )


# Shared id pool so bulk generation does not re-format millions of ids.
_ID_POOL = [f"x{i:05d}" for i in range(5000)]


def random_ranking(rng: random.Random, n: int, with_ties: bool) -> Ranking:
    """Random labeled ranking with at least one record of each class."""
    if n < 2:
        raise ValueError("need n >= 2")
    k1 = rng.randint(1, n - 1)
    labels = [True] * k1 + [False] * (n - k1)
    rng.shuffle(labels)
    if with_ties:
        # Coarse integer scores force heavy tie groups.
        levels = rng.randint(1, max(2, n // 3))
        scores = [float(v) for v in rng.choices(range(levels + 1), k=n)]
    else:
        scores = [float(v) for v in range(n)]
        rng.shuffle(scores)
    ids = _ID_POOL if n <= len(_ID_POOL) else [f"x{i:05d}" for i in range(n)]
    records = [
        ScoredRecord(id=ids[i], score=scores[i], positive=labels[i])
        for i in range(n)
    ]
    return build_ranking(records)


@pytest.fixture
def worked_example() -> Ranking:
    return ranking_from_pattern(WORKED_EXAMPLE)


@pytest.fixture
def rng() -> random.Random:
    return random.Random(20260818)
