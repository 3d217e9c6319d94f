"""Regenerate the bundled synthetic COMPAS-style fixtures.

The fixtures reproduce the published cohort statistics of the two risk scales
exactly, without containing any real person's data:

general scale   n=11777, positives k1=4262, correctly ordered pairs
                22128860 of 32028930 (AUC 0.6909022561790231), 2260 positives
                in the top 4262 (PPV_k 0.5302674800563116), deciles 8-10 hold
                2698 records with 1560 positives (rate 780/1349)
violent scale   n=12526, k1=1085, pairs 8392054 of 12413485
                (AUC 0.6760433512426204), 220 positives in the top 1085
                (PPV_k 0.20276497695852536), deciles 8-10 hold 2331 records
                with 414 positives (rate 46/259)

Construction: ranks are split into contiguous decile blocks (decile 10 on
top); a fixed number of positives is placed in each block, which pins the
cross-segment pair count; the remaining pairs are realized by arranging
positives inside blocks with exact trailing-negative counts. Scores are
strictly decreasing normal quantiles, ids a seeded shuffle, and the CSV is
written in id order. Every target is re-verified through the installed
package before the file is accepted.

Usage: python3 scripts/make_fixtures.py [output_dir]
"""

from __future__ import annotations

import csv
import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from statistics import NormalDist

from aucppv import Scale, auc_pairwise, decile_report, load_csv, ppv_base_rate, to_ranking

SEED = 20260818


@dataclass(frozen=True)
class Segment:
    """A contiguous rank block: decile label, size, positive count."""

    decile: int
    size: int
    positives: int


@dataclass(frozen=True)
class FixtureSpec:
    name: str
    filename: str
    scale: Scale
    n: int
    k1: int
    correct_pairs: int
    hits_at_k1: int
    high_total: int
    high_positives: int
    segments: tuple[Segment, ...]  # top (highest score) first
    score_mu: float
    score_sigma: float


GENERAL = FixtureSpec(
    name="general",
    filename="compas_general_synthetic.csv",
    scale=Scale.GENERAL,
    n=11777,
    k1=4262,
    correct_pairs=22128860,
    hits_at_k1=2260,
    high_total=2698,
    high_positives=1560,
    segments=(
        Segment(10, 820, 535),
        Segment(9, 900, 522),
        Segment(8, 978, 503),
        Segment(7, 1050, 483),
        Segment(6, 514, 217),   # decile 6 above the base-rate cut
        Segment(6, 606, 248),   # decile 6 below the cut
        Segment(5, 1180, 430),
        Segment(4, 1255, 400),
        Segment(3, 1400, 377),
        Segment(2, 1500, 330),
        Segment(1, 1574, 217),
    ),
    score_mu=-0.42,
    score_sigma=1.18,
)

VIOLENT = FixtureSpec(
    name="violent",
    filename="compas_violent_synthetic.csv",
    scale=Scale.VIOLENT,
    n=12526,
    k1=1085,
    correct_pairs=8392054,
    hits_at_k1=220,
    high_total=2331,
    high_positives=414,
    segments=(
        Segment(10, 700, 154),
        Segment(9, 385, 66),    # decile 9 above the base-rate cut
        Segment(9, 375, 60),    # decile 9 below the cut
        Segment(8, 871, 134),
        Segment(7, 950, 114),
        Segment(6, 1050, 116),
        Segment(5, 1150, 110),
        Segment(4, 1300, 104),
        Segment(3, 1500, 97),
        Segment(2, 1800, 81),
        Segment(1, 2445, 49),
    ),
    score_mu=-2.25,
    score_sigma=0.92,
)


def trailing_counts(p: int, q: int, c: int) -> list[int]:
    """Non-increasing g_1..g_p with 0 <= g_j <= q and sum c.

    g_j is the number of negatives placed after the j-th positive of a
    segment, so sum(g) is the segment's internal correctly ordered pair
    count. The shape interpolates between an even interleave (sum = p*q/2)
    and the extreme packings, to keep the arrangement looking organic.
    """

    if p == 0:
        assert c == 0
        return []
    if q == 0:
        assert c == 0
        return [0] * p
    assert 0 <= c <= p * q
    even = [q * (p + 1 - j) / (p + 1) for j in range(1, p + 1)]
    even_sum = q * p / 2
    if c >= even_sum:
        room = p * q - even_sum
        t = 0.0 if room == 0 else (c - even_sum) / room
        target = [u + t * (q - u) for u in even]
    else:
        t = c / even_sum
        target = [u * t for u in even]
    g = sorted((min(q, max(0, round(x))) for x in target), reverse=True)
    diff = c - sum(g)
    index = 0
    while diff != 0:
        j = index % p
        if diff > 0 and g[j] < q and (j == 0 or g[j - 1] > g[j]):
            g[j] += 1
            diff -= 1
        elif diff < 0 and g[j] > 0 and (j == p - 1 or g[j + 1] < g[j]):
            g[j] -= 1
            diff += 1
        index += 1
    return g


def segment_pattern(p: int, q: int, c: int) -> list[bool]:
    """One segment's label sequence (True = positive) with c internal pairs."""

    g = trailing_counts(p, q, c)
    pattern: list[bool] = []
    j = 0
    for i in range(q + 1):
        while j < p and q - g[j] == i:
            pattern.append(True)
            j += 1
        if i < q:
            pattern.append(False)
    assert j == p and len(pattern) == p + q
    return pattern


def build_labels(spec: FixtureSpec) -> list[bool]:
    """The full label sequence in rank order, hitting the exact pair count."""

    segments = spec.segments
    assert sum(s.size for s in segments) == spec.n
    assert sum(s.positives for s in segments) == spec.k1
    cross = 0
    caps = []
    for i, seg in enumerate(segments):
        negatives_after = sum(s.size - s.positives for s in segments[i + 1 :])
        cross += seg.positives * negatives_after
        caps.append(seg.positives * (seg.size - seg.positives))
    residual = spec.correct_pairs - cross
    assert 0 <= residual <= sum(caps), (
        f"{spec.name}: residual {residual} outside [0, {sum(caps)}]; adjust the profile"
    )
    # Spread the residual proportionally to each segment's capacity, then
    # push the integer remainder into the first segments with room.
    total_cap = sum(caps)
    internal = [cap * residual // total_cap for cap in caps]
    shortfall = residual - sum(internal)
    for i in range(len(internal)):
        if shortfall == 0:
            break
        room = caps[i] - internal[i]
        take = min(room, shortfall)
        internal[i] += take
        shortfall -= take
    assert shortfall == 0
    labels: list[bool] = []
    for seg, c in zip(segments, internal):
        labels.extend(segment_pattern(seg.positives, seg.size - seg.positives, c))
    assert len(labels) == spec.n
    return labels


def verify_labels(spec: FixtureSpec, labels: list[bool]) -> None:
    assert sum(labels) == spec.k1
    pairs = 0
    positives_seen = 0
    for positive in labels:
        if positive:
            positives_seen += 1
        else:
            pairs += positives_seen
    assert pairs == spec.correct_pairs, (spec.name, pairs, spec.correct_pairs)
    assert sum(labels[: spec.k1]) == spec.hits_at_k1


def build_scores(spec: FixtureSpec) -> list[float]:
    dist = NormalDist(spec.score_mu, spec.score_sigma)
    scores = [
        round(dist.inv_cdf(1.0 - (rank - 0.5) / spec.n), 6)
        for rank in range(1, spec.n + 1)
    ]
    for a, b in zip(scores, scores[1:]):
        assert a > b, "rounded scores must stay strictly decreasing"
    return scores


def build_deciles(spec: FixtureSpec) -> list[int]:
    deciles: list[int] = []
    for seg in spec.segments:
        deciles.extend([seg.decile] * seg.size)
    return deciles


def write_fixture(spec: FixtureSpec, out_dir: Path) -> Path:
    labels = build_labels(spec)
    verify_labels(spec, labels)
    scores = build_scores(spec)
    deciles = build_deciles(spec)
    high = [(d, l) for d, l in zip(deciles, labels) if d >= 8]
    assert len(high) == spec.high_total
    assert sum(1 for _, l in high if l) == spec.high_positives

    rng = random.Random(SEED + spec.n)
    ids = list(range(1, spec.n + 1))
    rng.shuffle(ids)
    rows = sorted(
        (
            (f"{ids[i]:05d}", f"{scores[i]:.6f}", deciles[i], int(labels[i]))
            for i in range(spec.n)
        ),
        key=lambda row: row[0],
    )
    path = out_dir / spec.filename
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["person_id", "raw_score", "decile", "outcome"])
        writer.writerows(rows)
    return path


def verify_fixture(spec: FixtureSpec, path: Path) -> None:
    """Re-check every published target through the installed package."""

    result = load_csv(path, scale=spec.scale)
    assert result.summary.rows_read == spec.n
    assert result.summary.rows_kept == spec.n
    ranking = to_ranking(result.rows)
    assert ranking.n == spec.n and ranking.k1 == spec.k1
    auc = auc_pairwise(ranking)
    assert auc.correct_pairs == spec.correct_pairs, (auc.correct_pairs, spec.correct_pairs)
    assert auc.total_pairs == spec.k1 * (spec.n - spec.k1)
    assert auc.value == spec.correct_pairs / auc.total_pairs
    ppv = ppv_base_rate(ranking)
    assert ppv.hits == spec.hits_at_k1
    report = decile_report(result.rows)
    assert report.high.total == spec.high_total
    assert report.high.positives == spec.high_positives
    rate = Fraction(spec.high_positives, spec.high_total)
    assert report.high.rate == float(rate)
    # Decile must be non-increasing as the score falls.
    last = 10
    rows = result.rows
    for _, decile in sorted(zip(rows.scores, rows.deciles), key=lambda pair: -pair[0]):
        assert decile <= last
        last = decile
    print(
        f"{spec.name}: n={spec.n} k1={spec.k1} auc={auc.value!r} "
        f"ppv={ppv.value!r} high-rate={report.high.rate!r}  ok"
    )


def main() -> int:
    out_dir = Path(sys.argv[1]) if len(sys.argv) > 1 else (
        Path(__file__).resolve().parent.parent / "src" / "aucppv" / "data"
    )
    out_dir.mkdir(parents=True, exist_ok=True)
    for spec in (GENERAL, VIOLENT):
        path = write_fixture(spec, out_dir)
        verify_fixture(spec, path)
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
