"""Seeded generator for the ``scores_tied_100k`` workload.

Writes a ``person_id,raw_score,decile,outcome`` table and computes, with
code of its own (nothing here imports aucppv), the reference values the
benchmark checks the library against: the exact doubled Mann-Whitney U from
tie-aware midranks, the hits in the top k1 under the id-ascending
tie-break, and the rows read, kept and dropped by reason.

The shape of the table is fixed and only the arrangement depends on the
seed. Every run keeps the same multiset of (score, label) pairs, so the
input descriptors (records, tie groups, the size of the tie group the k1
cut falls in, rows dropped per reason) repeat exactly from seed to seed.
The seed chooses the ids, the row order, which rows are dropped and where
they sit, so the hits at the cut and the sort work vary.

Usage: python3 bench/gen_tied.py CSV_PATH --seed N
(prints the reference values as one JSON object).
"""

from __future__ import annotations

import argparse
import json
import math
import random
import sys
from pathlib import Path

#: Rows in the file, dropped ones included.
ROWS = 100_000
#: Distinct 2-decimal score levels, -3.00 .. 0.99.
LEVELS = 400
#: Rows dropped by the loader, by its reason strings.
MISSING_SCORE = 500
MISSING_DECILE = 500
DUPLICATE_ID = 300
#: Share of kept rows that are positive.
POSITIVE_SHARE = 0.12


def _largest_remainder(total: int, weights: list[float], caps: list[int] | None = None) -> list[int]:
    """Split ``total`` into integers proportional to ``weights``, each within its cap."""

    scale = total / sum(weights)
    raw = [w * scale for w in weights]
    counts = [math.floor(r) for r in raw]
    if caps is not None:
        counts = [min(c, cap) for c, cap in zip(counts, caps)]
    order = sorted(range(len(raw)), key=lambda i: (counts[i] - raw[i], i))
    short = total - sum(counts)
    for i in order:
        if short == 0:
            break
        if caps is None or counts[i] < caps[i]:
            counts[i] += 1
            short -= 1
    if short:
        raise ValueError("caps leave no room for the requested total")
    return counts


def table_shape(kept: int) -> tuple[list[int], list[int], list[int]]:
    """Records per score level, positives per level and decile per level.

    Level sizes follow a bell over the levels and the positive share rises
    with the score, so positives are rare and concentrated near the top
    without filling it. Deterministic: no seed enters here.
    """

    sizes = _largest_remainder(
        kept, [math.exp(-0.5 * ((i - 200) / 90) ** 2) for i in range(LEVELS)]
    )
    weights = [s / (1 + math.exp(-(i - 300) / 40)) for i, s in enumerate(sizes)]
    positives = _largest_remainder(round(kept * POSITIVE_SHARE), weights, caps=sizes)
    deciles = []
    below = 0
    for size in sizes:
        deciles.append(min(10, 1 + (below * 10) // kept))
        below += size
    return sizes, positives, deciles


def reference(levels: list[int], labels: list[bool], ids: list[str]) -> dict:
    """Reference values from the kept records' level, label and id columns."""

    k1 = sum(labels)
    k2 = len(labels) - k1
    size = [0] * LEVELS
    pos = [0] * LEVELS
    for level, positive in zip(levels, labels):
        size[level] += 1
        pos[level] += positive
    # Tie-aware midranks, ascending: a level starting at 0-based position a
    # with c records holds ranks a+1 .. a+c, doubled midrank 2a + c + 1.
    doubled_rank_sum = 0
    start = 0
    for level in range(LEVELS):
        doubled_rank_sum += pos[level] * (2 * start + size[level] + 1)
        start += size[level]
    doubled_u = doubled_rank_sum - k1 * (k1 + 1)
    # The same U by direct pair counting, ties credited one half.
    negatives_below = 0
    doubled_pairs = 0
    for level in range(LEVELS):
        negatives = size[level] - pos[level]
        doubled_pairs += pos[level] * (2 * negatives_below + negatives)
        negatives_below += negatives
    if doubled_pairs != doubled_u:
        raise AssertionError("midrank and pair-count U disagree")
    order = sorted(range(len(levels)), key=lambda i: (-levels[i], ids[i]))
    hits = sum(labels[i] for i in order[:k1])
    boundary_level = levels[order[k1 - 1]]
    above = sum(size[level] for level in range(boundary_level + 1, LEVELS))
    return {
        "k1": k1,
        "k2": k2,
        "doubled_u": doubled_u,
        "hits": hits,
        "tie_groups": sum(1 for s in size if s),
        "boundary_group_size": size[boundary_level],
        "boundary_group_start": above,
    }


def _score_text(level: int) -> str:
    return f"{(level - 300) / 100:.2f}"


def generate(path: Path, seed: int) -> dict:
    """Write the table for ``seed`` to ``path`` and return its reference values."""

    rng = random.Random(seed)
    kept = ROWS - MISSING_SCORE - MISSING_DECILE - DUPLICATE_ID
    sizes, positives, deciles = table_shape(kept)
    levels: list[int] = []
    labels: list[bool] = []
    for level, (size, pos) in enumerate(zip(sizes, positives)):
        levels.extend([level] * size)
        labels.extend([True] * pos + [False] * (size - pos))
    order = list(range(kept))
    rng.shuffle(order)
    levels = [levels[i] for i in order]
    labels = [labels[i] for i in order]
    id_pool = rng.sample(range(1, 10**8), kept + MISSING_SCORE + MISSING_DECILE)
    ids = [f"{n:08d}" for n in id_pool]
    # Sort key = position in the file. Kept row i sits at i; a dropped row
    # lands anywhere, and a duplicate always after the row whose id it repeats
    # (the loader keeps the first occurrence).
    lines: list[tuple[float, str]] = [
        (float(i), f"{ids[i]},{_score_text(lv)},{deciles[lv]},{int(lab)}")
        for i, (lv, lab) in enumerate(zip(levels, labels))
    ]
    markers = ("", "NA", "nan", "null")
    for j in range(MISSING_SCORE):
        lv = rng.randrange(LEVELS)
        lines.append(
            (rng.uniform(0, kept), f"{ids[kept + j]},{markers[j % 4]},{deciles[lv]},{rng.randrange(2)}")
        )
    for j in range(MISSING_DECILE):
        lv = rng.randrange(LEVELS)
        lines.append(
            (
                rng.uniform(0, kept),
                f"{ids[kept + MISSING_SCORE + j]},{_score_text(lv)},{markers[j % 4]},{rng.randrange(2)}",
            )
        )
    for original in rng.sample(range(kept), DUPLICATE_ID):
        lv = rng.randrange(LEVELS)
        lines.append(
            (
                rng.uniform(original + 0.5, kept),
                f"{ids[original]},{_score_text(lv)},{deciles[lv]},{rng.randrange(2)}",
            )
        )
    lines.sort(key=lambda item: item[0])
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write("person_id,raw_score,decile,outcome\n")
        handle.write("\n".join(text for _, text in lines))
        handle.write("\n")
    ref = reference(levels, labels, ids[:kept])
    ref.update(
        rows_read=ROWS,
        rows_kept=kept,
        dropped={
            "duplicate id": DUPLICATE_ID,
            "missing decile": MISSING_DECILE,
            "missing score": MISSING_SCORE,
        },
    )
    return ref


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Write the scores_tied_100k table; print its reference values as JSON."
    )
    parser.add_argument("csv", type=Path)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    print(json.dumps(generate(args.csv, args.seed)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
