"""Certification of the envelope formulas by counting arrangements.

Every arrangement of positives among negatives is scored by its exact
integer count of correctly ordered pairs. The oracle counts a hit level's
arrangements by score with a product of two Gaussian binomials, without
visiting any of them, and the per-hit-level extremes are compared against
the closed forms.
Equality must be exact, not approximate: both sides are Fractions.
"""

from fractions import Fraction

from aucppv import (
    ClassRatio,
    auc_max_exact,
    auc_min_exact,
    certify_envelopes,
    enumerate_arrangements,
)
from aucppv.errors import InstanceTooLarge


def main() -> None:
    ratio = ClassRatio(3, 4)
    stats = enumerate_arrangements(ratio)
    print(f"ratio {ratio.k1}:{ratio.k2}: {stats.arrangements} arrangements counted")
    print("  hits  count  min AUC      max AUC      closed forms")
    for hits in sorted(stats.per_hits):
        level = stats.per_hits[hits]
        lo = auc_min_exact(level.hits, ratio)
        hi = auc_max_exact(level.hits, ratio)
        both = "match" if (level.min_auc == lo and level.max_auc == hi) else "MISMATCH"
        print(
            f"  {level.hits:>4}  {level.count:>5}  {str(level.min_auc):<11}"
            f"  {str(level.max_auc):<11}  {both}"
        )
    print(f"  global range: [{stats.min_auc}, {stats.max_auc}]")
    print()

    # The worked example's 7/12 sits inside the 2-hit band for 3:4.
    two_hits = stats.per_hits[2]
    inside = two_hits.min_auc <= Fraction(7, 12) <= two_hits.max_auc
    print(f"AUC 7/12 inside the 2-hit band [{two_hits.min_auc}, {two_hits.max_auc}]: {inside}")
    print()

    print("certifying every ratio with n <= 10:")
    total = 0
    for n in range(2, 11):
        for k1 in range(1, n):
            report = certify_envelopes(ClassRatio(k1, n - k1))
            assert report.ok
            total += report.arrangements
    print(f"  all exact across {total} arrangements")
    print()

    # The guard refuses instances past the limit, unless the caller raises
    # it explicitly.
    try:
        enumerate_arrangements(ClassRatio(9, 8))
    except InstanceTooLarge as exc:
        print(f"guard: {exc}")
    big = enumerate_arrangements(ClassRatio(9, 8), limit=17)
    print(f"with limit=17: {big.arrangements} arrangements, range [{big.min_auc}, {big.max_auc}]")


if __name__ == "__main__":
    main()
