"""A seven-record ranking, worked end to end.

Three positives land at ranks 1, 3 and 7 once the scores are sorted
descending. That small example is enough to see every moving part:
the confusion table at a cut, the ROC polygon, AUC computed two ways,
and precision at the base-rate cut with its class-swap identity.
"""

from fractions import Fraction

from aucppv import (
    ScoredRecord,
    build_ranking,
    auc_pairwise,
    auc_trapezoid,
    confusion_at_cut,
    ppv_at_k,
    ppv_base_rate,
    ppv_swap,
    reverse_classifier,
    roc_curve,
)


def main() -> None:
    # Deliberately unsorted input; build_ranking sorts by descending score.
    records = [
        ScoredRecord(id="eve", score=3.1, positive=False),
        ScoredRecord(id="alice", score=9.0, positive=True),
        ScoredRecord(id="carol", score=5.5, positive=True),
        ScoredRecord(id="dan", score=4.0, positive=False),
        ScoredRecord(id="bob", score=7.2, positive=False),
        ScoredRecord(id="frank", score=2.0, positive=False),
        ScoredRecord(id="grace", score=1.0, positive=True),
    ]
    ranking = build_ranking(records)

    print("ranked order (descending score):")
    for rank, rec in enumerate(ranking.items, start=1):
        mark = "P" if rec.positive else "N"
        print(f"  {rank}. {rec.id:<6} score {rec.score:<4} {mark}")
    print(f"n = {ranking.n}, positives k1 = {ranking.k1}, negatives k2 = {ranking.k2}")
    print()

    # The base-rate cut keeps as many records as there are positives.
    k = ranking.k1
    counts = confusion_at_cut(ranking, k)
    print(f"confusion at cut {k}: tp={counts.tp} fp={counts.fp} fn={counts.fn} tn={counts.tn}")

    auc = auc_pairwise(ranking)
    print(f"AUC by pair counting: {auc.correct_pairs}/{auc.total_pairs} = {auc.value}")
    # Tie credit makes half-pairs possible, so double both counts to stay integral.
    print(f"  exact value {Fraction(auc.doubled_u, 2 * auc.total_pairs)}")

    curve = roc_curve(ranking)
    print("ROC vertices (fpr, tpr):")
    for x, y in curve.points:
        print(f"  ({x:.4f}, {y:.4f})")
    trap = auc_trapezoid(curve)
    print(f"AUC by trapezoid rule: {trap}")
    print(f"routes agree: {trap == auc.value}")
    print()

    ppv = ppv_base_rate(ranking)
    print(f"PPV at the base-rate cut k = {ppv.k}: {ppv.hits} hits, value {ppv.value}")
    print(f"PPV at a deeper cut k = 5: {ppv_at_k(ranking, 5).value}")

    # Swapping the classes turns PPV_k1 into the reversed classifier's PPV_k2.
    swapped = ppv_swap(ppv.value, ranking.k1, ranking.k2)
    reversed_ppv = ppv_base_rate(reverse_classifier(ranking))
    print(f"class-swap identity: translated {swapped}, recomputed {reversed_ppv.value}")
    print(f"identity is bit-exact: {swapped == reversed_ppv.value}")


if __name__ == "__main__":
    main()
