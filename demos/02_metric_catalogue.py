"""The classical metric catalogue over a sweep of cut positions.

Every metric here is a function of the confusion table at a cut, and
each one refuses to emit a number when its denominator is empty. The
sweep shows how the catalogue moves as the cut deepens, and the last
section shows the typed errors raised on degenerate tables.
"""

from aucppv import (
    ConfusionCounts,
    accuracy,
    build_ranking,
    confusion_at_cut,
    e_measure,
    error_rate,
    f1_score,
    false_positive_rate,
    precision,
    prevalence,
    recall,
    sensitivity,
    specificity,
    ScoredRecord,
)
from aucppv.errors import NoPredictedPositives, UndefinedF1


def catalogue(counts: ConfusionCounts) -> dict[str, float | None]:
    """Every metric, with None where a denominator is empty."""
    out: dict[str, float | None] = {}
    for name, fn in [
        ("accuracy", accuracy),
        ("error_rate", error_rate),
        ("prevalence", prevalence),
        ("sensitivity", sensitivity),
        ("false_positive_rate", false_positive_rate),
        ("specificity", specificity),
        ("precision", precision),
        ("recall", recall),
        ("f1_score", f1_score),
    ]:
        try:
            out[name] = fn(counts)
        except Exception:
            out[name] = None
    return out


def main() -> None:
    records = [
        ScoredRecord(id=f"r{i}", score=float(10 - i), positive=i in (0, 2, 3, 6))
        for i in range(10)
    ]
    ranking = build_ranking(records)

    print("cut sweep (10 records, 4 positives):")
    print("  cut  acc    err    prev   sens   fpr")
    for cut in range(ranking.n + 1):
        counts = confusion_at_cut(ranking, cut)
        print(
            f"  {cut:>3}  {accuracy(counts):.3f}  {error_rate(counts):.3f}"
            f"  {prevalence(counts):.3f}  {sensitivity(counts):.3f}"
            f"  {false_positive_rate(counts):.3f}"
        )
    print()

    counts = confusion_at_cut(ranking, 4)
    print("full catalogue at the base-rate cut (cut = 4):")
    for name, value in catalogue(counts).items():
        rendered = "n/a" if value is None else f"{value:.6f}"
        print(f"  {name:<20} {rendered}")
    print()

    # The effectiveness measure interpolates between precision and recall;
    # cut 6 keeps them apart (precision 0.5, recall 0.75) so alpha matters.
    deep = confusion_at_cut(ranking, 6)
    print(f"e_measure = 1 - F_alpha at cut 6 (precision {precision(deep)}, recall {recall(deep)}):")
    for alpha in (0.0, 0.25, 0.5, 0.75, 1.0):
        print(f"  alpha {alpha:.2f}: {e_measure(deep, alpha):.6f}")
    print("  alpha 0.5 matches 1 - f1:", abs(e_measure(deep, 0.5) - (1 - f1_score(deep))) < 1e-15)
    print()

    print("degenerate tables raise typed errors:")
    try:
        precision(confusion_at_cut(ranking, 0))
    except NoPredictedPositives as exc:
        print(f"  precision at cut 0 -> NoPredictedPositives: {exc}")
    try:
        f1_score(ConfusionCounts(tp=0, fp=2, fn=3, tn=5))
    except UndefinedF1 as exc:
        print(f"  f1 with tp = 0 -> UndefinedF1: {exc}")


if __name__ == "__main__":
    main()
