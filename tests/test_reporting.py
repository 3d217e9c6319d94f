"""Report assembly, the sandwich self-check, and deterministic rendering."""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import aucppv.reporting
from aucppv import (
    ClassRatio,
    ConfusionCounts,
    Ranking,
    Scale,
    TiePolicy,
    auc_max_exact,
    auc_min_exact,
    auc_trapezoid,
    build_report,
    confusion_at_cut,
    decile_report,
    format_number,
    format_report,
    load_csv,
    ppvk_max_given_auc,
    ppvk_min_given_auc,
    roc_curve,
    to_ranking,
)
from aucppv.cli import main
from aucppv.data import fixture_path
from aucppv.envelopes import _envelope_pairs
from aucppv.errors import InternalConsistencyError
from aucppv.ppv import PpvResult, expected_hits_at_k, hits_range_at_k
from aucppv.reporting import _metric_table, _report_payload
from aucppv.roc import AucResult
from conftest import WORKED_EXAMPLE, ranking_from_pattern

DATA = Path(__file__).parent / "data"


def test_build_report_worked_example():
    report = build_report(ranking_from_pattern(WORKED_EXAMPLE), label="toy")
    assert (report.n, report.k1, report.k2) == (7, 3, 4)
    assert report.counts == ConfusionCounts(tp=2, fp=1, fn=1, tn=3)
    assert report.auc.value == 7 / 12
    assert report.ppv.value == 2 / 3
    assert report.ppv_min.hits == 0
    assert report.ppv_max.hits == 3
    # Envelope context at the observed operating point: 6 and 11 of the 12
    # pairs, so AUC 0.5 and 11/12.
    assert _envelope_pairs(report.ppv.hits, report.k1, report.k2) == (6, 11)
    payload = _report_payload(report)
    assert payload["base_rate"] == float(format_number(3 / 7))
    assert payload["gap"] == float(format_number(7 / 12 - 2 / 3))
    assert payload["envelope_at_ppv"] == {"auc_min": 0.5, "auc_max": 0.9166666667}
    # The self-check passed by construction.
    exact = Fraction(report.auc.doubled_u, 2 * report.auc.total_pairs)
    assert exact == Fraction(7, 12)
    assert Fraction(6, 12) <= exact <= Fraction(11, 12)


def test_report_reads_its_sizes_and_ppv_off_its_counts():
    # n, k1, k2 and PPV_k are not stored beside the counts, so a report
    # with other counts reads them all from those counts.
    report = build_report(ranking_from_pattern(WORKED_EXAMPLE))
    assert not {"n", "k1", "k2", "ppv"} & set(report._fields)
    counts = ConfusionCounts(tp=4, fp=1, fn=2, tn=5)
    report = report._replace(counts=counts)
    assert (report.n, report.k1, report.k2) == (12, 6, 6)
    assert report.ppv == PpvResult(k=6, hits=4)


def test_report_reads_its_ppv_bounds_off_its_auc():
    # The bounds at the AUC are not stored beside it, so a report with
    # another AUC prints that AUC's bounds: at AUC 0 every positive ranks
    # below every negative, so PPV_k is 0.
    report = build_report(ranking_from_pattern("PNPPNNPN"))
    assert report._fields == (
        "label", "auc", "boundary_group_size", "tie_hits_min", "tie_hits_max",
        "counts", "decile", "load_summary",
    )
    report = report._replace(auc=AucResult(0, 16))
    assert report.ppv_min.hits == report.ppv_max.hits == 0
    assert "feasible ppv at this auc   [0, 0]\n" in format_report(report, "table")


def test_metric_table_values():
    report = build_report(ranking_from_pattern("PPNPNNN"))
    assert report.counts == ConfusionCounts(tp=2, fp=1, fn=1, tn=3)
    table = _metric_table(report.counts)
    assert table["accuracy"] == 5 / 7
    assert table["error_rate"] == 2 / 7
    assert table["prevalence"] == 3 / 7
    assert table["sensitivity"] == 2 / 3
    assert table["specificity"] == 3 / 4
    assert table["false_positive_rate"] == 1 / 4
    assert table["precision"] == 2 / 3
    assert table["recall"] == 2 / 3
    assert table["f1"] == 2 / 3
    metrics = _report_payload(report)["metrics"]
    assert metrics == {name: float(format_number(value)) for name, value in table.items()}


def test_metric_table_marks_undefined_metrics():
    # Base-rate cut of NP catches zero positives: f1 is undefined and is
    # reported as missing rather than raising.
    report = build_report(ranking_from_pattern("NP"))
    assert report.counts == ConfusionCounts(tp=0, fp=1, fn=1, tn=0)
    table = _metric_table(report.counts)
    assert table["precision"] == 0.0
    assert table["f1"] is None
    assert _report_payload(report)["metrics"]["f1"] is None
    rendered = format_report(report, "table")
    assert "f1                   n/a" in rendered


def test_format_number_is_10_significant_digits():
    assert format_number(0.6909022561790231) == "0.6909022562"
    assert format_number(1.0) == "1"
    assert format_number(0.25) == "0.25"
    assert format_number(1 / 3) == "0.3333333333"


def test_table_format_contains_key_lines():
    report = build_report(ranking_from_pattern(WORKED_EXAMPLE), label="toy")
    text = format_report(report, "table")
    assert text.startswith("== toy ==\n")
    assert "auc                  0.5833333333\n" in text
    assert "ppv_k (k = 3)        0.6666666667\n" in text
    assert "auc - ppv_k gap      -0.08333333333\n" in text
    assert "feasible auc at this ppv   [0.5, 0.9166666667]" in text


def test_json_format_parses_and_round_trips():
    report = build_report(ranking_from_pattern(WORKED_EXAMPLE), label="toy")
    payload = json.loads(format_report(report, "json"))
    assert payload["label"] == "toy"
    assert payload["n"] == 7
    assert payload["auc"]["value"] == 0.5833333333
    assert payload["auc"]["correct_pairs"] == 7.0
    assert payload["ppv_k"]["hits"] == 2
    assert payload["envelope_at_ppv"]["auc_min"] == 0.5
    assert payload["metrics"]["f1"] == 0.6666666667


def test_tsv_format_flattens_keys():
    report = build_report(ranking_from_pattern(WORKED_EXAMPLE), label="toy")
    lines = format_report(report, "tsv").splitlines()
    as_dict = dict(line.split("\t") for line in lines)
    assert as_dict["auc.value"] == "0.5833333333"
    assert as_dict["ppv_k.hits"] == "2"
    assert as_dict["label"] == "toy"


def test_tsv_renders_missing_as_na():
    report = build_report(ranking_from_pattern("NP"))
    lines = format_report(report, "tsv").splitlines()
    as_dict = dict(line.split("\t") for line in lines)
    assert as_dict["metrics.f1"] == "n/a"


def test_formats_are_deterministic():
    first = build_report(ranking_from_pattern(WORKED_EXAMPLE), label="toy")
    second = build_report(ranking_from_pattern(WORKED_EXAMPLE), label="toy")
    for fmt in ("table", "json", "tsv"):
        assert format_report(first, fmt) == format_report(second, fmt)


def test_unknown_format_rejected():
    report = build_report(ranking_from_pattern(WORKED_EXAMPLE))
    with pytest.raises(ValueError):
        format_report(report, "xml")


def test_sandwich_self_check_raises_internal_error(monkeypatch):
    # Force the lower envelope (all k1*k2 pairs) above the observed AUC: the
    # report builder must refuse to emit and flag a toolkit bug.
    monkeypatch.setattr(
        aucppv.reporting, "_envelope_pairs", lambda hits, k1, k2: (k1 * k2, k1 * k2)
    )
    with pytest.raises(InternalConsistencyError, match="sandwich violated: AUC"):
        build_report(ranking_from_pattern(WORKED_EXAMPLE))


def test_ppv_side_self_check_raises_internal_error(monkeypatch):
    # No hit count feasible at the AUC reaches the observed 2 hits.
    monkeypatch.setattr(aucppv.reporting, "_hit_bounds", lambda num, den, k1, k2: (0, 0))
    with pytest.raises(InternalConsistencyError, match="sandwich violated: hits"):
        build_report(ranking_from_pattern(WORKED_EXAMPLE))


def test_gap_is_one_division_of_counts():
    # 4000:4000 in rank order P*2000 N*2000 N*1999 P N P*1999: doubled U
    # 16,000,002 and 2000 hits, so the gap is exactly 1 / 16,000,000. The
    # difference of the two rounded quotients used to print 6.249999995e-08.
    labels = [True] * 2000 + [False] * 3999 + [True, False] + [True] * 1999
    n = len(labels)
    scores = [float(n - i) for i in range(n)]
    report = build_report(Ranking([f"r{i}" for i in range(n)], scores, labels, TiePolicy.GIVEN))
    assert (report.auc.doubled_u, report.ppv.hits) == (16_000_002, 2000)
    assert "auc - ppv_k gap      6.25e-08\n" in format_report(report, "table")
    assert '"gap": 6.25e-08,' in format_report(report, "json")


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_report_envelopes_match_the_fraction_route(data):
    # Random tied tables in both class orders: the integer report fields
    # equal the public Fraction route, and every float the payload prints is
    # the exact rational of those integers rounded to 10 digits.
    n = data.draw(st.integers(2, 60))
    k1 = data.draw(st.integers(1, n - 1))
    labels = data.draw(st.permutations([True] * k1 + [False] * (n - k1)))
    scores = data.draw(st.lists(st.integers(0, 5).map(float), min_size=n, max_size=n))
    ranking = Ranking([f"r{i}" for i in range(n)], scores, labels, TiePolicy.BY_ID_ASCENDING)
    report = build_report(ranking)
    ratio = ClassRatio(k1, n - k1)
    exact = Fraction(report.auc.doubled_u, 2 * report.auc.total_pairs)
    hits_lo, hits_hi = hits_range_at_k(ranking, k1)
    assert report.counts == confusion_at_cut(ranking, k1)
    assert (report.tie_hits_min, report.tie_hits_max) == (hits_lo, hits_hi)
    assert report.ppv_min == ppvk_min_given_auc(exact, ratio)
    assert report.ppv_max == ppvk_max_given_auc(exact, ratio)

    def shown(value: Fraction | None) -> float | None:
        return None if value is None else float(format_number(float(value)))

    tp, fp, fn, tn = report.counts
    payload = _report_payload(report)
    # Every printed quotient, the gap included, is one int/int division of
    # exact counts, so it is the exact rational rounded to 10 digits.
    assert payload["base_rate"] == shown(Fraction(k1, n))
    assert payload["gap"] == shown(exact - Fraction(report.ppv.hits, k1))
    assert payload["envelope_at_ppv"] == {
        "auc_min": shown(auc_min_exact(report.ppv.hits, ratio)),
        "auc_max": shown(auc_max_exact(report.ppv.hits, ratio)),
    }
    assert payload["tie_range"]["auc_min"] == shown(auc_min_exact(hits_lo, ratio))
    assert payload["tie_range"]["auc_max"] == shown(auc_max_exact(hits_hi, ratio))
    assert payload["metrics"] == {
        "accuracy": shown(Fraction(tp + tn, n)),
        "error_rate": shown(Fraction(fp + fn, n)),
        "prevalence": shown(Fraction(tp + fp, n)),
        "sensitivity": shown(Fraction(tp, k1)),
        "specificity": shown(Fraction(tn, n - k1)),
        "false_positive_rate": shown(Fraction(fp, n - k1)),
        "precision": shown(Fraction(tp, tp + fp)),
        "recall": shown(Fraction(tp, k1)),
        "f1": shown(Fraction(2 * tp, 2 * tp + fp + fn) if tp else None),
    }
    g, before, slots, size = ranking._cut_group(k1)
    assert report.boundary_group_size == size
    positives = ranking.group_hits[g] - before
    assert expected_hits_at_k(ranking, k1) == float(before + Fraction(positives * slots, size))


def test_report_pipeline_never_puts_records_in_rank_order(monkeypatch, capsys):
    # Reports, ROC and AUC read only the tie-group table and the tie order of
    # the group the k1 cut falls in, on tied and on all-distinct scores.
    def refuse(self):
        raise AssertionError("the records were put in rank order")

    monkeypatch.setattr(Ranking, "_rank_order", refuse)
    for path in (DATA / "tied_scores.csv", fixture_path(Scale.GENERAL)):
        loaded = load_csv(path)
        ranking = to_ranking(loaded.rows)
        report = build_report(
            ranking, decile=decile_report(loaded.rows), load_summary=loaded.summary
        )
        for fmt in ("table", "json", "tsv"):
            assert format_report(report, fmt)
        assert auc_trapezoid(roc_curve(ranking)) == report.auc.value
    monkeypatch.chdir(DATA)
    assert main(["evaluate", "--input", "tied_scores.csv", "--format", "json"]) == 0
    assert main(["report-compas", "--format", "json"]) == 0
    capsys.readouterr()


def test_build_report_reads_the_base_rate_cut_once(monkeypatch):
    # The k1 cut of tied_scores.csv falls inside a tie group; PPV_k and the
    # metric table share one confusion_at_cut read of it.
    ranking = to_ranking(load_csv(DATA / "tied_scores.csv").rows)
    calls = []
    hits_at = Ranking.hits_at

    def counted(self, k):
        calls.append(k)
        return hits_at(self, k)

    monkeypatch.setattr(Ranking, "hits_at", counted)
    build_report(ranking)
    assert calls == [ranking.k1]


@pytest.mark.parametrize(
    "correct_pairs", [12_345_678_901.5, 1_234_567_890.5, 19_989_294_817]
)
def test_large_pair_counts_print_exactly(correct_pairs):
    # 10 significant digits would round these; table and TSV print them whole.
    report = build_report(ranking_from_pattern(WORKED_EXAMPLE))
    report = report._replace(auc=AucResult(round(2 * correct_pairs), 10**11))
    expected = f"{correct_pairs}".removesuffix(".0")
    assert f"  correct pairs      {expected}\n" in format_report(report, "table")
    assert f"auc.correct_pairs\t{expected}\n" in format_report(report, "tsv")
