"""Report assembly, the sandwich self-check, and deterministic rendering."""

from __future__ import annotations

import dataclasses
import json
from fractions import Fraction
from pathlib import Path

import pytest

import aucppv.reporting
from aucppv import (
    Ranking,
    Scale,
    auc_trapezoid,
    build_report,
    decile_report,
    format_number,
    format_report,
    load_csv,
    roc_curve,
    to_ranking,
)
from aucppv.cli import main
from aucppv.data import fixture_path
from aucppv.errors import InternalConsistencyError
from aucppv.roc import AucResult
from conftest import WORKED_EXAMPLE, ranking_from_pattern

DATA = Path(__file__).parent / "data"


def test_build_report_worked_example():
    report = build_report(ranking_from_pattern(WORKED_EXAMPLE), label="toy")
    assert (report.n, report.k1, report.k2) == (7, 3, 4)
    assert report.base_rate == 3 / 7
    assert report.auc.value == 7 / 12
    assert report.ppv.value == 2 / 3
    assert report.gap == 7 / 12 - 2 / 3
    # Envelope context at the observed operating point.
    assert report.auc_min == 0.5
    assert report.auc_max == pytest.approx(11 / 12, abs=1e-15)
    assert report.ppv_min.hits == 0
    assert report.ppv_max.hits == 3
    # The self-check passed by construction.
    exact = Fraction(report.auc.doubled_u, 2 * report.auc.total_pairs)
    assert exact == Fraction(7, 12)
    assert Fraction(report.auc_min) <= exact <= Fraction(report.auc_max)


def test_metric_table_values():
    report = build_report(ranking_from_pattern("PPNPNNN"))
    table = report.metric_table
    assert table["accuracy"] == 5 / 7
    assert table["error_rate"] == 2 / 7
    assert table["prevalence"] == 3 / 7
    assert table["sensitivity"] == 2 / 3
    assert table["specificity"] == 3 / 4
    assert table["false_positive_rate"] == 1 / 4
    assert table["precision"] == 2 / 3
    assert table["recall"] == 2 / 3
    assert table["f1"] == 2 / 3


def test_metric_table_marks_undefined_metrics():
    # Base-rate cut of NP catches zero positives: f1 is undefined and is
    # reported as missing rather than raising.
    report = build_report(ranking_from_pattern("NP"))
    assert report.metric_table["precision"] == 0.0
    assert report.metric_table["f1"] is None
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
    # Force the lower envelope above the observed AUC: the report builder
    # must refuse to emit and flag a toolkit bug.
    monkeypatch.setattr(
        aucppv.reporting, "auc_min_exact", lambda hits, ratio: 1.0
    )
    with pytest.raises(InternalConsistencyError):
        build_report(ranking_from_pattern(WORKED_EXAMPLE))


def test_ppv_side_self_check_raises_internal_error(monkeypatch):
    from aucppv.ppv import PpvResult

    monkeypatch.setattr(
        aucppv.reporting,
        "ppvk_max_given_auc",
        lambda auc, ratio: PpvResult(k=ratio.k1, hits=0),
    )
    with pytest.raises(InternalConsistencyError):
        build_report(ranking_from_pattern(WORKED_EXAMPLE))


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
    report = dataclasses.replace(
        report, auc=AucResult(round(2 * correct_pairs), 10**11)
    )
    expected = f"{correct_pairs}".removesuffix(".0")
    assert f"  correct pairs      {expected}\n" in format_report(report, "table")
    assert f"auc.correct_pairs\t{expected}\n" in format_report(report, "tsv")
