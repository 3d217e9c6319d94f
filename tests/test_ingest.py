"""CSV loading, filtering accountability, and decile summaries."""

from __future__ import annotations

import csv
import math
import runpy
import sys
import textwrap
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aucppv import (
    ColumnMap,
    Scale,
    auc_pairwise,
    decile_report,
    load_csv,
    ppv_base_rate,
    to_ranking,
)
from aucppv.data import GENERAL_FIXTURE, VIOLENT_FIXTURE, fixture_path
from aucppv.errors import EmptyAfterFilter, EmptyInput, MalformedRow, MissingColumn, NonFiniteScore
from aucppv.ingest import DecileCount, DecileReport, ScoreTable
from conftest import reference_load_csv


def write(tmp_path: Path, text: str, name: str = "rows.csv") -> Path:
    path = tmp_path / name
    path.write_text(textwrap.dedent(text).lstrip(), encoding="utf-8")
    return path


def test_load_well_formed(tmp_path):
    path = write(
        tmp_path,
        """
        person_id,raw_score,decile,outcome
        a,1.25,10,1
        b,-0.5,1,0
        """,
    )
    result = load_csv(path)
    assert result.summary.rows_read == 2
    assert result.summary.rows_kept == 2
    assert result.summary.rows_dropped == 0
    rows = result.rows
    assert (rows.ids[0], rows.scores[0], rows.deciles[0], rows.labels[0]) == ("a", 1.25, 10, True)
    assert result.summary.scale is Scale.GENERAL


def test_leading_byte_order_mark_is_ignored(tmp_path):
    # A spreadsheet's "CSV UTF-8" export starts with a BOM; it must not stick
    # to the first header name.
    text = "person_id,raw_score,decile,outcome\na,1.25,10,1\nb,-0.5,1,0\nb,2.0,3,1\nc,,4,0\n"
    path = tmp_path / "rows.csv"
    path.write_text(text, encoding="utf-8")
    plain = load_csv(path)
    path.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
    assert load_csv(path) == plain


def test_crlf_and_bare_cr_line_endings_load_as_lf(tmp_path):
    # Windows exports end lines with CRLF and classic Mac ones with a bare
    # CR: both must give the LF table's rows and summary, drops included.
    text = 'person_id,raw_score,decile,outcome\na,1.25,10,1\n"b",-0.5,1,0\nb,2.0,3,1\nc,,4,0\nd,0.75,6,0\n'
    path = tmp_path / "rows.csv"
    path.write_bytes(text.encode("utf-8"))
    plain = load_csv(path)
    assert (plain.summary.rows_read, plain.summary.rows_kept, len(plain.rows)) == (5, 3, 3)
    for ending in ("\r\n", "\r"):
        path.write_bytes(text.replace("\n", ending).encode("utf-8"))
        assert load_csv(path) == plain


def test_unreadable_row_raises_with_row_number(tmp_path):
    # The csv module refuses a cell over its field size limit; the loader
    # reports that row as malformed instead of letting csv.Error escape.
    limit = csv.field_size_limit()
    long_score = "1" * (limit + 1)
    path = write(tmp_path, f"person_id,raw_score,decile,outcome\na,1.0,5,1\n\nb,{long_score},6,0\n")
    with pytest.raises(MalformedRow) as raised:
        load_csv(path)
    assert (raised.value.row_number, raised.value.reason) == (
        3, f"field larger than field limit ({limit})"
    )


def test_missing_column_rejected(tmp_path):
    path = write(
        tmp_path,
        """
        person_id,raw_score,outcome
        a,1.0,1
        """,
    )
    with pytest.raises(MissingColumn):
        load_csv(path)


def test_missing_file_raises_builtin():
    with pytest.raises(FileNotFoundError):
        load_csv("/nonexistent/scores.csv")


def test_missing_values_dropped_and_counted(tmp_path):
    path = write(
        tmp_path,
        """
        person_id,raw_score,decile,outcome
        a,1.0,9,1
        b,,3,0
        c,0.5,NA,1
        d,0.25,2,
        ,0.1,2,0
        e,0.0,1,0
        """,
    )
    result = load_csv(path)
    assert result.summary.rows_read == 6
    assert result.summary.rows_kept == 2
    assert result.summary.dropped == {
        "missing score": 1,
        "missing decile": 1,
        "missing outcome": 1,
        "missing id": 1,
    }
    assert result.rows.ids == ["a", "e"]


@pytest.mark.parametrize(
    "cell,column",
    [
        ("abc", "raw_score"),
        ("inf", "raw_score"),
        ("11", "decile"),
        ("0", "decile"),
        ("2", "outcome"),
        ("yes", "outcome"),
    ],
)
def test_malformed_values_raise_with_row_number(tmp_path, cell, column):
    values = {"person_id": "a", "raw_score": "1.0", "decile": "5", "outcome": "1"}
    values[column] = cell
    path = write(
        tmp_path,
        f"""
        person_id,raw_score,decile,outcome
        {values['person_id']},{values['raw_score']},{values['decile']},{values['outcome']}
        """,
    )
    with pytest.raises(MalformedRow) as excinfo:
        load_csv(path)
    assert excinfo.value.row_number == 2


# Per column: canonical cells, then cells the full checks accept in another
# spelling, missing markers, non-finite scores and malformed values.
MISSING_CELLS = ["nan", "NaN", " NA ", "null", "", "n/a", "None"]
CELLS = {
    "person_id": (["a", "b", "c", "d", "e", "f", "g"], [" a", "b ", "1_0"] + MISSING_CELLS),
    "raw_score": (
        ["7", "-0.13", "1.5", "2", "0.25"],
        [" 1.5", "03", "+1", "1.0", "1_0", "1e-3", "inf", "-Infinity", "1e400", "x", "1,5"]
        + MISSING_CELLS,
    ),
    "decile": (
        [str(d) for d in range(1, 11)],
        [" 3", "03", "+1", "1.0", "1_0", "0", "11", "-1", "x"] + MISSING_CELLS,
    ),
    "outcome": (["0", "1"], [" 1", "0 ", "01", "+1", "1.0", "2", "true"] + MISSING_CELLS),
    "note": (["", "x"], ["y"]),
}


@st.composite
def csv_tables(draw) -> str:
    """A CSV text with the columns in any order, odd cells, duplicate ids,
    short rows and blank lines."""
    header = draw(st.permutations(list(CELLS)))
    odd_per_mille = draw(st.sampled_from([0, 20, 60, 200]))
    lines = [",".join(header)]
    for _ in range(draw(st.integers(0, 12))):
        cells = []
        for name in header:
            canonical, odd = CELLS[name]
            odd_cell = draw(st.integers(0, 999)) < odd_per_mille
            cells.append(draw(st.sampled_from(odd if odd_cell else canonical)))
        # Some rows are cut short; an empty line is a blank line.
        cut = draw(st.sampled_from([len(cells)] * 30 + list(range(len(cells)))))
        lines.append(",".join(cells[:cut]))
    return "\n".join(lines) + "\n"


@settings(max_examples=150, deadline=None)
@given(text=csv_tables())
def test_lookup_path_matches_full_checks(tmp_path_factory, text):
    path = tmp_path_factory.getbasetemp() / "differential.csv"
    path.write_text(text, encoding="utf-8")
    try:
        expected = reference_load_csv(path)
    except (MalformedRow, EmptyAfterFilter) as exc:
        with pytest.raises(type(exc)) as raised:
            load_csv(path)
        assert str(raised.value) == str(exc)
        return
    result = load_csv(path)
    assert result.rows == expected.rows
    assert result.summary == expected.summary


def test_ragged_rows_short_dropped_long_loaded(tmp_path):
    # A short row's absent cells read as empty, so it drops as missing data;
    # cells past the header are ignored.
    path = write(
        tmp_path,
        """
        person_id,raw_score,decile,outcome
        a,1.0,5,1,extra,cells
        b,0.5,3
        c,0.5
        d
        e,0.25,2,0
        """,
    )
    result = load_csv(path)
    assert result.summary.rows_read == 5
    assert result.summary.dropped == {
        "missing outcome": 1,
        "missing decile": 1,
        "missing score": 1,
    }
    rows = result.rows
    assert list(zip(rows.ids, rows.scores, rows.deciles, rows.labels)) == [
        ("a", 1.0, 5, True),
        ("e", 0.25, 2, False),
    ]
    id_last = write(
        tmp_path,
        """
        raw_score,decile,outcome,person_id
        1.0,5,1,a
        0.5,3,0
        """,
        name="id_last.csv",
    )
    assert load_csv(id_last).summary.dropped == {"missing id": 1}


def test_duplicate_ids_keep_first(tmp_path):
    path = write(
        tmp_path,
        """
        person_id,raw_score,decile,outcome
        a,1.0,5,1
        a,2.0,6,0
        b,0.5,1,0
        """,
    )
    result = load_csv(path)
    assert result.summary.dropped == {"duplicate id": 1}
    assert result.rows.ids == ["a", "b"]
    assert result.rows.scores[0] == 1.0


@pytest.mark.parametrize(
    "cells, reason",
    [
        ("0.5,6,2", "outcome must be 0 or 1, got '2'"),
        ("0.5,11,0", "decile '11' outside [1, 10]"),
        ("inf,6,0", "score 'inf' is not finite"),
        ("x,6,0", "could not convert string to float: 'x'"),
    ],
)
def test_repeated_id_with_a_malformed_cell_raises(tmp_path, cells, reason):
    # Row 4 repeats "a" (row 3, with a missing score, drops as missing): a
    # malformed cell raises with its row number, not as a duplicate id.
    path = write(tmp_path, f"person_id,raw_score,decile,outcome\na,1.0,5,1\na,,6,0\na,{cells}\n")
    with pytest.raises(MalformedRow) as raised:
        load_csv(path)
    assert (raised.value.row_number, raised.value.reason) == (4, reason)


def test_empty_after_filter(tmp_path):
    path = write(
        tmp_path,
        """
        person_id,raw_score,decile,outcome
        a,,5,1
        """,
    )
    with pytest.raises(EmptyAfterFilter):
        load_csv(path)
    with pytest.raises(EmptyAfterFilter, match="decile report needs at least one row"):
        decile_report(ScoreTable())


def test_custom_columns_and_delimiter(tmp_path):
    path = write(
        tmp_path,
        """
        pid;score;band;reoffended
        a;2.0;7;0
        b;1.0;3;1
        """,
    )
    result = load_csv(
        path,
        column_map=ColumnMap(id="pid", score="score", decile="band", outcome="reoffended"),
        scale=Scale.VIOLENT,
        delimiter=";",
    )
    assert result.summary.rows_kept == 2
    assert result.summary.scale is Scale.VIOLENT


def test_to_ranking_orders_ties_by_id(tmp_path):
    path = write(
        tmp_path,
        """
        person_id,raw_score,decile,outcome
        z,1.0,5,0
        m,1.0,5,1
        a,1.0,5,0
        top,2.0,9,1
        """,
    )
    ranking = to_ranking(load_csv(path).rows)
    assert [rec.id for rec in ranking.items] == ["top", "a", "m", "z"]
    assert ranking.k1 == 2


def test_load_is_deterministic(tmp_path):
    path = write(
        tmp_path,
        """
        person_id,raw_score,decile,outcome
        a,1.0,5,1
        b,0.5,2,0
        c,0.25,1,1
        """,
    )
    first = load_csv(path)
    second = load_csv(path)
    assert first.rows == second.rows
    assert to_ranking(first.rows) == to_ranking(second.rows)


def test_decile_report_hand_tally(tmp_path):
    path = write(
        tmp_path,
        """
        person_id,raw_score,decile,outcome
        a,3.0,10,1
        b,2.5,10,0
        c,2.0,8,1
        d,1.0,5,0
        e,0.5,1,1
        f,0.25,1,0
        """,
    )
    report = decile_report(load_csv(path).rows)
    assert report.high.total == 3
    assert report.high.positives == 2
    assert report.high.rate == pytest.approx(2 / 3)
    assert report.medium.total == 1
    assert report.medium.rate == 0.0
    assert report.low.total == 2
    assert report.low.rate == 0.5
    ten = report.per_decile[9]
    assert (ten.decile, ten.total, ten.positives) == (10, 2, 1)
    assert report.per_decile[1].total == 0
    assert report.per_decile[1].rate is None


def test_decile_report_buckets_read_its_per_decile_counts():
    # Only the per-decile counts are stored, so a report with other counts
    # sums those into its buckets.
    assert DecileReport._fields == ("per_decile",)
    deciles = list(range(1, 11))
    report = decile_report(ScoreTable(ids=deciles, scores=deciles, deciles=deciles, labels=[True] * 10))
    per_decile = tuple(DecileCount(d, total=2 * d, positives=d % 3) for d in range(1, 11))
    report = report._replace(per_decile=per_decile)
    for bucket in (report.low, report.medium, report.high):
        counted = [per_decile[d - 1] for d in bucket.deciles]
        assert bucket.total == sum(c.total for c in counted)
        assert bucket.positives == sum(c.positives for c in counted)
    assert (report.low.total, report.medium.total, report.high.total) == (20, 36, 54)


def test_decile_report_empty_bucket_has_no_rate(tmp_path):
    path = write(
        tmp_path,
        """
        person_id,raw_score,decile,outcome
        a,1.0,1,1
        """,
    )
    report = decile_report(load_csv(path).rows)
    assert report.high.total == 0
    assert report.high.rate is None
    assert report.medium.rate is None
    assert report.low.rate == 1.0


def test_decile_report_bucket_rates_are_weighted_means(tmp_path):
    path = write(
        tmp_path,
        """
        person_id,raw_score,decile,outcome
        a,5.0,9,1
        b,4.0,9,1
        c,3.0,8,0
        d,2.0,8,1
        e,1.0,10,0
        """,
    )
    report = decile_report(load_csv(path).rows)
    weighted = sum(
        c.positives for c in report.per_decile if c.decile in report.high.deciles
    ) / sum(c.total for c in report.per_decile if c.decile in report.high.deciles)
    assert report.high.rate == weighted


def test_general_fixture_counts_and_metrics():
    result = load_csv(fixture_path(Scale.GENERAL))
    assert result.summary.rows_kept == 11777
    ranking = to_ranking(result.rows)
    assert ranking.k1 == 4262
    assert ranking.k2 == 7515
    assert auc_pairwise(ranking).value == pytest.approx(0.6909022561790231, abs=1e-12)
    assert ppv_base_rate(ranking).value == pytest.approx(0.5302674800563116, abs=1e-12)
    report = decile_report(result.rows)
    assert report.high.rate == pytest.approx(0.5782060785767235, abs=1e-12)
    assert report.high.total == 2698
    assert report.high.positives == 1560


def test_violent_fixture_counts_and_metrics():
    result = load_csv(fixture_path(Scale.VIOLENT), scale=Scale.VIOLENT)
    assert result.summary.rows_kept == 12526
    ranking = to_ranking(result.rows)
    assert ranking.k1 == 1085
    assert ranking.k2 == 11441
    assert auc_pairwise(ranking).value == pytest.approx(0.6760433512426204, abs=1e-12)
    assert ppv_base_rate(ranking).value == pytest.approx(0.20276497695852536, abs=1e-12)
    report = decile_report(result.rows)
    assert report.high.rate == pytest.approx(0.1776061776061776, abs=1e-12)
    assert report.high.total == 2331
    assert report.high.positives == 414


def test_fixture_paths_resolve():
    for scale, name in ((Scale.GENERAL, GENERAL_FIXTURE), (Scale.VIOLENT, VIOLENT_FIXTURE)):
        path = fixture_path(scale)
        assert path.name == name
        assert path.is_file()


def test_make_fixtures_reproduces_bundled_csvs(tmp_path, monkeypatch, capsys):
    script = Path(__file__).resolve().parent.parent / "scripts" / "make_fixtures.py"
    make_fixtures = runpy.run_path(str(script), run_name="make_fixtures")
    monkeypatch.setattr(sys, "argv", [str(script), str(tmp_path)])
    assert make_fixtures["main"]() == 0
    for scale in (Scale.GENERAL, Scale.VIOLENT):
        bundled = fixture_path(scale)
        assert (tmp_path / bundled.name).read_bytes() == bundled.read_bytes()


def test_fixture_decile_rates_decrease_with_decile():
    # Higher deciles claim higher risk; the synthetic tables honor that
    # monotonically, mirroring the real instrument's direction.
    for scale in (Scale.GENERAL, Scale.VIOLENT):
        rows = load_csv(fixture_path(scale), scale=scale).rows
        report = decile_report(rows)
        rates = [c.rate for c in report.per_decile if c.total]
        assert rates == sorted(rates)


def test_fixture_bucket_rate_exact_fraction():
    rows = load_csv(fixture_path(Scale.GENERAL)).rows
    report = decile_report(rows)
    assert report.high.rate == float(Fraction(1560, 2698))


def test_score_table_is_a_mutable_column_container():
    first, second = ScoreTable(), ScoreTable()
    assert first.ids is not second.ids and first.labels is not second.labels
    first.ids.append("p1")
    assert (len(first), len(second)) == (1, 0)
    assert first != second
    second.ids.append("p1")
    assert first == second
    assert first != ScoreTable(["p1"], [0.5])
    # Against a non-table, == falls back to identity.
    assert first != (["p1"], [], [], []) and not first == first.ids
    assert repr(second) == "ScoreTable(ids=['p1'], scores=[], deciles=[], labels=[])"
    with pytest.raises(TypeError):
        hash(first)


@pytest.mark.parametrize(
    "bad, error",
    [
        (("", 0.2, 3, True), EmptyInput),
        (("p9", math.nan, 3, True), NonFiniteScore),
        (("p9", math.inf, 3, False), NonFiniteScore),
        (("p9", -math.inf, 3, True), NonFiniteScore),
    ],
)
def test_to_ranking_rejects_bad_hand_built_rows(bad, error):
    # A hand-built table has none of the loader's checks.
    person_id, score, decile, label = bad
    table = ScoreTable(
        ids=["p1", person_id, "p2"],
        scores=[0.7, score, 0.1],
        deciles=[8, decile, 2],
        labels=[True, label, False],
    )
    with pytest.raises(error):
        to_ranking(table)


def test_decile_report_rejects_deciles_outside_one_to_ten():
    table = ScoreTable(
        ids=["p0", "p1", "p2"],
        scores=[0.0, 0.1, 0.2],
        deciles=[3, 11, 0],
        labels=[True, False, False],
    )
    with pytest.raises(ValueError, match="decile 11 outside"):
        decile_report(table)
