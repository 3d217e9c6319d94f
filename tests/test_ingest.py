"""CSV loading, filtering accountability, and decile summaries."""

from __future__ import annotations

import math
import textwrap
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aucppv import (
    ColumnMap,
    CompasRow,
    EmptyAfterFilter,
    EmptyInput,
    MalformedRow,
    MissingColumn,
    NonFiniteScore,
    Scale,
    auc_pairwise,
    decile_report,
    load_csv,
    ppv_base_rate,
    to_ranking,
)
from aucppv.data import GENERAL_FIXTURE, VIOLENT_FIXTURE, fixture_path
from aucppv.ingest import ScoreTable
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
    first = result.rows[0]
    assert (first.person_id, first.raw_score, first.decile, first.outcome) == (
        "a",
        1.25,
        10,
        True,
    )
    assert first.scale is Scale.GENERAL


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
    assert [row.person_id for row in result.rows] == ["a", "e"]


def test_missing_values_raise_when_not_dropping(tmp_path):
    path = write(
        tmp_path,
        """
        person_id,raw_score,decile,outcome
        a,,3,0
        """,
    )
    with pytest.raises(MalformedRow) as excinfo:
        load_csv(path, drop_missing=False)
    assert excinfo.value.row_number == 2


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


@pytest.mark.parametrize("drop_missing", [True, False])
@pytest.mark.parametrize("dedupe", [True, False])
@settings(max_examples=150, deadline=None)
@given(text=csv_tables())
def test_lookup_path_matches_full_checks(tmp_path_factory, text, dedupe, drop_missing):
    path = tmp_path_factory.getbasetemp() / "differential.csv"
    path.write_text(text, encoding="utf-8")
    flags = dict(dedupe=dedupe, drop_missing=drop_missing)
    try:
        expected = reference_load_csv(path, **flags)
    except (MalformedRow, EmptyAfterFilter) as exc:
        with pytest.raises(type(exc)) as raised:
            load_csv(path, **flags)
        assert str(raised.value) == str(exc)
        return
    result = load_csv(path, **flags)
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
    assert [(row.person_id, row.raw_score, row.decile, row.outcome) for row in result.rows] == [
        ("a", 1.0, 5, True),
        ("e", 0.25, 2, False),
    ]
    with pytest.raises(MalformedRow) as excinfo:
        load_csv(path, drop_missing=False)
    assert excinfo.value.row_number == 3
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
    assert [row.person_id for row in result.rows] == ["a", "b"]
    assert result.rows[0].raw_score == 1.0


def test_duplicate_ids_raise_without_dedupe(tmp_path):
    path = write(
        tmp_path,
        """
        person_id,raw_score,decile,outcome
        a,1.0,5,1
        a,2.0,6,0
        """,
    )
    with pytest.raises(MalformedRow) as excinfo:
        load_csv(path, dedupe=False)
    assert excinfo.value.row_number == 3


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
    assert result.rows[0].scale is Scale.VIOLENT


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
    assert first.rows == list(first.rows)


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
    assert report.scale is Scale.GENERAL
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


@pytest.mark.parametrize(
    "bad, error",
    [
        (CompasRow("", 0.2, 3, True, Scale.GENERAL), EmptyInput),
        (CompasRow("p9", math.nan, 3, True, Scale.GENERAL), NonFiniteScore),
        (CompasRow("p9", math.inf, 3, False, Scale.GENERAL), NonFiniteScore),
        (CompasRow("p9", -math.inf, 3, True, Scale.GENERAL), NonFiniteScore),
    ],
)
def test_to_ranking_rejects_bad_hand_built_rows(bad, error):
    table = _hand_built_table([
        CompasRow("p1", 0.7, 8, True, Scale.GENERAL),
        bad,
        CompasRow("p2", 0.1, 2, False, Scale.GENERAL),
    ])
    with pytest.raises(error):
        to_ranking(table)


def test_decile_report_rejects_deciles_outside_one_to_ten():
    table = _hand_built_table(
        CompasRow(f"p{i}", 0.1 * i, decile, i == 0, Scale.GENERAL)
        for i, decile in enumerate((3, 11, 0))
    )
    with pytest.raises(ValueError, match="decile 11 outside"):
        decile_report(table)


def _hand_built_table(rows) -> ScoreTable:
    """A general-scale table holding ``rows``, with no loader checks."""

    table = ScoreTable(Scale.GENERAL)
    for row in rows:
        table.ids.append(row.person_id)
        table.scores.append(row.raw_score)
        table.deciles.append(row.decile)
        table.labels.append(row.outcome)
    return table
