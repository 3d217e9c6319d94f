"""Byte-identical CLI output on the bundled fixtures and on a tied table.

The files ``tests/data/golden_*.txt`` hold the stdout of ``report-compas``
and of ``evaluate --input tied_scores.csv`` in each format, with the bundled
data directory written as ``<data>``. ``tied_scores.csv`` has heavy ties,
ids out of numeric order and one row for each drop reason; its k1 cut falls
inside a six-record tie group, so the id tie-break decides the hit count
(two hits; file order would give four).
"""

from __future__ import annotations

from pathlib import Path

import pytest

from aucppv import Scale
from aucppv.cli import main
from aucppv.data import fixture_path

DATA = Path(__file__).parent / "data"
FORMATS = ("table", "json", "tsv")


def stdout_of(capsys, argv: list[str]) -> str:
    assert main(argv) == 0
    out = capsys.readouterr().out
    return out.replace(str(fixture_path(Scale.GENERAL).parent), "<data>")


def golden(name: str) -> str:
    return (DATA / f"golden_{name}.txt").read_text(encoding="utf-8")


@pytest.mark.parametrize("fmt", FORMATS)
def test_report_compas_output_is_unchanged(capsys, fmt):
    out = stdout_of(capsys, ["report-compas", "--format", fmt])
    assert out == golden(f"report_compas_{fmt}")


@pytest.mark.parametrize("fmt", FORMATS)
def test_evaluate_tied_output_is_unchanged(capsys, monkeypatch, fmt):
    monkeypatch.chdir(DATA)
    out = stdout_of(capsys, ["evaluate", "--input", "tied_scores.csv", "--format", fmt])
    assert out == golden(f"evaluate_tied_{fmt}")
