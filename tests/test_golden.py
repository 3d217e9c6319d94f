"""Byte-identical CLI output on the bundled fixtures, a tied table and the closed forms.

The files ``tests/data/golden_*.txt`` hold the stdout of ``report-compas``
and of ``evaluate --input tied_scores.csv`` in each format, and of
``verify --limit 16``. ``report-compas`` prints each bundled fixture as
``aucppv/data/<file>.csv``, so its goldens hold no install directory.
``tied_scores.csv`` has heavy ties, ids out of numeric order and one row for
each drop reason; its k1 cut falls inside a six-record tie group, so the id
tie-break decides the hit count (two hits; file order would give four).
The large ``envelope`` tables are pinned by the SHA-256 of their stdout.
``golden_cli_usage.json`` holds the exit code, stdout and stderr of help
requests and usage errors at 80 columns.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import pytest

from aucppv.cli import main

DATA = Path(__file__).parent / "data"
FORMATS = ("table", "json", "tsv")


def stdout_of(capsys, argv: list[str]) -> str:
    assert main(argv) == 0
    return capsys.readouterr().out


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


def test_verify_output_is_unchanged(capsys):
    assert stdout_of(capsys, ["verify", "--limit", "16"]) == golden("verify_16")


CURVE = ["envelope", "--k1", "4262", "--k2", "7515"]
GRID = ["envelope", "--k1", "11441", "--k2", "1085", "--mode", "ppv-given-auc", "--step", "0.001"]
# The same two tables with the class order reversed: a swapped curve and an
# unswapped grid.
CURVE_SWAPPED = ["envelope", "--k1", "7515", "--k2", "4262"]
GRID_UNSWAPPED = [
    "envelope", "--k1", "1085", "--k2", "11441", "--mode", "ppv-given-auc", "--step", "0.001",
]
TABLES = {
    "curve": CURVE, "grid": GRID, "curve_swapped": CURVE_SWAPPED, "grid_unswapped": GRID_UNSWAPPED,
}
ENVELOPE_SHA256 = {
    ("curve", "table"): "668bcc210b0fd2d0812a11aae49784bc93492b24c3da2be6700f2bd82053c05e",
    ("curve", "tsv"): "e8d0e9371ee544abc191cc0bdf481ae536aa9db68f5c0182a5a66f1585d1a7f7",
    ("curve", "json"): "7e7818ddaa6d875f1f6816fa1c79e9df5fb3db8a02799be3dd482b0ff5e567e9",
    ("grid", "table"): "cc23707668d27311811e6f31084cba8c096c9bb5b18617fc72b083f55827bbb4",
    ("grid", "tsv"): "2615b7b4c1ddedd98587ad02908705331bb7d36377f71cd131db6526fb919f38",
    ("grid", "json"): "e19d6f98cce96dba4ff83eb2489caa5623a177a7bc2d6755e3222a524804d337",
    ("curve_swapped", "table"): "87cfcb04175a6d02a3126b5c1eb851aa35a7058fb5bb75ad1155b422e25af07b",
    ("curve_swapped", "tsv"): "f7db0777916f6b0169c5499b4f3dd317033f7fdc4c5634004a574672f100fc65",
    ("curve_swapped", "json"): "6a5b5b514cc7abcbf822878e889ba4393575ba7379bebc739148af6bec683fc7",
    ("grid_unswapped", "table"): "5c25040266a703ea030479ca6435fe0896d598dc9580ba7c537fee333684f0fd",
    ("grid_unswapped", "tsv"): "48bb1a2d4876014957892f1fdb09eb9033be11b8fea2c6242d029936b98eb569",
    ("grid_unswapped", "json"): "9b90f7ed8044d18f24bd8feaa3fc1890b0cf6100d3bf911a441eb9aa7f02a5c7",
}


@pytest.mark.parametrize("table, fmt", sorted(ENVELOPE_SHA256))
def test_envelope_output_is_unchanged(capsys, table, fmt):
    argv = TABLES[table] + ["--format", fmt]
    digest = hashlib.sha256(stdout_of(capsys, argv).encode("utf-8")).hexdigest()
    assert digest == ENVELOPE_SHA256[table, fmt]


def test_evaluate_accepts_a_cut_inside_a_tie_with_positives_first(capsys, monkeypatch):
    # tied_scores.csv with the positives of its boundary tie group moved to
    # the lowest ids: the id tie-break now puts both inside the cut (four
    # hits), while the half-credit AUC (0.6625) sits below auc_min at four
    # hits (0.7). Only the hit range over the group's orderings brackets it.
    monkeypatch.chdir(DATA)
    assert main(["evaluate", "--input", "tied_scores_split_cut.csv"]) == 0
    out = capsys.readouterr().out
    assert "auc                  0.6625\n" in out
    assert "  hits               4\n" in out
    assert "feasible auc over tie orderings [0.25, 0.975]\n" in out


USAGE_CASES = json.loads((DATA / "golden_cli_usage.json").read_text(encoding="utf-8"))


# argparse rewords its help and errors between Python versions; the
# captures are its text on 3.10 and 3.11, the versions CI runs.
@pytest.mark.skipif(
    sys.version_info[:2] not in ((3, 10), (3, 11)), reason="argparse text of another Python"
)
@pytest.mark.parametrize(
    "case", USAGE_CASES, ids=[" ".join(case["argv"]) or "<no arguments>" for case in USAGE_CASES]
)
def test_help_and_usage_output_is_unchanged(capsys, monkeypatch, case):
    # A call that names its command first is parsed by that command's parser
    # alone, and the full parser handles the rest; every help text, usage
    # line and error, the command's and the top-level ones, must read as before.
    monkeypatch.setenv("COLUMNS", "80")
    try:
        code = main(case["argv"])
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (case["exit"], case["stdout"], case["stderr"])
