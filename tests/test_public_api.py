"""The package's top-level names, the submodules' own exports, the result
records, the import cost, and the README quick start."""

from __future__ import annotations

import importlib
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import aucppv
import aucppv.errors
from aucppv.envelopes import ClassRatio, EnvelopeCurve, envelope_curve
from aucppv.errors import EmptyInput, InconsistentInput, NonFiniteScore
from aucppv.ingest import (
    BucketStats,
    ColumnMap,
    DecileCount,
    DecileReport,
    LoadResult,
    LoadSummary,
    Scale,
    ScoreTable,
    decile_report,
)
from aucppv.metrics import ConfusionCounts, confusion_at_cut
from aucppv.oracle import ArrangementStats, HitLevelStats, enumerate_arrangements
from aucppv.ppv import PpvResult, ppv_base_rate
from aucppv.ranking import ScoredRecord, TieTable
from aucppv.reporting import EvaluationReport, build_report
from aucppv.roc import AucResult, RocCurve, auc_pairwise, roc_curve
from conftest import WORKED_EXAMPLE, ranking_from_pattern

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"

# Only what the README quick start, the demos and the benchmark import from
# ``aucppv``, plus the documented Ranking constructor, the error base and
# the version. Result types and error subclasses live in their submodules.
TOP_LEVEL = {
    "__version__",
    "TiePolicy",
    "ScoredRecord",
    "Ranking",
    "build_ranking",
    "reverse_classifier",
    "ConfusionCounts",
    "confusion_at_cut",
    "accuracy",
    "error_rate",
    "prevalence",
    "sensitivity",
    "false_positive_rate",
    "specificity",
    "precision",
    "recall",
    "f1_score",
    "e_measure",
    "roc_curve",
    "auc_trapezoid",
    "auc_pairwise",
    "ppv_at_k",
    "ppv_base_rate",
    "ppv_swap",
    "ClassRatio",
    "auc_max_given_ppvk",
    "auc_min_given_ppvk",
    "auc_max_exact",
    "auc_min_exact",
    "ppvk_max_given_auc",
    "ppvk_min_given_auc",
    "envelope_curve",
    "enumerate_arrangements",
    "certify_envelopes",
    "Scale",
    "ColumnMap",
    "load_csv",
    "to_ranking",
    "decile_report",
    "build_report",
    "format_report",
    "format_number",
    "AucppvError",
}

SUBMODULES = (
    "cli", "envelopes", "ingest", "metrics", "oracle", "ppv", "ranking", "reporting", "roc"
)


def test_top_level_names_are_exactly_the_entry_points():
    assert len(aucppv.__all__) == len(TOP_LEVEL) == 43
    assert set(aucppv.__all__) == TOP_LEVEL
    for name in aucppv.__all__:
        assert getattr(aucppv, name) is not None


def test_dir_lists_every_top_level_name_and_submodule():
    names = dir(aucppv)
    assert set(aucppv.__all__) <= set(names)
    assert {*SUBMODULES, "errors", "data"} <= set(names)
    assert names == sorted(names)


def test_every_submodule_export_imports_from_its_submodule():
    for name in SUBMODULES:
        module = importlib.import_module(f"aucppv.{name}")
        for export in module.__all__:
            namespace: dict = {}
            exec(f"from aucppv.{name} import {export}", namespace)
            assert namespace[export] is getattr(module, export)
    errors = [
        value
        for value in vars(aucppv.errors).values()
        if isinstance(value, type) and issubclass(value, Exception)
    ]
    assert len(errors) == 20
    for error in errors:
        assert error.__module__ == "aucppv.errors"


def test_readme_quick_start_runs():
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Quick start") :]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL)
    assert block is not None
    assert "from aucppv import" in block.group(1)
    exec(compile(block.group(1), "README quick start", "exec"), {})


def _records() -> dict[type, tuple]:
    """One valid instance of every public result record."""

    ranking = ranking_from_pattern(WORKED_EXAMPLE)
    table = ScoreTable(["a", "b"], [0.9, 0.1], [9, 2], [True, False])
    deciles = decile_report(table)
    stats = enumerate_arrangements(ClassRatio(2, 3))
    instances = [
        ColumnMap(),
        deciles,
        deciles.per_decile[0],
        deciles.low,
        LoadSummary("scores.csv", Scale.GENERAL, 2, 2, {}),
        LoadResult(table, LoadSummary("scores.csv", Scale.GENERAL)),
        roc_curve(ranking),
        auc_pairwise(ranking),
        stats,
        stats.per_hits[1],
        ClassRatio(2, 3),
        envelope_curve(ClassRatio(3, 2)),
        build_report(ranking),
        ScoredRecord("a", 0.5, True),
        ranking.table,
        ppv_base_rate(ranking),
        confusion_at_cut(ranking, 3),
    ]
    return {type(record): record for record in instances}


RECORD_TYPES = (
    ColumnMap, DecileCount, BucketStats, DecileReport, LoadSummary, LoadResult,
    RocCurve, AucResult, HitLevelStats, ArrangementStats, ClassRatio, EnvelopeCurve,
    EvaluationReport, ScoredRecord, TieTable, PpvResult, ConfusionCounts,
)


def test_record_types_are_every_exported_tuple():
    exported = {
        value
        for name in SUBMODULES
        for value in vars(importlib.import_module(f"aucppv.{name}")).values()
        if isinstance(value, type)
        and issubclass(value, tuple)
        and value.__module__.startswith("aucppv")
    }
    assert exported == set(RECORD_TYPES) == set(_records())


@pytest.mark.parametrize("record_type", RECORD_TYPES, ids=lambda t: t.__name__)
def test_records_are_immutable(record_type):
    record = _records()[record_type]
    with pytest.raises(AttributeError):
        setattr(record, record._fields[0], record[0])
    # A subclass without ``__slots__ = ()`` would take a new attribute.
    with pytest.raises(AttributeError):
        record.note = "x"


@pytest.mark.parametrize(
    "record_type, args, error",
    [
        (ClassRatio, {"k1": 0, "k2": 3}, ValueError),
        (ClassRatio, {"k1": 2, "k2": 0}, ValueError),
        (PpvResult, {"k": 0, "hits": 0}, ValueError),
        (PpvResult, {"k": 2, "hits": 3}, ValueError),
        (PpvResult, {"k": 2, "hits": -1}, ValueError),
        (ConfusionCounts, {"tp": 1, "fp": -1, "fn": 0, "tn": 2}, ValueError),
        (ConfusionCounts, {"tp": 1, "fp": 0, "fn": 0, "tn": -2}, ValueError),
        (ScoredRecord, {"id": "", "score": 0.5, "positive": True}, EmptyInput),
        (ScoredRecord, {"id": "a", "score": math.nan, "positive": True}, NonFiniteScore),
        (ScoredRecord, {"id": "a", "score": -math.inf, "positive": False}, NonFiniteScore),
        (ScoredRecord, {"id": "a", "score": "x", "positive": True}, NonFiniteScore),
        (ScoredRecord, {"id": ["a"], "score": 0.5, "positive": True}, InconsistentInput),
        (PpvResult, {"k": 2.5, "hits": 1}, TypeError),
        (PpvResult, {"k": 3, "hits": 1.5}, TypeError),
        (ConfusionCounts, {"tp": 1.5, "fp": 0.5, "fn": 1, "tn": 1}, TypeError),
        (ClassRatio, {"k1": True, "k2": 3}, TypeError),
        (PpvResult, {"k": True, "hits": 1}, TypeError),
        (PpvResult, {"k": 2, "hits": False}, TypeError),
        (ConfusionCounts, {"tp": True, "fp": False, "fn": 0, "tn": 1}, TypeError),
    ],
)
def test_validating_records_check_positional_and_keyword_input(record_type, args, error):
    with pytest.raises(error):
        record_type(*args.values())
    with pytest.raises(error):
        record_type(**args)


def _fresh(code: str) -> str:
    """Stdout of ``code`` run in a new interpreter that imports from src/.

    -S keeps site hooks of the environment from importing modules first.
    """

    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    result = subprocess.run(
        [sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, check=True
    )
    return result.stdout


def test_import_leaves_dataclasses_and_inspect_out():
    # Import time is a benchmarked cost; dataclasses pulls in inspect, ast and dis.
    # Exact rationals (fractions, with decimal), JSON output and
    # importlib.resources load on first use, as no default output needs them.
    deferred = {"dataclasses", "inspect", "fractions", "decimal", "json", "importlib.resources"}
    code = f"import sys, aucppv, aucppv.cli; print(sorted({deferred!r} & set(sys.modules)))"
    assert _fresh(code) == "[]\n"


LOADED = "print(' '.join(sorted(m for m in sys.modules if m.startswith('aucppv') or m == 'csv')))"


def test_import_loads_no_submodule_the_caller_does_not_use():
    # The package loads each submodule on first use; the CLI module needs
    # only the error types until a subcommand runs.
    loaded = _fresh(f"import sys, aucppv, aucppv.cli\n{LOADED}")
    assert loaded == "aucppv aucppv.cli aucppv.errors\n"


ENVELOPE_MODULES = "aucppv aucppv.cli aucppv.envelopes aucppv.errors aucppv.ppv aucppv.ranking"
VERIFY_MODULES = (
    "aucppv aucppv.cli aucppv.envelopes aucppv.errors aucppv.oracle aucppv.ppv aucppv.ranking"
)


@pytest.mark.parametrize(
    "argv, loaded",
    [
        (["envelope", "--k1", "3", "--k2", "5"], ENVELOPE_MODULES),
        (["envelope", "--k1", "3", "--k2", "5", "--format", "json"], ENVELOPE_MODULES),
        (["envelope", "--k1", "5", "--k2", "3", "--mode", "ppv-given-auc", "--step", "0.25"],
         ENVELOPE_MODULES),
        (["envelope", "--k1", "5", "--k2", "3", "--mode", "ppv-given-auc", "--format", "json"],
         ENVELOPE_MODULES),
        (["verify", "--limit", "6"], VERIFY_MODULES),
    ],
    ids=["curve-table", "curve-json", "grid-table", "grid-json", "verify"],
)
def test_closed_form_commands_load_no_table_modules(argv, loaded):
    # envelope and verify read no table: no ingest, csv or reporting, and
    # envelope does not load the oracle.
    code = (
        "import contextlib, io, sys, aucppv.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert aucppv.cli.main({argv!r}) == 0\n"
        f"{LOADED}"
    )
    assert _fresh(code) == loaded + "\n"


def test_a_report_of_a_built_ranking_loads_no_loader():
    # reporting names the loader's records only in annotations, so a report
    # of a ranking built by hand loads neither ingest nor csv.
    code = (
        "import sys\n"
        "from aucppv.ranking import Ranking, TiePolicy\n"
        "from aucppv.reporting import build_report, format_report\n"
        "ranking = Ranking('abcd', (4, 3, 2, 1), (True, False, True, False), TiePolicy.GIVEN)\n"
        "for fmt in ('table', 'json', 'tsv'):\n"
        "    format_report(build_report(ranking), fmt)\n"
        "print(sorted({'aucppv.ingest', 'csv'} & set(sys.modules)))"
    )
    assert _fresh(code) == "[]\n"


def test_class_ratio_is_one_class_owned_by_ppv():
    assert aucppv.ClassRatio is aucppv.envelopes.ClassRatio is aucppv.ppv.ClassRatio


def test_class_ratio_and_ppv_swap_load_no_envelopes():
    # ClassRatio sits beside the hit-level check in ppv, so neither the
    # top-level name nor ppv_swap's class-size check loads envelopes.
    code = (
        "import sys, aucppv\n"
        "aucppv.ClassRatio(2, 3)\n"
        "assert aucppv.ppv.ppv_swap(0.5, 2, 2) == 0.5\n"
        f"{LOADED}"
    )
    assert _fresh(code) == "aucppv aucppv.errors aucppv.ppv aucppv.ranking\n"


def test_submodules_resolve_as_attributes_after_a_bare_import():
    names = (*SUBMODULES, "errors", "data")
    code = (
        "import sys, aucppv\n"
        f"print(all(getattr(aucppv, name) is sys.modules['aucppv.' + name] for name in {names!r}))"
    )
    assert _fresh(code) == "True\n"


def test_star_import_binds_every_top_level_name():
    code = (
        "import sys, aucppv\n"
        "namespace = {}\n"
        "exec('from aucppv import *', namespace)\n"
        "print(len(set(namespace) - {'__builtins__'}), set(aucppv.__all__) <= set(dir(aucppv)),\n"
        "      all(namespace[name] is getattr(aucppv, name) for name in aucppv.__all__))"
    )
    assert _fresh(code) == "43 True True\n"


def test_unknown_top_level_name_raises_attribute_error():
    code = (
        "import aucppv\n"
        "try:\n"
        "    aucppv.no_such_name\n"
        "except AttributeError as exc:\n"
        "    print(exc)\n"
        "try:\n"
        "    from aucppv import no_such_name\n"
        "except ImportError as exc:\n"
        "    print(type(exc).__name__)"
    )
    assert _fresh(code) == "module 'aucppv' has no attribute 'no_such_name'\nImportError\n"
