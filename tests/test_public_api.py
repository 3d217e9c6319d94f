"""The package's top-level names, the submodules' own exports, and the README quick start."""

from __future__ import annotations

import importlib
import re
from pathlib import Path

import aucppv
import aucppv.errors

README = Path(__file__).resolve().parent.parent / "README.md"

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
