"""aucppv: how far can AUC stray from precision at the base-rate cut?

The package evaluates binary classifiers over scored, labeled records
(confusion metrics, ROC/AUC, PPV at positional cuts) and quantifies the
tension between threshold-free and deployment-cut quality: closed-form
extremal envelopes for AUC given PPV_k and vice versa, an exact-rational
oracle that counts every arrangement to certify them, and a COMPAS-style
case study pipeline with bundled synthetic fixtures.

The names below are the entry points; result types and the error
subclasses import from their submodules (``aucppv.roc``, ``aucppv.errors``, ...).
Each name and each submodule loads on first use (PEP 562), so
``import aucppv`` imports none of the submodules, and a command pays only
for the modules it runs.
"""

from __future__ import annotations

__version__ = "0.1.0"

#: Each top-level name and the submodule that defines it.
_SOURCES = {
    "TiePolicy": "ranking",
    "ScoredRecord": "ranking",
    "Ranking": "ranking",
    "build_ranking": "ranking",
    "reverse_classifier": "ranking",
    "ConfusionCounts": "metrics",
    "confusion_at_cut": "metrics",
    "accuracy": "metrics",
    "error_rate": "metrics",
    "prevalence": "metrics",
    "sensitivity": "metrics",
    "false_positive_rate": "metrics",
    "specificity": "metrics",
    "precision": "metrics",
    "recall": "metrics",
    "f1_score": "metrics",
    "e_measure": "metrics",
    "roc_curve": "roc",
    "auc_trapezoid": "roc",
    "auc_pairwise": "roc",
    "ppv_at_k": "ppv",
    "ppv_base_rate": "ppv",
    "ppv_swap": "ppv",
    "ClassRatio": "ppv",
    "auc_max_given_ppvk": "envelopes",
    "auc_min_given_ppvk": "envelopes",
    "auc_max_exact": "envelopes",
    "auc_min_exact": "envelopes",
    "ppvk_max_given_auc": "envelopes",
    "ppvk_min_given_auc": "envelopes",
    "envelope_curve": "envelopes",
    "enumerate_arrangements": "oracle",
    "certify_envelopes": "oracle",
    "Scale": "ingest",
    "ColumnMap": "ingest",
    "load_csv": "ingest",
    "to_ranking": "ingest",
    "decile_report": "ingest",
    "build_report": "reporting",
    "format_report": "reporting",
    "format_number": "reporting",
    "AucppvError": "errors",
}
_SUBMODULES = {*_SOURCES.values(), "cli", "data"}

__all__ = ["__version__", *_SOURCES]


def __getattr__(name: str):
    module = _SOURCES.get(name, name)
    if module not in _SUBMODULES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # Importing a submodule binds it in this namespace; an exported name is
    # bound beside it, so either is looked up here only once.
    __import__(f"{__name__}.{module}")
    if name != module:
        globals()[name] = getattr(globals()[module], name)
    return globals()[name]


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_SUBMODULES})
