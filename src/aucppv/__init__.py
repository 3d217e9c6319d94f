"""aucppv: how far can AUC stray from precision at the base-rate cut?

The package evaluates binary classifiers over scored, labeled records
(confusion metrics, ROC/AUC, PPV at positional cuts) and quantifies the
tension between threshold-free and deployment-cut quality: closed-form
extremal envelopes for AUC given PPV_k and vice versa, an exact-rational
oracle that counts every arrangement to certify them, and a COMPAS-style
case study pipeline with bundled synthetic fixtures.
"""

from __future__ import annotations

from .envelopes import (
    ClassRatio,
    EnvelopeCurve,
    auc_max_exact,
    auc_max_given_ppvk,
    auc_min_exact,
    auc_min_given_ppvk,
    envelope_curve,
    ppvk_max_given_auc,
    ppvk_min_given_auc,
)
from .errors import (
    AucppvError,
    CertificationFailure,
    CutOutOfRange,
    DegenerateClasses,
    DuplicateId,
    EmptyAfterFilter,
    EmptyInput,
    EmptyNegativeClass,
    EmptyPopulation,
    EmptyPositiveClass,
    InconsistentInput,
    InstanceTooLarge,
    InternalConsistencyError,
    MalformedRow,
    MissingColumn,
    NoPredictedPositives,
    NonFiniteScore,
    NonIntegralHits,
    UndefinedEMeasure,
    UndefinedF1,
)
from .ingest import (
    ColumnMap,
    CompasRow,
    DecileReport,
    LoadResult,
    LoadSummary,
    Scale,
    decile_report,
    load_csv,
    to_ranking,
)
from .metrics import (
    ConfusionCounts,
    accuracy,
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
)
from .oracle import (
    ArrangementStats,
    CertificationReport,
    certify_envelopes,
    enumerate_arrangements,
)
from .ppv import (
    PpvResult,
    expected_hits_at_k,
    hits_from_ppv,
    ppv_at_k,
    ppv_base_rate,
    ppv_swap,
)
from .ranking import (
    Ranking,
    ScoredRecord,
    TiePolicy,
    build_ranking,
    reverse_classifier,
)
from .reporting import EvaluationReport, build_report, format_number, format_report
from .roc import (
    AucResult,
    RocCurve,
    auc_pairwise,
    auc_trapezoid,
    roc_curve,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # ranking
    "TiePolicy",
    "ScoredRecord",
    "Ranking",
    "build_ranking",
    "reverse_classifier",
    # metrics
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
    # roc
    "RocCurve",
    "AucResult",
    "roc_curve",
    "auc_trapezoid",
    "auc_pairwise",
    # ppv
    "PpvResult",
    "ppv_at_k",
    "ppv_base_rate",
    "hits_from_ppv",
    "ppv_swap",
    "expected_hits_at_k",
    # envelopes
    "ClassRatio",
    "EnvelopeCurve",
    "auc_max_given_ppvk",
    "auc_min_given_ppvk",
    "auc_max_exact",
    "auc_min_exact",
    "ppvk_max_given_auc",
    "ppvk_min_given_auc",
    "envelope_curve",
    # oracle
    "ArrangementStats",
    "CertificationReport",
    "enumerate_arrangements",
    "certify_envelopes",
    # ingest
    "Scale",
    "ColumnMap",
    "CompasRow",
    "LoadSummary",
    "LoadResult",
    "DecileReport",
    "load_csv",
    "to_ranking",
    "decile_report",
    # reporting
    "EvaluationReport",
    "build_report",
    "format_report",
    "format_number",
    # errors
    "AucppvError",
    "EmptyInput",
    "DuplicateId",
    "NonFiniteScore",
    "CutOutOfRange",
    "EmptyPopulation",
    "EmptyPositiveClass",
    "EmptyNegativeClass",
    "NoPredictedPositives",
    "UndefinedF1",
    "UndefinedEMeasure",
    "DegenerateClasses",
    "InconsistentInput",
    "NonIntegralHits",
    "InstanceTooLarge",
    "CertificationFailure",
    "MissingColumn",
    "MalformedRow",
    "EmptyAfterFilter",
    "InternalConsistencyError",
]
