"""Typed exceptions raised by the aucppv toolkit.

Every failure mode callers are expected to handle has its own class so tests
and the CLI can match on type instead of message text. ``AucppvError`` is the
common base for data/usage errors; ``InternalConsistencyError`` is deliberately
outside that hierarchy because it signals a bug in the toolkit itself, not a
problem with the input.
"""

from __future__ import annotations


class AucppvError(Exception):
    """Base class for all data and usage errors raised by this package."""


class EmptyInput(AucppvError):
    """No records were supplied where at least one is required."""


class DuplicateId(AucppvError):
    """Two records share an id; ids must be unique within a dataset."""


class NonFiniteScore(AucppvError):
    """A score is NaN or infinite; scores must be finite reals."""


class CutOutOfRange(AucppvError):
    """A positional cut lies outside the valid range for the ranking."""


class EmptyPopulation(AucppvError):
    """A metric over all n records is undefined because n = 0."""


class EmptyPositiveClass(AucppvError):
    """A metric needs at least one positive record (k1 = 0)."""


class EmptyNegativeClass(AucppvError):
    """A metric needs at least one negative record (k2 = 0)."""


class NoPredictedPositives(AucppvError):
    """Precision is undefined because the cut predicts no positives."""


class UndefinedF1(AucppvError):
    """F1 is undefined: precision and recall are both zero or undefined."""


class UndefinedEMeasure(AucppvError):
    """The effectiveness measure is undefined for these counts."""


class DegenerateClasses(AucppvError):
    """ROC/AUC need at least one positive and one negative record."""


class InconsistentInput(AucppvError):
    """Values that must describe one ranking contradict each other."""


class NonIntegralHits(InconsistentInput):
    """A PPV value does not correspond to an integer hit count."""


class InstanceTooLarge(AucppvError):
    """A request exceeds a configured size limit (oracle n, envelope rows)."""


class CertificationFailure(AucppvError):
    """The closed-form envelope disagreed with the counting oracle.

    Carries the first mismatching hit level together with both values, as
    exact (auc_min, auc_max) Fractions; the counted ``ArrangementStats`` is
    attached as ``report``.
    """

    def __init__(self, message: str, *, hits: int, expected, actual, report=None):
        super().__init__(message)
        self.hits = hits
        self.expected = expected
        self.actual = actual
        self.report = report


class MissingColumn(AucppvError):
    """A required column is absent from the CSV header."""


class MalformedRow(AucppvError):
    """A CSV row could not be parsed; carries the 1-based row number."""

    def __init__(self, row_number: int, reason: str):
        super().__init__(f"row {row_number}: {reason}")
        self.row_number = row_number
        self.reason = reason


class EmptyAfterFilter(AucppvError):
    """Every row was dropped by the configured filters."""


class InternalConsistencyError(Exception):
    """A self-check failed; this indicates a bug, not bad input."""
