"""Bundled synthetic COMPAS-style fixtures.

The two CSVs are deterministic reconstructions that reproduce the published
cohort statistics of the ProPublica COMPAS study population exactly (sizes,
class counts, AUC pair counts, base-rate-cut hits, and high-decile outcome
rates) without containing any real person's data. scripts/make_fixtures.py in
the repository regenerates them and verifies every target before writing.
"""

from __future__ import annotations

from pathlib import Path

from ..ingest import Scale

__all__ = ["fixture_path", "GENERAL_FIXTURE", "VIOLENT_FIXTURE"]

GENERAL_FIXTURE = "compas_general_synthetic.csv"
VIOLENT_FIXTURE = "compas_violent_synthetic.csv"


def fixture_path(scale: Scale) -> Path:
    """Filesystem path of the bundled fixture for a scale.

    The package is installed as plain files (it is not zip-safe), so the
    CSVs sit next to this module: the path is the one
    ``importlib.resources.files`` would give, without importing it.
    """

    name = GENERAL_FIXTURE if scale is Scale.GENERAL else VIOLENT_FIXTURE
    return Path(__file__).with_name(name)
