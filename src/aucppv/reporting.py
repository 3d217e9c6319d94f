"""Evaluation reports: one ranking's metrics, AUC, PPV, and envelope context.

The report builder runs a sandwich self-check before anything is emitted:
the observed AUC must lie inside the envelope over the hit counts the
boundary tie group allows, and those hit counts must meet the feasible
interval at the observed AUC. A violation is an InternalConsistencyError
(a toolkit bug), never a data error. The report carries that hit range and
the envelope over it as ``tie_range``.

The envelope bounds and the check stay integer pair counts over k1*k2,
against the AUC's doubled count over 2*k1*k2, and the feasible hit counts
at the AUC come from one integer inverse. The report record holds no float
and stores no value its other fields fix: n, k1, k2 and PPV_k read its
confusion counts at the base-rate cut, and the PPV bounds at its AUC read
``auc`` and ``counts``. ``_report_payload`` does every division, each one
correctly rounded int/int division of an exact count.

What a report says is decided once: ``_report_payload`` turns it into one
dict with a stable field order, and the table, JSON and TSV formats each
render that dict. Numbers carry 10 significant digits, except pair counts,
which print exactly, so a report is byte-deterministic for fixed input and
flags.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple

from . import metrics as m
from .envelopes import _envelope_pairs, _hit_bounds
from .errors import AucppvError, InternalConsistencyError
from .ppv import PpvResult, hits_range_at_k
from .ranking import Ranking
from .roc import AucResult, auc_pairwise

if TYPE_CHECKING:
    from .ingest import DecileReport, LoadSummary

__all__ = ["EvaluationReport", "build_report", "format_report", "format_number"]

#: Metric table rows, in emission order, each with the metric that fills it.
_METRICS = (
    ("accuracy", m.accuracy),
    ("error_rate", m.error_rate),
    ("prevalence", m.prevalence),
    ("sensitivity", m.sensitivity),
    ("specificity", m.specificity),
    ("false_positive_rate", m.false_positive_rate),
    ("precision", m.precision),
    ("recall", m.recall),
    ("f1", m.f1_score),
)

def format_number(value: float) -> str:
    """Fixed formatting for report output: 10 significant digits."""

    return f"{value:.10g}"


class EvaluationReport(NamedTuple):
    """Everything the evaluate/report commands print for one ranking."""

    label: str
    auc: AucResult
    boundary_group_size: int
    tie_hits_min: int
    tie_hits_max: int
    counts: m.ConfusionCounts
    decile: DecileReport | None = None
    load_summary: LoadSummary | None = None

    n = property(lambda self: self.counts.n)
    k1 = property(lambda self: self.counts.k1)
    k2 = property(lambda self: self.counts.k2)
    ppv = property(lambda self: PpvResult(self.counts.k1, self.counts.tp))
    ppv_min = property(lambda self: PpvResult(self.counts.k1, self._auc_hits[0]))
    ppv_max = property(lambda self: PpvResult(self.counts.k1, self._auc_hits[1]))
    # The least and most hits at the cut k1 that the AUC allows.
    _auc_hits = property(
        lambda self: _hit_bounds(self.auc.doubled_u, 2 * self.auc.total_pairs, self.k1, self.k2)
    )


def _metric_table(counts: m.ConfusionCounts) -> dict[str, float | None]:
    """Scalar metrics at the base-rate cut; undefined ones become None."""

    table: dict[str, float | None] = {}
    for name, metric in _METRICS:
        try:
            table[name] = metric(counts)
        except AucppvError:
            table[name] = None
    return table


def build_report(
    ranking: Ranking,
    *,
    label: str = "evaluation",
    decile: DecileReport | None = None,
    load_summary: LoadSummary | None = None,
) -> EvaluationReport:
    """Assemble a report and run the sandwich self-check.

    Requires both classes non-empty (AUC and the base-rate cut need them).
    """

    auc = auc_pairwise(ranking)
    k1, k2 = ranking.k1, ranking.k2
    total = k1 * k2
    hits_lo, hits_hi = hits_range_at_k(ranking, k1)
    report = EvaluationReport(
        label=label,
        auc=auc,
        boundary_group_size=ranking._cut_group(k1)[3],
        tie_hits_min=hits_lo,
        tie_hits_max=hits_hi,
        counts=m.confusion_at_cut(ranking, k1),
        decile=decile,
        load_summary=load_summary,
    )
    least, most = report._auc_hits
    # Tied pairs get half credit, so the AUC is the mean over orderings of
    # the tie groups; the check spans every hit count the boundary group's
    # orderings allow, not only the one the tie policy picked.
    check_lo = _envelope_pairs(hits_lo, k1, k2)[0]
    check_hi = _envelope_pairs(hits_hi, k1, k2)[1]
    if not 2 * check_lo <= auc.doubled_u <= 2 * check_hi:
        raise InternalConsistencyError(
            f"sandwich violated: AUC {auc.value!r} outside "
            f"[{check_lo / total!r}, {check_hi / total!r}] "
            f"at hits {hits_lo}..{hits_hi} for ratio {k1}:{k2}"
        )
    if not (hits_lo <= most and least <= hits_hi):
        raise InternalConsistencyError(
            f"sandwich violated: hits {hits_lo}..{hits_hi} outside "
            f"[{least}, {most}] at AUC {auc.value!r} for ratio {k1}:{k2}"
        )
    return report


def _report_payload(report: EvaluationReport) -> dict:
    """The report as a JSON-ready dict with rounded floats."""

    def num(value: float | None) -> float | None:
        return None if value is None else float(format_number(value))

    k1, k2, ppv = report.k1, report.k2, report.ppv
    ppv_min, ppv_max = report.ppv_min, report.ppv_max
    total = k1 * k2
    lo, hi = _envelope_pairs(ppv.hits, k1, k2)
    tie_lo = _envelope_pairs(report.tie_hits_min, k1, k2)[0]
    tie_hi = _envelope_pairs(report.tie_hits_max, k1, k2)[1]
    payload: dict = {
        "label": report.label,
        "n": report.n,
        "k1": report.k1,
        "k2": report.k2,
        "base_rate": num(k1 / report.n),
        "auc": {
            "value": num(report.auc.value),
            "correct_pairs": report.auc.correct_pairs,
            "total_pairs": report.auc.total_pairs,
        },
        "ppv_k": {
            "value": num(ppv.value),
            "hits": ppv.hits,
            "k": ppv.k,
        },
        "gap": num((report.auc.doubled_u - 2 * k2 * ppv.hits) / (2 * total)),
        "envelope_at_auc": {
            "ppv_min": num(ppv_min.value),
            "ppv_min_hits": ppv_min.hits,
            "ppv_max": num(ppv_max.value),
            "ppv_max_hits": ppv_max.hits,
        },
        "envelope_at_ppv": {
            "auc_min": num(lo / total),
            "auc_max": num(hi / total),
        },
        "tie_range": {
            "boundary_group_size": report.boundary_group_size,
            "hits_min": report.tie_hits_min,
            "hits_max": report.tie_hits_max,
            "auc_min": num(tie_lo / total),
            "auc_max": num(tie_hi / total),
        },
        "metrics": {
            name: num(value) for name, value in _metric_table(report.counts).items()
        },
    }
    decile = report.decile
    if decile is not None:
        buckets = {"low": decile.low, "medium": decile.medium, "high": decile.high}
        payload["deciles"] = {
            "per_decile": [{**row._asdict(), "rate": num(row.rate)} for row in decile.per_decile],
            "buckets": {
                name: {**bucket._asdict(), "deciles": list(bucket.deciles), "rate": num(bucket.rate)}
                for name, bucket in buckets.items()
            },
        }
    if report.load_summary is not None:
        summary = report.load_summary
        payload["load_summary"] = {
            **summary._asdict(),
            "scale": summary.scale.value,
            "dropped": dict(sorted(summary.dropped.items())),
        }
    return payload


def _format_table(payload: dict) -> str:
    auc, ppv = payload["auc"], payload["ppv_k"]
    at_auc, at_ppv = payload["envelope_at_auc"], payload["envelope_at_ppv"]
    ties = payload["tie_range"]
    lines = [
        f"== {payload['label']} ==",
        f"records              {payload['n']}",
        f"positives (k1)       {payload['k1']}",
        f"negatives (k2)       {payload['k2']}",
        f"base rate            {_render(payload['base_rate'])}",
        f"auc                  {_render(auc['value'])}",
        f"  correct pairs      {_render(auc['correct_pairs'])}",
        f"  total pairs        {auc['total_pairs']}",
        f"ppv_k (k = {ppv['k']})".ljust(21) + _render(ppv["value"]),
        f"  hits               {ppv['hits']}",
        f"auc - ppv_k gap      {_render(payload['gap'])}",
        "feasible ppv at this auc   "
        f"[{_render(at_auc['ppv_min'])}, {_render(at_auc['ppv_max'])}]",
        "feasible auc at this ppv   "
        f"[{_render(at_ppv['auc_min'])}, {_render(at_ppv['auc_max'])}]",
        "feasible auc over tie orderings "
        f"[{_render(ties['auc_min'])}, {_render(ties['auc_max'])}]",
        "",
        "metrics at the base-rate cut",
    ]
    for name, value in payload["metrics"].items():
        lines.append(f"  {name:<21}{_render(value)}")
    deciles = payload.get("deciles")
    if deciles is not None:
        lines.append("")
        lines.append("decile  total  positives  rate")
        for row in deciles["per_decile"]:
            rate = _render(row["rate"])
            lines.append(f"{row['decile']:>6}  {row['total']:>5}  {row['positives']:>9}  {rate}")
        lines.append("bucket   deciles  total  positives  rate")
        for name, bucket in deciles["buckets"].items():
            rate = _render(bucket["rate"])
            span = f"{bucket['deciles'][0]}-{bucket['deciles'][-1]}"
            lines.append(
                f"{name:<8} {span:>7}  {bucket['total']:>5}  {bucket['positives']:>9}  {rate}"
            )
    summary = payload.get("load_summary")
    if summary is not None:
        lines.append("")
        lines.append(
            f"loaded {summary['rows_kept']} of {summary['rows_read']} rows from {summary['path']}"
        )
        for reason, count in summary["dropped"].items():
            lines.append(f"  dropped ({reason}): {count}")
    return "\n".join(lines) + "\n"


def _flatten(payload: dict, prefix: str = "") -> list[tuple[str, str]]:
    pairs: list[tuple[str, str]] = []
    for key, value in payload.items():
        name = f"{prefix}{key}"
        if isinstance(value, dict):
            pairs.extend(_flatten(value, f"{name}."))
        elif isinstance(value, list):
            for index, element in enumerate(value):
                if isinstance(element, dict):
                    pairs.extend(_flatten(element, f"{name}[{index}]."))
                else:
                    pairs.append((f"{name}[{index}]", _render(element)))
        else:
            pairs.append((name, _render(value)))
    return pairs


def _render(value) -> str:
    if value is None:
        return "n/a"
    if isinstance(value, float):
        # Only a correct-pair count, a multiple of 1/2, reaches 1e9, where 10
        # significant digits stop holding its half; it is exact below 2**53.
        if abs(value) >= 1e9:
            return f"{value:.1f}".removesuffix(".0")
        return format_number(value)
    return str(value)


def format_report(report: EvaluationReport, fmt: str = "table") -> str:
    """Render a report as ``table``, ``json``, or ``tsv``."""

    payload = _report_payload(report)
    if fmt == "table":
        return _format_table(payload)
    if fmt == "json":
        import json

        return json.dumps(payload, indent=2) + "\n"
    if fmt == "tsv":
        lines = [f"{key}\t{value}" for key, value in _flatten(payload)]
        return "\n".join(lines) + "\n"
    raise ValueError(f"unknown format {fmt!r}")
