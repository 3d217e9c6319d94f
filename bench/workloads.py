"""The three workloads: one op each, its traced replays, and its output check.

An op calls only public aucppv functions. ``op(spec, tracer, root)``
returns what a user would get back; ``check(output, spec)`` raises
CheckFailed when that output disagrees with the reference values in
``spec``. With tracing on, an op also replays the calls its CLI or
``build_report`` makes internally (see tracing.py) and records counts.
"""

from __future__ import annotations

import contextlib
import io
import json
from fractions import Fraction

import aucppv.cli as cli
from aucppv import (
    ClassRatio,
    ColumnMap,
    Scale,
    auc_max_given_ppvk,
    auc_min_given_ppvk,
    auc_pairwise,
    auc_trapezoid,
    build_report,
    certify_envelopes,
    confusion_at_cut,
    decile_report,
    envelope_curve,
    format_report,
    load_csv,
    ppv_base_rate,
    ppvk_max_given_auc,
    ppvk_min_given_auc,
    roc_curve,
    to_ranking,
)
from aucppv.data import fixture_path


class CheckFailed(Exception):
    """An op's output disagrees with its reference value."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def _run_cli(argv: list[str]) -> tuple[int, str]:
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = cli.main(argv)
    return code, buffer.getvalue()


def _as_10g(value: Fraction | float) -> float:
    """A value as the reports print it: 10 significant digits."""

    return float(f"{float(value):.10g}")


# --- traced replays and counts -------------------------------------------


def _count_ranking(t, ranking) -> None:
    """Input descriptors of a ranking: records, tie groups, boundary group size."""

    scores = [rec.score for rec in ranking.items]
    cut = ranking.k1 - 1
    groups = 0
    start = 0
    boundary = 0
    for index in range(1, len(scores) + 1):
        if index == len(scores) or scores[index] != scores[start]:
            groups += 1
            if start <= cut < index:
                boundary = index - start
            start = index
    t.count("ranking.records", len(scores))
    t.count("ranking.tie_groups", groups)
    t.count("ranking.boundary_group_size", boundary)


def _count_load(t, summary) -> None:
    t.count("ingest.rows_read", summary.rows_read)
    t.count("ingest.rows_kept", summary.rows_kept)
    t.count("ingest.rows_dropped", summary.rows_dropped)


def _build_report(t, parent, ranking, **kwargs):
    """``build_report`` in a span, then its internal calls replayed as children."""

    with t.span("reporting.build_report", parent) as span:
        report = build_report(ranking, **kwargs)
    if t.on:
        with t.span("roc.auc_pairwise", span):
            auc = auc_pairwise(ranking)
        with t.span("ppv.ppv_base_rate", span):
            ppv = ppv_base_rate(ranking)
        ratio = ClassRatio(ranking.k1, ranking.k2)
        with t.span("envelopes.auc_given_ppvk", span):
            auc_min_given_ppvk(ppv.value, ratio)
            auc_max_given_ppvk(ppv.value, ratio)
        with t.span("envelopes.ppvk_given_auc", span):
            ppvk_min_given_auc(auc.value, ratio)
            ppvk_max_given_auc(auc.value, ratio)
        with t.span("metrics.confusion_at_cut", span):
            confusion_at_cut(ranking, ranking.k1)
        t.count("roc.doubled_pairs", round(2 * report.auc.correct_pairs))
    return report


def _evaluate_table(t, parent, path, scale, label):
    """The library pipeline behind ``evaluate``: one table to a JSON report."""

    with t.span("ingest.load_csv", parent):
        loaded = load_csv(path, ColumnMap(), scale)
    with t.span("ingest.to_ranking", parent):
        ranking = to_ranking(loaded.rows)
    with t.span("ingest.decile_report", parent):
        deciles = decile_report(loaded.rows)
    report = _build_report(
        t, parent, ranking, label=label, decile=deciles, load_summary=loaded.summary
    )
    with t.span("reporting.format_report", parent):
        text = format_report(report, "json")
    if t.on:
        _count_load(t, loaded.summary)
        _count_ranking(t, ranking)
    return ranking, report, text


def _check_report(doc: dict, expected: dict) -> None:
    """Compare one JSON report with exact reference counts."""

    k1, k2 = expected["k1"], expected["k2"]
    total = k1 * k2
    auc, ppv = doc["auc"], doc["ppv_k"]
    _require(doc["n"] == k1 + k2, f"n {doc['n']} != {k1 + k2}")
    _require((doc["k1"], doc["k2"]) == (k1, k2), f"classes {doc['k1']}:{doc['k2']} != {k1}:{k2}")
    _require(auc["total_pairs"] == total, f"total pairs {auc['total_pairs']} != {total}")
    doubled = 2 * auc["correct_pairs"]
    _require(doubled == expected["doubled_u"], f"doubled U {doubled} != {expected['doubled_u']}")
    _require(
        auc["value"] == _as_10g(Fraction(expected["doubled_u"], 2 * total)),
        f"auc {auc['value']} is not the doubled U over 2*k1*k2",
    )
    _require(ppv["k"] == k1, f"cut {ppv['k']} != k1 {k1}")
    _require(ppv["hits"] == expected["hits"], f"hits {ppv['hits']} != {expected['hits']}")
    _require(ppv["value"] == _as_10g(Fraction(ppv["hits"], k1)), "ppv_k is not hits / k1")
    env = doc["envelope_at_auc"]
    _require(
        env["ppv_min_hits"] <= ppv["hits"] <= env["ppv_max_hits"],
        f"hits {ppv['hits']} outside [{env['ppv_min_hits']}, {env['ppv_max_hits']}]",
    )
    band = doc["envelope_at_ppv"]
    _require(
        band["auc_min"] <= auc["value"] <= band["auc_max"],
        f"auc {auc['value']} outside [{band['auc_min']}, {band['auc_max']}]",
    )


# --- compas_report ---------------------------------------------------------

COMPAS_ARGV = ["report-compas", "--format", "json"]


def compas_op(spec, t, root):
    with t.span("cli.main", root) as span:
        output = _run_cli(COMPAS_ARGV)
    if t.on:
        for scale in (Scale.GENERAL, Scale.VIOLENT):
            _evaluate_table(
                t, span, str(fixture_path(scale)), scale, f"{scale.value} recidivism scale"
            )
    return output


def compas_check(output, spec) -> None:
    code, text = output
    _require(code == 0, f"report-compas exited {code}")
    docs = json.loads(text)
    _require(len(docs) == len(spec["tables"]), f"{len(docs)} reports, not {len(spec['tables'])}")
    for doc, expected in zip(docs, spec["tables"]):
        _check_report(doc, expected)


# --- scores_tied_100k ------------------------------------------------------


def tied_op(spec, t, root):
    ranking, report, text = _evaluate_table(t, root, spec["csv"], Scale.GENERAL, "scores_tied")
    with t.span("roc.roc_curve", root):
        curve = roc_curve(ranking)
    with t.span("roc.auc_trapezoid", root):
        trapezoid = auc_trapezoid(curve)
    t.count("roc.points", len(curve.points))
    return text, report.auc.value, len(curve.points), trapezoid


def tied_check(output, spec) -> None:
    text, pairwise, points, trapezoid = output
    expected = spec["expected"]
    doc = json.loads(text)
    _check_report(doc, expected)
    summary = doc["load_summary"]
    for key in ("rows_read", "rows_kept", "dropped"):
        _require(summary[key] == expected[key], f"{key} {summary[key]} != {expected[key]}")
    _require(points == expected["tie_groups"] + 1, f"{points} ROC points for {expected['tie_groups']} tie groups")
    _require(abs(trapezoid - pairwise) <= 1e-12, f"trapezoid AUC {trapezoid} != pairwise {pairwise}")


# --- closed_forms ----------------------------------------------------------

VERIFY_LIMIT = 16
CURVE_RATIO = (4262, 7515)
GRID_RATIO = (11441, 1085)
GRID_STEPS = 1000
CLOSED_FORMS_ARGVS = (
    ["verify", "--limit", str(VERIFY_LIMIT)],
    ["envelope", "--k1", str(CURVE_RATIO[0]), "--k2", str(CURVE_RATIO[1])],
    [
        "envelope", "--k1", str(GRID_RATIO[0]), "--k2", str(GRID_RATIO[1]),
        "--mode", "ppv-given-auc", "--step", str(1 / GRID_STEPS),
    ],
)


def closed_forms_op(spec, t, root):
    verify, curve, grid = CLOSED_FORMS_ARGVS
    outputs = []
    with t.span("cli.main", root) as span:
        outputs.append(_run_cli(verify))
    if t.on:
        arrangements = ratios = 0
        for n in range(2, VERIFY_LIMIT + 1):
            for k1 in range(1, n):
                with t.span("oracle.certify", span):
                    report = certify_envelopes(ClassRatio(k1, n - k1), limit=VERIFY_LIMIT)
                ratios += 1
                arrangements += report.arrangements
        t.count("oracle.ratios", ratios)
        t.count("oracle.arrangements", arrangements)
    with t.span("cli.main", root) as span:
        outputs.append(_run_cli(curve))
    if t.on:
        with t.span("envelopes.envelope_curve", span):
            samples = envelope_curve(ClassRatio(*CURVE_RATIO)).samples
        t.count("envelopes.curve_samples", len(samples))
    with t.span("cli.main", root) as span:
        outputs.append(_run_cli(grid))
    if t.on:
        ratio = ClassRatio(*GRID_RATIO)
        with t.span("envelopes.grid_scan", span) as scan:
            for index in range(GRID_STEPS + 1):
                with t.span("envelopes.ppvk_given_auc", scan):
                    ppvk_min_given_auc(index / GRID_STEPS, ratio)
                    ppvk_max_given_auc(index / GRID_STEPS, ratio)
        t.count("envelopes.grid_points", GRID_STEPS + 1)
    return outputs


def _table_rows(text: str, header: str) -> list[tuple[float, float, float]]:
    lines = text.splitlines()
    _require(lines[1].split() == header.split(), f"header {lines[1]!r} != {header!r}")
    rows = [tuple(float(field) for field in line.split()) for line in lines[2:]]
    for row in rows:
        _require(len(row) == 3 and row[1] <= row[2], f"row {row} has lo > hi")
    return rows


def closed_forms_check(outputs, spec) -> None:
    expected = spec["expected"]
    for code, _ in outputs:
        _require(code == 0, f"a closed_forms command exited {code}")
    verify_lines = outputs[0][1].splitlines()
    _require(verify_lines[-1] == expected["verify"], f"verify said {verify_lines[-1]!r}")
    _require(
        len(verify_lines) - 1 == expected["ratios"] and all(line.endswith("  ok") for line in verify_lines[:-1]),
        "verify did not certify every ratio",
    )

    k1, k2 = CURVE_RATIO
    rows = _table_rows(outputs[1][1], "ppv auc_min auc_max")
    _require(len(rows) == k1 + 1, f"{len(rows)} curve rows, not {k1 + 1}")
    _require(rows[0] == (0.0, 0.0, _as_10g(1 - Fraction(k1, k2))), f"first curve row {rows[0]}")
    _require(rows[-1] == (1.0, 1.0, 1.0), f"last curve row {rows[-1]}")

    big, small = GRID_RATIO
    floor = _as_10g(Fraction(big - small, big))
    rows = _table_rows(outputs[2][1], "auc ppv_min ppv_max")
    _require(len(rows) == GRID_STEPS + 1, f"{len(rows)} grid rows, not {GRID_STEPS + 1}")
    _require(all(row[1] >= floor for row in rows), "a ppv_min lies below the swapped-ratio floor")
    _require(rows[0] == (0.0, floor, floor), f"first grid row {rows[0]}")
    _require(rows[-1] == (1.0, 1.0, 1.0), f"last grid row {rows[-1]}")


#: name -> (op, check)
WORKLOADS = {
    "compas_report": (compas_op, compas_check),
    "scores_tied_100k": (tied_op, tied_check),
    "closed_forms": (closed_forms_op, closed_forms_check),
}
