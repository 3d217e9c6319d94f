"""Command line front end: evaluate, envelope, verify, report-compas.

Exit codes: 0 on success, 1 for data or usage errors (typed AucppvError,
bad flags, unreadable files), 2 for internal consistency failures (a
self-check caught a toolkit bug). Output is byte-deterministic for fixed
input and flags; numbers carry 10 significant digits.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction
from pathlib import Path

from .data import fixture_path
from .envelopes import (
    ClassRatio,
    envelope_curve,
    ppvk_max_given_auc,
    ppvk_min_given_auc,
)
from .errors import AucppvError, InstanceTooLarge, InternalConsistencyError
from .ingest import ColumnMap, Scale, decile_report, load_csv, to_ranking
from .oracle import DEFAULT_LIMIT, certify_envelopes
from .reporting import build_report, format_number, format_report

__all__ = ["main", "cmd_evaluate", "cmd_envelope", "cmd_verify", "cmd_report_compas"]

#: Most rows one ``envelope`` table may have; larger requests are refused
#: before any row is built.
MAX_ENVELOPE_ROWS = 10**6


class _Parser(argparse.ArgumentParser):
    """argparse with usage errors on exit code 1 (2 is reserved)."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _delimiter(text: str) -> str:
    if len(text) != 1:
        raise argparse.ArgumentTypeError(f"must be one character, got {text!r}")
    return text


def _add_input_flags(parser: argparse.ArgumentParser, *, required_input: bool) -> None:
    if required_input:
        parser.add_argument("--input", required=True, help="CSV score table to read")
    parser.add_argument("--id-col", default="person_id", help="id column name")
    parser.add_argument("--score-col", default="raw_score", help="raw score column name")
    parser.add_argument("--decile-col", default="decile", help="decile column name")
    parser.add_argument("--outcome-col", default="outcome", help="outcome column name")
    parser.add_argument("--delimiter", type=_delimiter, default=",", help="CSV field delimiter")


def _add_output_flags(parser: argparse.ArgumentParser, formats=("table", "json", "tsv")) -> None:
    parser.add_argument("--format", choices=formats, default=formats[0], help="output format")
    parser.add_argument("--output", default=None, help="write output here instead of stdout")


def _column_map(args: argparse.Namespace) -> ColumnMap:
    return ColumnMap(
        id=args.id_col,
        score=args.score_col,
        decile=args.decile_col,
        outcome=args.outcome_col,
    )


def _emit(text: str, output: str | None) -> None:
    if output is None:
        sys.stdout.write(text)
    else:
        Path(output).write_text(text, encoding="utf-8")


def _evaluate_one(path: str, scale: Scale, args: argparse.Namespace, label: str):
    result = load_csv(
        path,
        _column_map(args),
        scale,
        delimiter=args.delimiter,
    )
    ranking = to_ranking(result.rows)
    deciles = decile_report(result.rows)
    return build_report(
        ranking,
        label=label,
        decile=deciles,
        load_summary=result.summary,
    )


def cmd_evaluate(args: argparse.Namespace) -> int:
    """Evaluate one score table: metrics, AUC, PPV_k, envelope context."""

    scale = Scale(args.scale)
    report = _evaluate_one(args.input, scale, args, label=f"{scale.value} ({args.input})")
    _emit(format_report(report, args.format), args.output)
    return 0


def _check_rows(rows: float) -> None:
    if rows > MAX_ENVELOPE_ROWS:
        raise InstanceTooLarge(
            f"envelope table of {rows:.10g} rows exceeds the limit {MAX_ENVELOPE_ROWS}"
        )


def _envelope_text(args: argparse.Namespace) -> str:
    if args.k1 < 1 or args.k2 < 1:
        raise AucppvError("class sizes k1 and k2 must be at least 1")
    ratio = ClassRatio(args.k1, args.k2)
    header_fields: list[str]
    rows: list[tuple[str, ...]]
    if args.mode == "auc-given-ppv":
        _check_rows(min(args.k1, args.k2) + 1)
        curve = envelope_curve(ratio)
        header_fields = ["ppv", "auc_min", "auc_max"]
        rows = [
            (format_number(a), format_number(lo), format_number(hi))
            for a, lo, hi in curve.samples
        ]
        note = (
            f"# ratio {curve.ratio.k1}:{curve.ratio.k2}"
            + (" (swapped to the smaller class)" if curve.swapped else "")
        )
    else:
        if not 0.0 < args.step <= 1.0:
            raise AucppvError(f"grid step {args.step!r} must lie in (0, 1]")
        # A float count first: 1 / step can overflow to inf before rounding.
        _check_rows(1.0 / args.step + 1)
        # Exact, as in hits_from_ppv: the step must be the float 1 / steps.
        steps = round(1.0 / args.step)
        if 1 / steps != args.step:
            raise AucppvError(f"grid step {args.step!r} must divide 1 evenly")
        header_fields = ["auc", "ppv_min", "ppv_max"]
        rows = []
        for index in range(steps + 1):
            b = Fraction(index, steps)
            lo = ppvk_min_given_auc(b, ratio).value
            hi = ppvk_max_given_auc(b, ratio).value
            rows.append((format_number(float(b)), format_number(lo), format_number(hi)))
        note = f"# ratio {ratio.k1}:{ratio.k2}"
    if args.format == "json":
        import json

        payload = {
            "mode": args.mode,
            "k1": args.k1,
            "k2": args.k2,
            "rows": [
                {name: float(value) for name, value in zip(header_fields, row)}
                for row in rows
            ],
        }
        return json.dumps(payload, indent=2) + "\n"
    sep = "\t" if args.format == "tsv" else "  "
    lines = [note, sep.join(header_fields)]
    lines.extend(sep.join(row) for row in rows)
    return "\n".join(lines) + "\n"


def cmd_envelope(args: argparse.Namespace) -> int:
    """Tabulate envelope curves for a class ratio."""

    _emit(_envelope_text(args), args.output)
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    """Certify the closed-form envelopes by counting every arrangement.

    Runs every ratio with k1 + k2 <= limit and reports one line per ratio.
    Each hit level's arrangements are counted by pair count with a product
    of two Gaussian binomials, none of them visited; the level's least and
    most AUC must equal the closed forms as exact rationals, and any
    mismatch fails the run.
    """

    if args.limit > DEFAULT_LIMIT:
        raise InstanceTooLarge(
            f"limit {args.limit} exceeds the supported maximum {DEFAULT_LIMIT}"
        )
    if args.limit < 2:
        raise AucppvError("limit must be at least 2 (one record per class)")
    lines = []
    ratios = 0
    arrangements = 0
    for n in range(2, args.limit + 1):
        for k1 in range(1, n):
            ratio = ClassRatio(k1, n - k1)
            report = certify_envelopes(ratio, limit=args.limit)
            ratios += 1
            arrangements += report.arrangements
            lines.append(
                f"ratio {ratio.k1}:{ratio.k2}  arrangements {report.arrangements}"
                f"  hit levels {len(report.per_hits)}  ok"
            )
    lines.append(
        f"certified {ratios} ratios, {arrangements} arrangements, all exact"
    )
    _emit("\n".join(lines) + "\n", args.output)
    return 0


def cmd_report_compas(args: argparse.Namespace) -> int:
    """Evaluate both bundled scales (or user-supplied tables) side by side."""

    sections = []
    for scale, path in (
        (Scale.GENERAL, args.general_input or str(fixture_path(Scale.GENERAL))),
        (Scale.VIOLENT, args.violent_input or str(fixture_path(Scale.VIOLENT))),
    ):
        report = _evaluate_one(path, scale, args, label=f"{scale.value} recidivism scale")
        sections.append(format_report(report, args.format))
    if args.format == "json":
        # Keep the two documents parseable as one array.
        stripped = [section.rstrip("\n") for section in sections]
        text = "[\n" + ",\n".join(stripped) + "\n]\n"
    else:
        text = "\n".join(sections)
    _emit(text, args.output)
    return 0


def _build_parser() -> _Parser:
    parser = _Parser(prog="aucppv", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser(
        "evaluate", help="evaluate one CSV score table", parents=[], description=cmd_evaluate.__doc__
    )
    _add_input_flags(p_eval, required_input=True)
    p_eval.add_argument(
        "--scale", choices=[s.value for s in Scale], default=Scale.GENERAL.value,
        help="which risk scale the table belongs to",
    )
    _add_output_flags(p_eval)
    p_eval.set_defaults(handler=cmd_evaluate)

    p_env = sub.add_parser(
        "envelope", help="tabulate AUC/PPV envelopes for a class ratio",
        description=cmd_envelope.__doc__,
    )
    p_env.add_argument("--k1", type=int, required=True, help="positive class size")
    p_env.add_argument("--k2", type=int, required=True, help="negative class size")
    p_env.add_argument(
        "--mode", choices=["auc-given-ppv", "ppv-given-auc"], default="auc-given-ppv",
        help="which envelope direction to tabulate",
    )
    p_env.add_argument(
        "--step", type=float, default=0.01,
        help="AUC grid step for ppv-given-auc mode (must divide 1)",
    )
    _add_output_flags(p_env, formats=("table", "tsv", "json"))
    p_env.set_defaults(handler=cmd_envelope)

    p_verify = sub.add_parser(
        "verify", help="certify envelopes by counting arrangements with Gaussian binomials",
        description=cmd_verify.__doc__,
    )
    p_verify.add_argument(
        "--limit", type=int, default=12,
        help=f"certify every ratio with k1 + k2 up to this n (max {DEFAULT_LIMIT})",
    )
    p_verify.add_argument("--output", default=None, help="write output here instead of stdout")
    p_verify.set_defaults(handler=cmd_verify)

    p_compas = sub.add_parser(
        "report-compas", help="reproduce the two-scale COMPAS case study",
        description=cmd_report_compas.__doc__,
    )
    p_compas.add_argument(
        "--general-input", default=None,
        help="general-scale CSV (default: bundled synthetic fixture)",
    )
    p_compas.add_argument(
        "--violent-input", default=None,
        help="violent-scale CSV (default: bundled synthetic fixture)",
    )
    _add_input_flags(p_compas, required_input=False)
    _add_output_flags(p_compas)
    p_compas.set_defaults(handler=cmd_report_compas)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except InternalConsistencyError as exc:
        print(f"internal consistency failure: {exc}", file=sys.stderr)
        return 2
    except (OSError, UnicodeDecodeError, AucppvError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
