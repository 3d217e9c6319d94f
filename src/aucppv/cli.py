"""Command line front end: evaluate, envelope, verify, report-compas.

Exit codes: 0 on success, 1 for data or usage errors (typed AucppvError,
bad flags, unreadable files), 2 for internal consistency failures (a
self-check caught a toolkit bug). Output is byte-deterministic for fixed
input and flags; numbers carry 10 significant digits, and pair counts print
exactly.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .errors import AucppvError, InstanceTooLarge, InternalConsistencyError

# Each handler imports the submodules it runs, so a command loads only those.
TYPE_CHECKING = False
if TYPE_CHECKING:
    from .ingest import Scale

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


def _add_input_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--id-col", default="person_id", help="id column name")
    parser.add_argument("--score-col", default="raw_score", help="raw score column name")
    parser.add_argument("--decile-col", default="decile", help="decile column name")
    parser.add_argument("--outcome-col", default="outcome", help="outcome column name")
    parser.add_argument("--delimiter", type=_delimiter, default=",", help="CSV field delimiter")


def _add_output_flags(parser: argparse.ArgumentParser) -> None:
    formats = ("table", "json", "tsv")
    parser.add_argument("--format", choices=formats, default="table", help="output format")
    parser.add_argument("--output", help="write output here instead of stdout")


def _emit(text: str, output: str | None) -> None:
    if output is None:
        sys.stdout.write(text)
    else:
        Path(output).write_text(text, encoding="utf-8")


def _evaluate_one(
    path: str, scale: Scale, args: argparse.Namespace, label: str, shown: str | None = None
):
    """One table's report; ``shown``, if given, is the path the report prints."""

    from .ingest import ColumnMap, decile_report, load_csv, to_ranking
    from .reporting import build_report

    column_map = ColumnMap(args.id_col, args.score_col, args.decile_col, args.outcome_col)
    try:
        result = load_csv(path, column_map, scale, delimiter=args.delimiter)
        ranking = to_ranking(result.rows)
        deciles = decile_report(result.rows)
        summary = result.summary if shown is None else result.summary._replace(path=shown)
        return build_report(ranking, label=label, decile=deciles, load_summary=summary)
    except (AucppvError, UnicodeDecodeError) as exc:
        # report-compas reads two files: say which one is bad. An
        # InternalConsistencyError is no AucppvError and passes unchanged.
        raise AucppvError(f"{path}: {exc}") from exc


def cmd_evaluate(args: argparse.Namespace) -> int:
    """Evaluate one score table: metrics, AUC, PPV_k, envelope context."""

    from .ingest import Scale
    from .reporting import format_report

    scale = Scale(args.scale)
    report = _evaluate_one(args.input, scale, args, label=f"{scale.value} ({args.input})")
    _emit(format_report(report, args.format), args.output)
    return 0


def _check_rows(rows: float) -> None:
    if rows > MAX_ENVELOPE_ROWS:
        raise InstanceTooLarge(
            f"envelope table of {rows:.10g} rows exceeds the limit {MAX_ENVELOPE_ROWS}"
        )


def cmd_envelope(args: argparse.Namespace) -> int:
    """Tabulate envelope curves for a class ratio."""

    from .envelopes import ClassRatio, _hit_bounds, envelope_curve

    if args.k1 < 1 or args.k2 < 1:
        raise AucppvError("class sizes k1 and k2 must be at least 1")
    ratio = ClassRatio(args.k1, args.k2)
    # Both modes build (x, low, high) float triples, formatted once at the end.
    if args.mode == "auc-given-ppv":
        _check_rows(min(args.k1, args.k2) + 1)
        curve = envelope_curve(ratio)
        header_fields = ["ppv", "auc_min", "auc_max"]
        rows = curve.samples
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
        k1, k2 = ratio
        rows = []
        for index in range(steps + 1):
            lo, hi = _hit_bounds(index, steps, k1, k2)
            rows.append((index / steps, lo / k1, hi / k1))
        note = f"# ratio {ratio.k1}:{ratio.k2}"
    if args.format == "json":
        import json

        payload = {
            "mode": args.mode,
            "k1": args.k1,
            "k2": args.k2,
            "rows": [
                {name: float(f"{value:.10g}") for name, value in zip(header_fields, row)}
                for row in rows
            ],
        }
        text = json.dumps(payload, indent=2) + "\n"
    else:
        sep = "\t" if args.format == "tsv" else "  "
        # "%.10g" is format_number's format, applied to the whole row at once.
        row_format = sep.join(["%.10g"] * 3)
        lines = [note, sep.join(header_fields)]
        lines.extend(map(row_format.__mod__, rows))
        text = "\n".join(lines) + "\n"
    _emit(text, args.output)
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    """Certify the closed-form envelopes by counting every arrangement.

    Runs every ratio with k1 + k2 <= limit and reports one line per ratio.
    Each hit level's arrangements are counted by pair count with a product
    of two Gaussian binomials, none of them visited. One table of those
    Gaussian binomials serves the whole run; each level's count and its
    least and most AUC are read off its two factors, and the extremes must
    equal the closed forms as exact rationals: any mismatch fails the run.
    A limit whose table would pass the work bound is refused before any row
    is built. Past n of about 14 this checks the Gaussian-binomial
    decomposition, not each arrangement: only the test suite's itertools
    checks (n <= 14) visit arrangements.
    """

    from .oracle import certify_up_to

    lines = []
    arrangements = 0
    for report in certify_up_to(args.limit):
        arrangements += report.arrangements
        lines.append(
            f"ratio {report.ratio.k1}:{report.ratio.k2}  arrangements {report.arrangements}"
            f"  hit levels {len(report.per_hits)}  ok"
        )
    lines.append(
        f"certified {len(lines)} ratios, {arrangements} arrangements, all exact"
    )
    _emit("\n".join(lines) + "\n", args.output)
    return 0


def _render_pair(render, first, second, rereadable: bool) -> list[str]:
    """``[render(first), render(second)]``, ``second`` in a forked child where safe.

    Safe means: os.fork exists; at least two CPUs are usable (pinned to one
    CPU, forking made report-compas about 13 ms or 23% slower); no other
    Python thread runs, since a fork copies only the calling thread; and
    ``second`` is ``rereadable``, since the parent renders it again whenever
    the child fails, which keeps the sequential run's output and errors. The
    child exits 0 only after it has written all of its UTF-8 bytes.
    """

    import os

    threading = sys.modules.get("threading")
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    pid = None
    if rereadable and hasattr(os, "fork") and cpus >= 2 and (threading is None or threading.active_count() == 1):
        read_end, write_end = os.pipe()
        try:
            pid = os.fork()
        except OSError:  # out of processes or memory: no child to wait for
            os.close(read_end)
            os.close(write_end)
    if pid is None:
        return [render(first), render(second)]
    if pid == 0:
        status = 1
        try:
            os.close(read_end)
            with open(write_end, "wb") as pipe:
                pipe.write(render(second).encode("utf-8"))
            status = 0
        finally:
            os._exit(status)
    os.close(write_end)
    status = None
    with open(read_end, "rb") as pipe:
        try:
            section = render(first)
            child_bytes = pipe.read()
            status = os.waitpid(pid, 0)[1]
        finally:
            if status is None:  # the parent's table raised, or an interrupt came
                import contextlib
                import signal

                # The child may have been reaped just before the interrupt.
                with contextlib.suppress(ProcessLookupError, ChildProcessError):
                    os.kill(pid, signal.SIGKILL)
                    os.waitpid(pid, 0)
    # A wait status of 0 is a normal exit with code 0.
    return [section, child_bytes.decode("utf-8") if status == 0 else render(second)]


def cmd_report_compas(args: argparse.Namespace) -> int:
    """Evaluate both bundled scales (or user-supplied tables) side by side."""

    from .data import fixture_path
    from .ingest import Scale
    from .reporting import format_report

    inputs = {Scale.GENERAL: args.general_input, Scale.VIOLENT: args.violent_input}

    def render_scale(scale: Scale) -> str:
        path, shown = inputs[scale], None
        if path is None:
            # A bundled fixture prints as its place in the package, the same
            # bytes wherever the package is installed.
            fixture = fixture_path(scale)
            path, shown = str(fixture), f"aucppv/data/{fixture.name}"
        label = f"{scale.value} recidivism scale"
        report = _evaluate_one(path, scale, args, label=label, shown=shown)
        return format_report(report, args.format)

    # The parent renders the violent table again if its child fails, so it
    # forks only where that table can be read twice: a fixture or a regular
    # file, not a pipe or FIFO the child has drained.
    try:
        rereadable = args.violent_input is None or Path(args.violent_input).is_file()
    except OSError:  # the sequential run reports it
        rereadable = False
    sections = _render_pair(render_scale, Scale.GENERAL, Scale.VIOLENT, rereadable)
    if args.format == "json":
        # Keep the two documents parseable as one array.
        stripped = [section.rstrip("\n") for section in sections]
        text = "[\n" + ",\n".join(stripped) + "\n]\n"
    else:
        text = "\n".join(sections)
    _emit(text, args.output)
    return 0


def _evaluate_flags(parser: argparse.ArgumentParser) -> None:
    from .ingest import Scale

    parser.add_argument("--input", required=True, help="CSV score table to read")
    _add_input_flags(parser)
    parser.add_argument(
        "--scale", choices=[s.value for s in Scale], default=Scale.GENERAL.value,
        help="which risk scale the table belongs to",
    )
    _add_output_flags(parser)


def _envelope_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--k1", type=int, required=True, help="positive class size")
    parser.add_argument("--k2", type=int, required=True, help="negative class size")
    parser.add_argument(
        "--mode", choices=["auc-given-ppv", "ppv-given-auc"], default="auc-given-ppv",
        help="which envelope direction to tabulate",
    )
    parser.add_argument(
        "--step", type=float, default=0.01,
        help="AUC grid step for ppv-given-auc mode (must divide 1)",
    )
    _add_output_flags(parser)


def _verify_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--limit", type=int, default=12,
        help="certify every ratio with k1 + k2 up to this n (refused past 209, the work bound)",
    )
    parser.add_argument("--output", help="write output here instead of stdout")


def _compas_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--general-input", help="general-scale CSV (default: bundled synthetic fixture)"
    )
    parser.add_argument(
        "--violent-input", help="violent-scale CSV (default: bundled synthetic fixture)"
    )
    _add_input_flags(parser)
    _add_output_flags(parser)


#: Each subcommand's help line, handler (whose docstring is its description) and flags.
_COMMANDS = {
    "evaluate": ("evaluate one CSV score table", cmd_evaluate, _evaluate_flags),
    "envelope": ("tabulate AUC/PPV envelopes for a class ratio", cmd_envelope, _envelope_flags),
    "verify": (
        "certify envelopes by counting arrangements with Gaussian binomials",
        cmd_verify, _verify_flags,
    ),
    "report-compas": (
        "reproduce the two-scale COMPAS case study", cmd_report_compas, _compas_flags
    ),
}


def _build_parser() -> _Parser:
    # Only help requests and usage errors reach this parser (see main).
    parser = _Parser(prog="aucppv", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_line, handler, add_flags) in _COMMANDS.items():
        command = sub.add_parser(name, help=help_line, description=handler.__doc__)
        add_flags(command)
        command.set_defaults(handler=handler)
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # A call that names its command first is parsed by that command's parser
    # alone, the one add_parser builds; any other call, or one with arguments
    # left over, gets its help or usage error from the full parser.
    entry = _COMMANDS.get(argv[0]) if argv else None
    if entry is not None:
        _, handler, add_flags = entry
        parser = _Parser(prog=f"aucppv {argv[0]}", description=handler.__doc__)
        add_flags(parser)
        args, extras = parser.parse_known_args(argv[1:])
        args.command, args.handler = argv[0], handler
    if entry is None or extras:
        args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except InternalConsistencyError as exc:
        print(f"internal consistency failure: {exc}", file=sys.stderr)
        return 2
    except (OSError, AucppvError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
