"""One workload run in a fresh process: the closed loop, its timings and checks.

Usage: python3 bench/worker.py SPEC_JSON --seconds S --trace 0|1 --reference-fds R,W

Started by run.py with ``src`` on PYTHONPATH. It runs the workload's op in a
closed loop, one op after another on one thread, for at least S seconds and
at least MIN_OPS ops. Each op's output is checked outside the timed region.
With ``--trace 1`` it spends half the time untraced and half traced and
reports per-layer metrics, and writes the traced spans as JSON lines to
``<workload>.spans.jsonl`` next to the spec; otherwise it reports the
end-to-end ones, as wall times scaled to the reference speed (see speed.py).
The last line of stdout is one JSON object.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

from speed import scaled
from tracing import NULL_TRACER, SELF_TIMES, GcClock, Tracer

#: The tail percentile needs ten samples beyond it, so at least eleven ops.
MIN_OPS = 11
#: Per-layer metric name -> unit, in the order BENCHMARK.json lists them.
PER_LAYER = {
    "ingest.load_csv_s": "s",
    "ingest.to_ranking_s": "s",
    "ingest.decile_report_s": "s",
    "ingest.rows_read": "count",
    "ingest.rows_kept": "count",
    "ingest.rows_dropped": "count",
    "ingest.kept_ratio": "ratio",
    "ranking.records": "count",
    "ranking.tie_groups": "count",
    "ranking.boundary_group_size": "count",
    "roc.auc_pairwise_s": "s",
    "roc.roc_curve_s": "s",
    "roc.auc_trapezoid_s": "s",
    "roc.points": "count",
    "roc.doubled_pairs": "count",
    "ppv.ppv_base_rate_s": "s",
    "metrics.confusion_at_cut_s": "s",
    "envelopes.auc_given_ppvk_s": "s",
    "envelopes.ppvk_given_auc_s": "s",
    "envelopes.envelope_curve_s": "s",
    "envelopes.grid_scan_s": "s",
    "envelopes.curve_samples": "count",
    "envelopes.grid_points": "count",
    "oracle.certify_s": "s",
    "oracle.ratios": "count",
    "oracle.arrangements": "count",
    "oracle.arrangements_per_s": "1/s",
    "reporting.build_report_s": "s",
    "reporting.build_report_self_s": "s",
    "reporting.format_report_s": "s",
    "cli.self_s": "s",
    "runtime.gc_collections": "count",
    "runtime.gc_s": "s",
    "trace.overhead_s": "s",
}


class Reference:
    """speed.py's reference task, run on request in the process run.py started.

    ``fds`` names the pipe ends that read that process's times and write its
    requests. Calling the object runs the task once and returns its wall
    time. The worker imports nothing for this, so the task and its plumbing
    add nothing to the worker's peak memory.
    """

    def __init__(self, fds: str) -> None:
        self._read, self._write = (int(fd) for fd in fds.split(","))
        self()  # warm-up

    def __call__(self) -> float:
        os.write(self._write, b"\n")
        line = b""
        while not line.endswith(b"\n"):
            chunk = os.read(self._read, 64)
            if not chunk:
                raise EOFError("the reference process closed its output")
            line += chunk
        return float(line)


def _collections() -> int:
    return sum(generation["collections"] for generation in gc.get_stats())


def closed_loop(
    op, check, spec, seconds: float, tracer, min_ops: int = MIN_OPS, clock: GcClock | None = None,
    reference: Reference | None = None,
) -> dict:
    """Run ops back to back until both ``seconds`` and ``min_ops`` are reached.

    Each op starts from a collected heap. Its wall time covers only the op;
    the output check and the collection between ops are outside it. With a
    ``reference``, the reference task is timed before each op and after the
    last (``refs``, one more than ``times``), also outside it. An op
    that raises or fails its check counts as failed. With an installed
    ``clock``, each op's time in garbage collection is recorded too.
    """

    times: list[float] = []
    refs: list[float] = []
    collections: list[int] = []
    gc_ns: list[int] = []
    errors: list[str] = []
    failed = 0
    deadline = time.perf_counter() + seconds
    while True:
        gc.collect()
        if reference:
            refs.append(reference())
        tracer.begin_op()
        before = _collections()
        gc_before = clock.ns if clock else 0
        start = time.perf_counter()
        try:
            with tracer.span("op") as root:
                output = op(spec, tracer, root)
        except Exception as exc:  # any raise is a failed op; keep looping
            output, problem = None, f"{type(exc).__name__}: {exc}"
        else:
            problem = None
        times.append(time.perf_counter() - start)
        collections.append(_collections() - before)
        gc_ns.append(clock.ns - gc_before if clock else 0)
        if problem is None:
            try:
                check(output, spec)
            except Exception as exc:  # includes CheckFailed and malformed output
                problem = f"{type(exc).__name__}: {exc}"
        if problem is not None:
            failed += 1
            if len(errors) < 5:
                errors.append(problem)
        if len(times) >= min_ops and time.perf_counter() >= deadline:
            break
    if reference:
        refs.append(reference())
    return {
        "times": times, "refs": refs, "collections": collections, "gc_ns": gc_ns,
        "failed": failed, "errors": errors,
    }


def tail(times: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it, and its value."""

    ordered = sorted(times)
    index = len(ordered) - 11
    return 100.0 * (index + 1) / len(ordered), ordered[index]


def end_to_end(loop: dict) -> dict:
    """Timings at the reference speed, each op scaled by the reference on its two sides.

    The unscaled wall-time figures come along under ``wall_*`` for the log.
    """

    refs, walls = loop["refs"], loop["times"]
    times = [scaled(wall, refs[i], refs[i + 1]) for i, wall in enumerate(walls)]
    percentile, tail_value = tail(times)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    passed = len(times) - loop["failed"]
    return {
        "ops_per_s": passed / sum(times),
        "op_p50_s": statistics.median(times),
        "op_tail_s": tail_value,
        "peak_rss_mb": peak_kb / 1024,
        "tail_percentile": percentile,
        "wall_ops_per_s": passed / sum(walls),
        "wall_op_p50_s": statistics.median(walls),
        "wall_op_tail_s": tail(walls)[1],
        "reference_p50_s": statistics.median(refs),
    }


def per_layer(tracer, traced: dict, untraced: dict) -> dict:
    """Median over ops of every per-layer metric; 0 where a layer never ran.

    Span times and counts come from the traced ops. GC figures and the
    untraced side of ``trace.overhead_s`` come from the untraced ops, so
    the replays of the traced ops are not charged to the program.
    """

    ops = tracer.per_op()
    for row in ops.values():
        read = row.get("ingest.rows_read", 0)
        row["ingest.kept_ratio"] = row.get("ingest.rows_kept", 0) / read if read else 0.0
        certify = row.get("oracle.certify_s", 0.0)
        row["oracle.arrangements_per_s"] = row.get("oracle.arrangements", 0) / certify if certify else 0.0
    metrics = {}
    for name, unit in PER_LAYER.items():
        if unit == "count":
            # One op's count, never the mean of two.
            metrics[name] = statistics.median_low(row.get(name, 0) for row in ops.values())
        else:
            metrics[name] = statistics.median(row.get(name, 0.0) for row in ops.values())
    metrics["runtime.gc_collections"] = statistics.median_low(untraced["collections"])
    metrics["runtime.gc_s"] = statistics.median(untraced["gc_ns"]) / 1e9
    metrics["trace.overhead_s"] = statistics.median(traced["times"]) - statistics.median(untraced["times"])
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("spec")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--reference-fds", required=True, help="READ,WRITE pipe ends to speed.py")
    args = parser.parse_args(argv)
    spec = json.loads(Path(args.spec).read_text(encoding="utf-8"))

    import aucppv

    source = Path(spec["src"]).resolve()
    if source not in Path(aucppv.__file__).resolve().parents:
        print(f"aucppv imported from {aucppv.__file__}, not from {source}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    op, check = WORKLOADS[spec["workload"]]
    op(spec, NULL_TRACER, None)  # warm-up: fill caches, finish lazy imports
    if not args.trace:
        reference = Reference(args.reference_fds)
        loop = closed_loop(op, check, spec, args.seconds, NULL_TRACER, reference=reference)
        result = {"metrics": end_to_end(loop)}
        runs = [loop]
    else:
        with GcClock() as clock:
            untraced = closed_loop(op, check, spec, args.seconds / 2, NULL_TRACER, min_ops=3, clock=clock)
        tracer = Tracer()
        traced = closed_loop(op, check, spec, args.seconds / 2, tracer, min_ops=3)
        result = {"metrics": per_layer(tracer, traced, untraced)}
        runs = [untraced, traced]
        spans_path = Path(args.spec).with_name(f"{spec['workload']}.spans.jsonl")
        with open(spans_path, "w", encoding="utf-8") as handle:
            for op_id, span_id, parent, name, start, end in tracer.spans:
                handle.write(json.dumps({
                    "op": op_id, "id": span_id, "parent": parent, "name": name,
                    "start_ns": start, "end_ns": end,
                    "self_time_derived": name in SELF_TIMES,
                }) + "\n")
    result["attempted"] = sum(len(run["times"]) for run in runs)
    result["failed"] = sum(run["failed"] for run in runs)
    result["errors"] = [error for run in runs for error in run["errors"]][:5]
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
