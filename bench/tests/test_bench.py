"""Self-test of the benchmark's checks.

A clean op passes its check, and a corrupted reference value makes the same
op count as failed, which is what ``failed_share`` reports. Run from the
root of a checkout:

    python3 -m pytest -q bench/tests
"""

from __future__ import annotations

import copy
import gc
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import run  # noqa: E402
from tracing import NULL_TRACER, GcClock, Tracer  # noqa: E402
from speed import REFERENCE_S  # noqa: E402
from worker import Reference, closed_loop, end_to_end, tail  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _corrupt_compas(spec):
    spec["tables"][0]["hits"] += 1


def _corrupt_tied(spec):
    spec["expected"]["doubled_u"] += 1


def _corrupt_drops(spec):
    spec["expected"]["dropped"]["duplicate id"] -= 1


def _corrupt_verify(spec):
    spec["expected"]["verify"] = spec["expected"]["verify"].replace("120", "121")


CASES = [
    ("compas_report", _corrupt_compas),
    ("scores_tied_100k", _corrupt_tied),
    ("scores_tied_100k", _corrupt_drops),
    ("closed_forms", _corrupt_verify),
]


@pytest.fixture(scope="module")
def specs(tmp_path_factory):
    work = tmp_path_factory.mktemp("work")
    return {name: run.prepare(name, 7, work) for name in WORKLOADS}


def _loop(spec, tracer=NULL_TRACER):
    op, check = WORKLOADS[spec["workload"]]
    return closed_loop(op, check, spec, 0.0, tracer, min_ops=1)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_clean_op_passes(specs, name):
    loop = _loop(specs[name])
    assert loop["failed"] == 0, loop["errors"]


@pytest.mark.parametrize("name, corrupt", CASES)
def test_corrupted_reference_counts_as_failed(specs, name, corrupt):
    spec = copy.deepcopy(specs[name])
    corrupt(spec)
    loop = _loop(spec)
    assert loop["failed"] == len(loop["times"]) == 1
    assert loop["errors"][0].startswith("CheckFailed")


def test_traced_counts_match_the_generator(specs):
    spec = specs["scores_tied_100k"]
    tracer = Tracer()
    loop = _loop(spec, tracer)
    assert loop["failed"] == 0, loop["errors"]
    (row,) = tracer.per_op().values()
    expected = spec["expected"]
    assert row["ranking.tie_groups"] == expected["tie_groups"]
    assert row["ranking.boundary_group_size"] == expected["boundary_group_size"]
    assert row["ranking.records"] == expected["rows_kept"]
    assert row["roc.doubled_pairs"] == expected["doubled_u"]
    assert row["ingest.rows_dropped"] == sum(expected["dropped"].values())
    # The k1 cut falls strictly inside the boundary tie group.
    start = expected["boundary_group_start"]
    assert start < expected["k1"] < start + expected["boundary_group_size"]


def test_gc_clock_charges_only_collections_inside_ops():
    def op(spec, tracer, root):
        gc.collect()

    with GcClock() as clock:
        loop = closed_loop(op, lambda output, spec: None, {}, 0.0, NULL_TRACER, min_ops=3, clock=clock)
    assert loop["collections"] == [1, 1, 1]  # a full collection counts once, in generation 2
    assert all(ns > 0 for ns in loop["gc_ns"])
    # The collection closed_loop makes between ops is not charged to any op.
    assert clock.ns > sum(loop["gc_ns"])


def test_tail_has_ten_samples_beyond_it():
    times = [float(i) for i in range(100)]
    assert tail(times) == (90.0, 89.0)
    assert tail(times[:11]) == (100 / 11, 0.0)


def test_times_are_scaled_by_the_reference_on_both_sides():
    # Eleven ops of 0.2 s; the reference took three times as long after the last.
    loop = {"times": [0.2] * 11, "refs": [REFERENCE_S] * 11 + [3 * REFERENCE_S], "failed": 0}
    metrics = end_to_end(loop)
    assert metrics["op_p50_s"] == metrics["wall_op_p50_s"] == pytest.approx(0.2)
    # The last op ran at half the reference speed on average: half its wall time.
    assert metrics["op_tail_s"] == pytest.approx(0.1)
    assert metrics["wall_op_tail_s"] == pytest.approx(0.2)
    assert metrics["ops_per_s"] == pytest.approx(11 / 2.1)
    assert metrics["wall_ops_per_s"] == pytest.approx(11 / 2.2)


def test_reference_process_answers_and_exits_when_its_stdin_closes():
    with subprocess.Popen(
        [sys.executable, str(BENCH / "speed.py")], stdin=subprocess.PIPE, stdout=subprocess.PIPE
    ) as process:
        reference = Reference(f"{process.stdout.fileno()},{process.stdin.fileno()}")
        loop = closed_loop(lambda spec, tracer, root: None, lambda output, spec: None, {}, 0.0,
                           NULL_TRACER, min_ops=3, reference=reference)
        assert len(loop["refs"]) == len(loop["times"]) + 1 == 4
        assert all(ref > 0 for ref in loop["refs"])
    assert process.returncode == 0
