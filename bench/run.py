"""aucppv benchmark: one workload, one closed loop, every metric checked.

Usage, from the root of a checkout:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the workload's inputs from the seed (not timed; the
``scores_tied_100k`` table is written by gen_tied.py in a process of its own,
so this process stays small and its memory high-water mark, which exec
hands on to the worker's ``ru_maxrss``, sits below the worker's), then runs the
workload in a fresh single-threaded worker process (worker.py) and prints
its metrics. With ``--trace 0`` it also measures set-up, as the median
import time of ``aucppv`` and ``aucppv.cli`` over SETUP_SAMPLES fresh
interpreters, and the last line of stdout is a JSON object with the
end-to-end metrics, every time among them scaled to the reference speed of
speed.py (the wall-time figures are printed above it); with ``--trace 1``
it holds the per-layer metrics of a traced run. The library is imported
from ``src/`` of this checkout and nowhere else; without it the run fails.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

from speed import REFERENCE_S

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_SAMPLES = 21
#: Times the import between two runs of the reference task; speed.py is put
#: on the path only while it is imported, so the import searches as usual.
SETUP_PROBE = (
    "import sys, time\n"
    f"sys.path.append({str(Path(__file__).resolve().parent)!r})\n"
    "from speed import reference, scaled\n"
    "sys.path.pop()\n"
    "before = reference()\n"
    "start = time.perf_counter()\n"
    "import aucppv, aucppv.cli\n"
    "elapsed = time.perf_counter() - start\n"
    "print(scaled(elapsed, before, reference()), elapsed, aucppv.__file__)\n"
)
#: Pinned answers for the bundled fixtures (general, then violent scale).
COMPAS_TABLES = [
    {"k1": 4262, "k2": 7515, "doubled_u": 2 * 22128860, "hits": 2260},
    {"k1": 1085, "k2": 11441, "doubled_u": 2 * 8392054, "hits": 220},
]
CLOSED_FORMS = {"verify": "certified 120 ratios, 131038 arrangements, all exact", "ratios": 120}


def prepare(workload: str, seed: int, work: Path) -> dict:
    """The workload's spec: its inputs, made from the seed, and reference values."""

    spec: dict = {"workload": workload, "seed": seed, "src": str(SRC)}
    if workload == "compas_report":
        spec["tables"] = COMPAS_TABLES
    elif workload == "scores_tied_100k":
        csv_path = work / "scores_tied_100k.csv"
        spec["csv"] = str(csv_path)
        generator = subprocess.run(
            [sys.executable, str(Path(__file__).with_name("gen_tied.py")), str(csv_path),
             "--seed", str(seed)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        spec["expected"] = json.loads(generator.stdout)
    elif workload == "closed_forms":
        spec["expected"] = CLOSED_FORMS
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return spec


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env["PYTHONHASHSEED"] = "0"
    return env


def setup_seconds(env: dict) -> tuple[list[float], list[float]]:
    """Import times of the package in fresh interpreters, after one warm-up.

    Returns them scaled to the reference speed, and as wall times.
    """

    samples, walls = [], []
    for attempt in range(SETUP_SAMPLES + 1):
        probe = subprocess.run(
            [sys.executable, "-c", SETUP_PROBE],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=60, check=True,
        )
        elapsed, wall, location = probe.stdout.split(maxsplit=2)
        if not Path(location.strip()).resolve().is_relative_to(SRC):
            raise RuntimeError(f"aucppv imported from {location.strip()}, not {SRC}")
        if attempt:
            samples.append(float(elapsed))
            walls.append(float(wall))
    return samples, walls


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["compas_report", "scores_tied_100k", "closed_forms"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "aucppv" / "__init__.py").is_file():
        print(f"error: no aucppv package under {SRC}", file=sys.stderr)
        return 2

    WORK.mkdir(exist_ok=True)
    spec = prepare(args.workload, args.seed, WORK)
    spec_path = WORK / f"{args.workload}.spec.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    env = _env()
    setup, setup_walls = ([], []) if args.trace else setup_seconds(env)
    command = [
        sys.executable, str(Path(__file__).with_name("worker.py")), str(spec_path),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    # The untraced worker times speed.py's reference task around each op in
    # this process of its own; it exits when its stdin closes, as it does on
    # leaving the with block.
    with subprocess.Popen(
        [sys.executable, str(Path(__file__).with_name("speed.py"))],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE,
    ) as reference:
        fds = (reference.stdout.fileno(), reference.stdin.fileno())
        command += ["--reference-fds", f"{fds[0]},{fds[1]}"]
        worker = subprocess.run(
            command, cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=args.seconds + 150, pass_fds=fds,
        )
    sys.stderr.write(worker.stderr)
    if worker.returncode != 0:
        print(f"error: worker exited {worker.returncode}", file=sys.stderr)
        return 1
    result = json.loads(worker.stdout.splitlines()[-1])
    attempted, failed, values = result["attempted"], result["failed"], result["metrics"]
    for error in result["errors"]:
        print(f"failed op: {error}")

    if args.trace:
        from worker import PER_LAYER

        metrics = {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER.items()}
        print("derived self times: cli.self_s, reporting.build_report_self_s")
    else:
        percentile = values.pop("tail_percentile")
        values["setup_s"] = statistics.median(setup)
        units = {"ops_per_s": "1/s", "op_p50_s": "s", "op_tail_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
        print(
            f"{args.workload}: {attempted} ops; op_tail_s is p{percentile:.1f} of {attempted} ops; "
            f"setup_s is the median of {len(setup)} fresh imports"
        )
        print(
            f"wall times: ops_per_s {values['wall_ops_per_s']:.4g} 1/s, op_p50_s {values['wall_op_p50_s']:.4g} s, "
            f"op_tail_s {values['wall_op_tail_s']:.4g} s, setup_s {statistics.median(setup_walls):.4g} s; "
            f"reference task median {values['reference_p50_s']:.4g} s; the metrics below are scaled "
            f"to a reference of {REFERENCE_S} s"
        )
    for name, metric in metrics.items():
        print(f"  {name} = {metric['value']} {metric['unit']}")
    if not args.trace:
        # Not in the JSON metrics: it is 0 on every correct run (see README.md).
        print(f"  failed_share = {failed / attempted} ratio ({failed} of {attempted} ops)")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
