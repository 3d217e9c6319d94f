"""End-to-end CLI behavior: subcommands, formats, exit codes."""

from __future__ import annotations

import contextlib
import csv
import errno
import io
import json
import os
import re
import signal
import subprocess
import sys
import textwrap
import threading
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import aucppv.cli
import aucppv.envelopes
import aucppv.reporting
from aucppv.cli import main
from aucppv.envelopes import ClassRatio, ppvk_max_given_auc, ppvk_min_given_auc
from aucppv.errors import InstanceTooLarge
from aucppv.oracle import certify_up_to
from aucppv.reporting import format_number

PERFECT_CSV = """
person_id,raw_score,decile,outcome
a,3.0,10,1
b,2.0,9,1
c,1.0,2,0
d,0.5,1,0
"""


def write_csv(tmp_path: Path, text: str = PERFECT_CSV, name: str = "scores.csv") -> str:
    path = tmp_path / name
    path.write_text(textwrap.dedent(text).lstrip(), encoding="utf-8")
    return str(path)


def run(capsys, argv: list[str]) -> tuple[int, str, str]:
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def golden_compas(fmt: str) -> str:
    path = Path(__file__).parent / "data" / f"golden_report_compas_{fmt}.txt"
    return path.read_text(encoding="utf-8")


def assert_no_child() -> None:
    """No child process is left behind, running or unreaped."""

    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def cpu_mask() -> set[int] | None:
    """The CPUs this process may run on, or None where the OS cannot say."""

    return os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else None


def forks_here() -> bool:
    """Whether report-compas renders its violent table in a child here."""

    placeable = hasattr(os, "sched_setaffinity") and len(os.sched_getaffinity(0)) >= 2
    return hasattr(os, "fork") and placeable and threading.active_count() == 1


def stdout_of(argv: list[str]) -> str:
    """Stdout of a successful run, without capsys (which hypothesis cannot share)."""

    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        assert main(argv) == 0
    return buffer.getvalue()


def test_evaluate_perfect_toy(tmp_path, capsys):
    path = write_csv(tmp_path)
    code, out, err = run(capsys, ["evaluate", "--input", path, "--format", "json"])
    assert code == 0
    assert err == ""
    payload = json.loads(out)
    assert payload["auc"]["value"] == 1.0
    assert payload["ppv_k"]["value"] == 1.0
    assert payload["n"] == 4
    assert payload["load_summary"]["rows_kept"] == 4


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_tie_range_contains_the_printed_auc(tmp_path_factory, data):
    # Coarse scores put the base-rate cut inside a tie group often; whatever
    # the id tie-break decides there, the envelope over the group's orderings
    # must hold the half-credit AUC, as printed.
    n = data.draw(st.integers(2, 14))
    scores = data.draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    labels = [1, 0] + data.draw(st.lists(st.integers(0, 1), min_size=n - 2, max_size=n - 2))
    ids = data.draw(st.permutations(range(n)))
    rows = [f"id{i},{score},5,{label}" for i, score, label in zip(ids, scores, labels)]
    path = tmp_path_factory.mktemp("tied") / "scores.csv"
    path.write_text("person_id,raw_score,decile,outcome\n" + "\n".join(rows) + "\n", "utf-8")
    out = stdout_of(["evaluate", "--input", str(path)]).splitlines()
    auc = next(float(line.split()[1]) for line in out if line.startswith("auc "))
    span = next(line for line in out if line.startswith("feasible auc over tie orderings ["))
    low, high = (float(value) for value in span.split("[")[1].rstrip("]").split(", "))
    assert low <= auc <= high


def test_evaluate_table_format(tmp_path, capsys):
    path = write_csv(tmp_path)
    code, out, _ = run(capsys, ["evaluate", "--input", path])
    assert code == 0
    assert out.startswith("== general (")
    assert "auc                  1\n" in out
    assert "decile  total  positives  rate" in out


def test_evaluate_custom_columns(tmp_path, capsys):
    path = write_csv(
        tmp_path,
        """
        pid;s;d;y
        a;2.0;9;1
        b;1.0;2;0
        """,
    )
    code, out, _ = run(
        capsys,
        [
            "evaluate",
            "--input",
            path,
            "--id-col",
            "pid",
            "--score-col",
            "s",
            "--decile-col",
            "d",
            "--outcome-col",
            "y",
            "--delimiter",
            ";",
            "--format",
            "json",
        ],
    )
    assert code == 0
    assert json.loads(out)["auc"]["value"] == 1.0


def test_evaluate_missing_file(capsys):
    code, out, err = run(capsys, ["evaluate", "--input", "/no/such/file.csv"])
    assert code == 1
    assert out == ""
    assert "error:" in err


@pytest.mark.parametrize("case", ["input-directory", "input-not-utf8", "output-directory"])
def test_evaluate_unreadable_files(tmp_path, capsys, case):
    # Unreadable files are data errors: exit 1 with a message, no traceback.
    path = write_csv(tmp_path)
    argv = ["evaluate", "--input", path]
    if case == "input-directory":
        argv[2] = str(tmp_path)
    elif case == "input-not-utf8":
        Path(path).write_bytes(b"person_id,raw_score,decile,outcome\n\xff,1.0,5,1\n")
    else:
        argv += ["--output", str(tmp_path)]
    code, out, err = run(capsys, argv)
    assert code == 1
    assert out == ""
    assert "error:" in err


@pytest.mark.parametrize(
    "content",
    [
        b"person_id,raw_score,decile,outcome\na,1.0,5,1\n\xff,2.0,6,0\n",
        b"person_id,raw_score,decile,outcome\na,x,5,1\n",
        b"person_id,score,decile,outcome\na,1.0,5,1\n",
        b"person_id,raw_score,decile,outcome\na,1.0,5,1\nb,2.0,6,1\n",
    ],
    ids=["not-utf8", "bad-score", "missing-column", "all-positive"],
)
def test_load_errors_name_the_file(tmp_path, capsys, content):
    # report-compas reads two tables; the message says which one is bad,
    # whether loading, ranking or reporting refused it.
    bad = tmp_path / "violent.csv"
    bad.write_bytes(content)
    code, out, err = run(capsys, ["report-compas", "--violent-input", str(bad)])
    assert code == 1
    assert out == ""
    assert f"error: {bad}: " in err
    assert_no_child()


def test_nul_byte_exits_one_naming_file_and_row(tmp_path, capsys):
    # Python 3.10's csv module refuses the line ("line contains NUL"); 3.11
    # reads the cell and float() refuses it. Either way it is row 2's error.
    path = tmp_path / "scores.csv"
    path.write_bytes(b"person_id,raw_score,decile,outcome\na,1\x00,5,1\nb,2.0,6,0\n")
    code, out, err = run(capsys, ["evaluate", "--input", str(path)])
    assert (code, out) == (1, "")
    assert err.startswith(f"error: {path}: row 2: ")


def test_unreadable_row_exits_one_naming_file_and_row(tmp_path, capsys):
    # A cell over csv.field_size_limit() is a data error, not a traceback.
    limit = csv.field_size_limit()
    long_score = "1" * (limit + 1)
    path = write_csv(tmp_path, f"person_id,raw_score,decile,outcome\na,{long_score},5,1\n")
    code, out, err = run(capsys, ["evaluate", "--input", path])
    assert (code, out) == (1, "")
    assert err == f"error: {path}: row 2: field larger than field limit ({limit})\n"


def test_empty_table_names_its_file_once(tmp_path, capsys):
    # The CLI's prefix names the file; the loader's message does not repeat it.
    path = write_csv(
        tmp_path,
        """
        person_id,raw_score,decile,outcome
        a,,5,1
        """,
    )
    code, out, err = run(capsys, ["evaluate", "--input", path])
    assert code == 1
    assert out == ""
    assert err == f"error: {path}: no usable rows\n"


def test_evaluate_malformed_csv(tmp_path, capsys):
    path = write_csv(
        tmp_path,
        """
        person_id,raw_score,decile,outcome
        a,notanumber,5,1
        """,
    )
    code, _, err = run(capsys, ["evaluate", "--input", path])
    assert code == 1
    assert "row 2" in err


def test_evaluate_writes_output_file(tmp_path, capsys):
    path = write_csv(tmp_path)
    out_file = tmp_path / "report.txt"
    code, out, _ = run(capsys, ["evaluate", "--input", path, "--output", str(out_file)])
    assert code == 0
    assert out == ""
    code, stdout, _ = run(capsys, ["evaluate", "--input", path])
    assert out_file.read_text(encoding="utf-8") == stdout


def test_usage_error_exits_one(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["evaluate", "--no-such-flag"])
    assert excinfo.value.code == 1


def test_delimiter_must_be_one_character(tmp_path, capsys):
    path = write_csv(tmp_path)
    with pytest.raises(SystemExit) as excinfo:
        main(["evaluate", "--input", path, "--delimiter", ";;"])
    assert excinfo.value.code == 1
    assert "--delimiter: must be one character" in capsys.readouterr().err


def test_missing_subcommand_exits_one(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main([])
    assert excinfo.value.code == 1


@pytest.mark.parametrize("program", ["aucppv", "verify"])
@pytest.mark.parametrize(
    "args", [["verify", "--limit", "3"], ["envelope", "--k1", "1", "--k2", "4", "--format", "tsv"]]
)
def test_console_script_reads_sys_argv(capsys, monkeypatch, program, args):
    # The entry point calls main() with no argv: the subcommand and its
    # flags come from sys.argv[1:], whatever the program itself is called.
    monkeypatch.setattr(sys, "argv", [program, *args])
    assert run(capsys, None) == (0, stdout_of(args), "")


def count_parsers(monkeypatch) -> list[str]:
    """The prog of every argparse parser built from now on, in order."""

    built = []
    init = aucppv.cli._Parser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(aucppv.cli._Parser, "__init__", counting_init)
    return built


def command_calls(tmp_path) -> dict[str, list[str]]:
    path = write_csv(tmp_path)
    return {
        "evaluate": ["evaluate", "--input", path, "--format", "tsv"],
        "envelope": ["envelope", "--k1", "1", "--k2", "4"],
        "verify": ["verify", "--limit", "3"],
        "report-compas": ["report-compas", "--general-input", path, "--violent-input", path],
    }


@pytest.mark.parametrize("name", list(aucppv.cli._COMMANDS))
def test_a_command_named_first_builds_one_parser(tmp_path, capsys, monkeypatch, name):
    built = count_parsers(monkeypatch)
    assert main(command_calls(tmp_path)[name]) == 0
    assert built == [f"aucppv {name}"]


@pytest.mark.parametrize(
    "argv",
    [
        ["--help"], ["-h", "envelope"], ["bogus"], [],
        ["envelope", "--k1", "1", "--k2", "4", "extra"], ["verify", "--limit", "3", "--bogus"],
    ],
)
def test_help_and_usage_errors_build_the_full_parser(capsys, monkeypatch, argv):
    built = count_parsers(monkeypatch)
    with pytest.raises(SystemExit):
        main(argv)
    full = ["aucppv", *(f"aucppv {name}" for name in aucppv.cli._COMMANDS)]
    # A named command with arguments left over tries its own parser first.
    own = [f"aucppv {argv[0]}"] if argv and argv[0] in aucppv.cli._COMMANDS else []
    assert built == own + full


@pytest.mark.parametrize("name", list(aucppv.cli._COMMANDS))
def test_a_command_named_first_reads_its_flags_as_the_full_parser(tmp_path, monkeypatch, name):
    # Every flag, default and handler in the namespace the handler gets is
    # what the full parser would have set. The full parser also stores the
    # command, which its usage error names and no handler reads.
    seen = []
    help_line, _, add_flags = aucppv.cli._COMMANDS[name]
    monkeypatch.setitem(aucppv.cli._COMMANDS, name, (help_line, seen.append, add_flags))
    argv = command_calls(tmp_path)[name]
    main(argv)
    full = vars(aucppv.cli._build_parser().parse_args(argv))
    assert full.pop("command") == name
    assert [vars(args) for args in seen] == [full]


def test_envelope_symmetric_table(capsys):
    code, out, _ = run(capsys, ["envelope", "--k1", "2", "--k2", "2"])
    assert code == 0
    assert out == (
        "# ratio 2:2\n"
        "ppv  auc_min  auc_max\n"
        "0  0  0\n"
        "0.5  0.25  0.75\n"
        "1  1  1\n"
    )


def test_envelope_headline_row(capsys):
    code, out, _ = run(capsys, ["envelope", "--k1", "1", "--k2", "4"])
    assert code == 0
    lines = out.splitlines()
    assert lines[2] == "0  0  0.75"
    assert lines[-1] == "1  1  1"


def test_envelope_swapped_ratio_notes_it(capsys):
    code, out, _ = run(capsys, ["envelope", "--k1", "4", "--k2", "3"])
    assert code == 0
    assert out.splitlines()[0] == "# ratio 3:4 (swapped to the smaller class)"


def test_envelope_ppv_given_auc_grid(capsys):
    code, out, _ = run(
        capsys,
        ["envelope", "--k1", "3", "--k2", "4", "--mode", "ppv-given-auc", "--step", "0.25"],
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[1] == "auc  ppv_min  ppv_max"
    assert lines[2] == "0  0  0"
    assert lines[4] == "0.5  0  0.6666666667"
    assert lines[-1] == "1  1  1"


def test_envelope_json(capsys):
    code, out, _ = run(
        capsys, ["envelope", "--k1", "1", "--k2", "4", "--format", "json"]
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["mode"] == "auc-given-ppv"
    assert payload["rows"][0] == {"ppv": 0.0, "auc_min": 0.0, "auc_max": 0.75}


@pytest.mark.parametrize("k1, k2", [(4, 2), (2, 4)])
def test_envelope_json_names_the_ratio_of_its_rows(capsys, k1, k2):
    # The rows are tabulated for the ratio with the smaller class first; the
    # JSON names that ratio and whether it was swapped, as the table note does.
    argv = ["envelope", "--k1", str(k1), "--k2", str(k2)]
    note = run(capsys, argv)[1].splitlines()[0]
    payload = json.loads(run(capsys, [*argv, "--format", "json"])[1])
    swapped = " (swapped to the smaller class)" if payload["swapped"] else ""
    assert note == f"# ratio {payload['k1']}:{payload['k2']}{swapped}"
    assert (payload["k1"], payload["k2"], payload["swapped"]) == (2, 4, k1 > k2)
    # At 2:4 one hit in two gives the band [0.375, 0.875].
    assert {"ppv": 0.5, "auc_min": 0.375, "auc_max": 0.875} in payload["rows"]


def test_envelope_tsv(capsys):
    code, out, _ = run(capsys, ["envelope", "--k1", "2", "--k2", "2", "--format", "tsv"])
    assert code == 0
    assert "0.5\t0.25\t0.75" in out


@pytest.mark.parametrize(
    "argv",
    [
        ["envelope", "--k1", "0", "--k2", "3"],
        ["envelope", "--k1", "3", "--k2", "-1"],
        ["envelope", "--k1", "2", "--k2", "2", "--mode", "ppv-given-auc", "--step", "0.3"],
        ["envelope", "--k1", "2", "--k2", "2", "--mode", "ppv-given-auc", "--step", "0"],
        ["envelope", "--k1", "2", "--k2", "2", "--mode", "ppv-given-auc", "--step", "-0.5"],
        # Near 1/2 but not the float 1/2: no slack rounds it to a grid.
        ["envelope", "--k1", "2", "--k2", "2", "--mode", "ppv-given-auc", "--step", "0.50000000004"],
    ],
)
def test_envelope_rejects_bad_flags(capsys, argv):
    code, out, err = run(capsys, argv)
    assert code == 1
    assert out == ""
    assert "error:" in err


@pytest.mark.parametrize("k1, k2", [("0", "3"), ("3", "-1"), ("0", "0")])
def test_envelope_class_size_below_one_prints_class_ratios_text(capsys, k1, k2):
    # ClassRatio owns the class-size rule; the CLI prints its text as a usage error.
    assert run(capsys, ["envelope", "--k1", k1, "--k2", k2]) == (
        1, "", "error: class sizes must be at least 1\n"
    )


@pytest.mark.parametrize("step, rows", [("0.001", 1001), ("0.01", 101), ("0.05", 21), ("0.25", 5)])
def test_envelope_accepts_exact_unit_fractions(capsys, step, rows):
    code, out, _ = run(
        capsys, ["envelope", "--k1", "2", "--k2", "3", "--mode", "ppv-given-auc", "--step", step]
    )
    assert code == 0
    assert len(out.splitlines()) == rows + 2


@pytest.mark.parametrize(
    "argv",
    [
        ["envelope", "--k1", "2", "--k2", "2", "--mode", "ppv-given-auc", "--step", "1e-9"],
        ["envelope", "--k1", "100000000", "--k2", "100000000"],
    ],
)
def test_envelope_refuses_oversized_tables_up_front(capsys, monkeypatch, argv):
    def build_nothing(*args):
        raise AssertionError("a row was built")

    # The handler imports both when it runs, so the patch reaches it.
    for name in ("envelope_curve", "_hit_bounds"):
        monkeypatch.setattr(aucppv.envelopes, name, build_nothing)
    code, out, err = run(capsys, argv)
    assert code == 1
    assert out == ""
    assert "exceeds the limit" in err


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 25), st.integers(1, 25), st.integers(1, 40))
def test_envelope_grid_equals_the_public_inverses(small, large, steps):
    # The grid solves for the hit bounds in integers; each row must print
    # what the public inverses give at the exact grid AUC, in both class orders.
    for k1, k2 in ((small, large), (large, small)):
        ratio = ClassRatio(k1, k2)
        argv = ["envelope", "--k1", str(k1), "--k2", str(k2), "--mode", "ppv-given-auc"]
        out = stdout_of(argv + ["--step", repr(1 / steps)]).splitlines()
        assert len(out) == steps + 3
        for index, row in enumerate(out[2:]):
            auc = Fraction(index, steps)
            assert row.split("  ") == [
                format_number(index / steps),
                format_number(ppvk_min_given_auc(auc, ratio).value),
                format_number(ppvk_max_given_auc(auc, ratio).value),
            ]


def test_verify_small_limit(capsys):
    code, out, _ = run(capsys, ["verify", "--limit", "2"])
    assert code == 0
    assert out == (
        "ratio 1:1  arrangements 2  hit levels 2  ok\n"
        "certified 1 ratios, 2 arrangements, all exact\n"
    )


def test_verify_limit_ten(capsys):
    code, out, _ = run(capsys, ["verify", "--limit", "10"])
    assert code == 0
    lines = out.splitlines()
    # Ratios with k1+k2 from 2 through 10: 1+2+...+9 of them.
    assert len(lines) == 45 + 1
    assert all(line.endswith("ok") for line in lines[:-1])
    assert lines[-1].endswith("all exact")


def test_verify_limit_sixty(capsys):
    code, out, _ = run(capsys, ["verify", "--limit", "60"])
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 1770 + 1
    assert all(line.endswith("  ok") for line in lines[:-1])
    assert lines[-1] == f"certified 1770 ratios, {sum(2**n - 2 for n in range(2, 61))} arrangements, all exact"


def test_verify_limit_too_large(capsys):
    # 210 is the first limit past the work bound.
    for limit in ("1000000000", "210"):
        code, out, err = run(capsys, ["verify", "--limit", limit])
        assert code == 1
        assert out == ""
        assert "exceeds the work bound" in err


def test_verify_help_names_the_largest_limit_within_the_work_bound(capsys):
    # The help text's limit is a literal in cli.py on purpose: reading it
    # from oracle would make `aucppv --help` import oracle, envelopes and
    # ppv, about 2.9 ms of imports without bytecode on a 2-core x86-64 host.
    # This pins it instead to the largest limit whose table fits
    # oracle.MAX_TABLE_ENTRIES.
    with pytest.raises(SystemExit) as exited:
        main(["verify", "--help"])
    assert exited.value.code == 0
    help_text = " ".join(capsys.readouterr().out.split())
    limit = int(re.search(r"refused past (\d+)", help_text).group(1))
    certify_up_to(limit)  # builds its table, certifies nothing yet
    with pytest.raises(InstanceTooLarge):
        certify_up_to(limit + 1)


def test_verify_limit_too_small(capsys):
    code, _, err = run(capsys, ["verify", "--limit", "1"])
    assert code == 1
    assert "at least 2" in err


def test_report_compas_same_table_for_both_scales(tmp_path, capsys):
    path = write_csv(tmp_path)
    code, out, _ = run(
        capsys,
        ["report-compas", "--general-input", path, "--violent-input", path],
    )
    assert code == 0
    sections = out.split("== ")
    assert len(sections) == 3
    general_body = sections[1].split("\n", 1)[1]
    violent_body = sections[2].split("\n", 1)[1]
    # Same data as both scales: everything below the label line matches.
    assert general_body.strip("\n") == violent_body.strip("\n")


def test_report_compas_json_array(tmp_path, capsys):
    path = write_csv(tmp_path)
    code, out, _ = run(
        capsys,
        [
            "report-compas",
            "--general-input",
            path,
            "--violent-input",
            path,
            "--format",
            "json",
        ],
    )
    assert code == 0
    payload = json.loads(out)
    assert isinstance(payload, list)
    assert len(payload) == 2
    assert payload[0]["label"] == "general recidivism scale"
    assert payload[1]["label"] == "violent recidivism scale"
    assert payload[0]["auc"] == payload[1]["auc"]
    # A user-supplied table prints its path as given; only the bundled
    # fixtures print as aucppv/data/<file>.csv.
    assert [doc["load_summary"]["path"] for doc in payload] == [path, path]


def test_report_compas_bundled_fixtures(capsys):
    code, out, _ = run(capsys, ["report-compas"])
    assert code == 0
    assert "== general recidivism scale ==" in out
    assert "== violent recidivism scale ==" in out
    assert "auc                  0.6909022562" in out
    assert "auc                  0.6760433512" in out
    assert "auc - ppv_k gap      0.1606347761" in out
    assert "auc - ppv_k gap      0.4732783743" in out


def test_report_compas_is_byte_deterministic(capsys):
    first = run(capsys, ["report-compas", "--format", "tsv"])
    second = run(capsys, ["report-compas", "--format", "tsv"])
    assert first == second


@pytest.mark.parametrize("fmt", ["table", "json", "tsv"])
def test_report_compas_without_fork_prints_the_golden(capsys, monkeypatch, fmt):
    # Where os.fork is missing the two scales render one after the other.
    monkeypatch.delattr(os, "fork")
    assert run(capsys, ["report-compas", "--format", fmt]) == (0, golden_compas(fmt), "")
    assert_no_child()


def test_report_compas_does_not_fork_beside_another_thread(capsys, monkeypatch):
    # A fork copies only the calling thread: with a second thread alive the
    # scales render one after the other, so os.fork must not be reached.
    def no_fork():
        raise AssertionError("forked beside another thread")

    monkeypatch.setattr(os, "fork", no_fork)
    release = threading.Event()
    other = threading.Thread(target=release.wait)
    other.start()
    try:
        code, out, err = run(capsys, ["report-compas", "--format", "json"])
    finally:
        release.set()
        other.join(timeout=10)
    assert not other.is_alive()
    assert (code, out, err) == (0, golden_compas("json"), "")
    assert_no_child()


def failed_fork():
    raise OSError(errno.EAGAIN, "Resource temporarily unavailable")


def test_report_compas_fork_failure_closes_its_pipe(capsys, monkeypatch):
    # Out of processes or memory, os.fork raises: both pipe ends are closed,
    # no child is left and the scales render one after the other.
    if threading.active_count() > 1:
        pytest.skip("report-compas does not fork beside another thread")
    opened, closed = [], []
    pipe, close = os.pipe, os.close

    def recorded_pipe():
        ends = pipe()
        opened.extend(ends)
        return ends

    def recorded_close(fd):
        closed.append(fd)
        close(fd)

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(os, "sched_setaffinity", lambda pid, cpus: None, raising=False)
    monkeypatch.setattr(os, "pipe", recorded_pipe)
    monkeypatch.setattr(os, "close", recorded_close)
    monkeypatch.setattr(os, "fork", failed_fork, raising=False)
    assert run(capsys, ["report-compas", "--format", "json"]) == (0, golden_compas("json"), "")
    assert len(opened) == 2 and set(opened) <= set(closed)
    assert_no_child()


def test_report_compas_unstatable_violent_input_runs_sequentially(tmp_path, capsys, monkeypatch):
    # An input that cannot be checked for a regular file may not be
    # rereadable, so the run does not fork and prints the sequential bytes.
    violent = write_csv(tmp_path, name="violent.csv")
    argv = ["report-compas", "--violent-input", violent, "--format", "tsv"]
    monkeypatch.delattr(os, "fork", raising=False)
    sequential = run(capsys, argv)
    assert sequential[0] == 0
    is_file = Path.is_file

    def unstatable(self):
        if str(self) == violent:
            raise PermissionError(errno.EACCES, "Permission denied", violent)
        return is_file(self)

    def no_fork():
        raise AssertionError("forked on an input it could not check")

    monkeypatch.setattr(Path, "is_file", unstatable)
    monkeypatch.setattr(os, "fork", no_fork, raising=False)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(os, "sched_setaffinity", lambda pid, cpus: None, raising=False)
    assert run(capsys, argv) == sequential
    assert_no_child()


def test_report_compas_without_sched_setaffinity_runs_sequentially(capsys, monkeypatch):
    # Where the child cannot be placed on CPUs of its own (macOS has no
    # os.sched_setaffinity), the kernel may start it on the parent's CPU,
    # so the two scales render one after the other and os.fork is not reached.
    def no_fork():
        raise AssertionError("forked without a way to place the child")

    monkeypatch.delattr(os, "sched_setaffinity", raising=False)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(os, "fork", no_fork, raising=False)
    assert run(capsys, ["report-compas"]) == (0, golden_compas("table"), "")
    assert_no_child()


def test_render_pair_splits_the_cpus_between_parent_and_child():
    # The parent renders on the first half of its CPUs and the child on the
    # second half, so the two never queue for one CPU; afterwards the
    # parent may run where it ran before.
    if not forks_here():
        pytest.skip("report-compas runs sequentially here")
    before = sorted(os.sched_getaffinity(0))

    def render(_):
        return " ".join(str(cpu) for cpu in sorted(os.sched_getaffinity(0)))

    sections = aucppv.cli._render_pair(render, "general", "violent", True)
    parent, child = ([int(cpu) for cpu in section.split()] for section in sections)
    assert parent == before[: len(before) // 2]
    assert child == before[len(before) // 2 :]
    assert sorted(os.sched_getaffinity(0)) == before
    assert_no_child()


def test_report_compas_refused_placement_prints_the_golden(capsys, monkeypatch):
    # Where the OS refuses to place a render (a CPU taken offline, say),
    # that render runs where it is: the bytes are the sequential run's.
    if not hasattr(os, "fork") or threading.active_count() > 1:
        pytest.skip("report-compas does not fork here")
    placements = []

    def refused(pid, cpus):
        placements.append(sorted(cpus))
        raise OSError(errno.EINVAL, "Invalid argument")

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(os, "sched_setaffinity", refused, raising=False)
    assert run(capsys, ["report-compas", "--format", "tsv"]) == (0, golden_compas("tsv"), "")
    # The parent's own calls, its half and then its whole mask back; the
    # child's call happened in the child.
    assert placements == [[0], [0, 1]]
    assert_no_child()


def test_report_compas_renders_the_violent_table_in_a_child(capsys, monkeypatch):
    # Where forking is safe the parent renders only the general table and
    # takes the violent one from the child.
    if not forks_here():
        pytest.skip("report-compas runs sequentially here")
    rendered = []
    evaluate_one = aucppv.cli._evaluate_one

    def counted(path, scale, *args, **kwargs):
        rendered.append(scale.value)
        return evaluate_one(path, scale, *args, **kwargs)

    monkeypatch.setattr(aucppv.cli, "_evaluate_one", counted)
    assert run(capsys, ["report-compas", "--format", "tsv"]) == (0, golden_compas("tsv"), "")
    assert rendered == ["general"]
    assert_no_child()


def test_report_compas_bad_general_input_names_it(tmp_path, capsys):
    # The parent's own table fails while the child renders the other: the
    # child is killed and reaped, the error is the sequential run's and
    # the parent may run on all of its CPUs again.
    bad = tmp_path / "general.csv"
    bad.write_bytes(b"person_id,raw_score,decile,outcome\na,x,5,1\n")
    before = cpu_mask()
    code, out, err = run(capsys, ["report-compas", "--general-input", str(bad)])
    assert (code, out) == (1, "")
    assert err.startswith(f"error: {bad}: ")
    assert cpu_mask() == before
    assert_no_child()


def test_report_compas_interrupted_reaps_its_child(capsys, monkeypatch):
    evaluate_one = aucppv.cli._evaluate_one

    def interrupted(path, scale, *args, **kwargs):
        if scale.value == "general":
            raise KeyboardInterrupt
        return evaluate_one(path, scale, *args, **kwargs)

    monkeypatch.setattr(aucppv.cli, "_evaluate_one", interrupted)
    before = cpu_mask()
    with pytest.raises(KeyboardInterrupt):
        main(["report-compas"])
    assert capsys.readouterr().out == ""
    assert cpu_mask() == before
    assert_no_child()


def test_report_compas_writes_output_file(tmp_path, capsys):
    out_file = tmp_path / "report.json"
    code, out, err = run(capsys, ["report-compas", "--format", "json", "--output", str(out_file)])
    assert (code, out, err) == (0, "", "")
    assert out_file.read_bytes() == golden_compas("json").encode("utf-8")
    assert_no_child()


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_report_compas_bad_violent_fifo_errs_as_the_sequential_run(tmp_path, capsys, monkeypatch):
    # A FIFO can be read only once, so a child that drained it and failed
    # could not hand the table back: such an input runs sequentially. A
    # writer process, not a thread, feeds the FIFO, so the run could fork.
    fifo = tmp_path / "violent.csv"
    os.mkfifo(fifo)
    table = "person_id,raw_score,decile,outcome\na,x,5,1\n"
    writer_code = "import sys; open(sys.argv[1], 'w').write(sys.argv[2])"

    def timed_out(signum, frame):
        raise AssertionError("report-compas waited on a drained FIFO")

    def report_from_fifo():
        writer = subprocess.Popen([sys.executable, "-c", writer_code, str(fifo), table])
        try:
            return run(capsys, ["report-compas", "--violent-input", str(fifo)])
        finally:
            writer.kill()
            writer.wait()

    previous = signal.signal(signal.SIGALRM, timed_out)
    signal.alarm(30)
    try:
        result = report_from_fifo()
        assert_no_child()
        monkeypatch.delattr(os, "fork")
        sequential = report_from_fifo()
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert result == sequential
    code, out, err = result
    assert (code, out) == (1, "")
    assert err.startswith(f"error: {fifo}: ") and "row 2" in err
    assert_no_child()


def test_internal_consistency_failure_exits_two(tmp_path, capsys, monkeypatch):
    # A lower bound above any attainable AUC must trip the self-check.
    monkeypatch.setattr(
        aucppv.reporting, "_envelope_pairs", lambda hits, k1, k2: (2 * k1 * k2, k1 * k2)
    )
    path = write_csv(tmp_path)
    code, out, err = run(capsys, ["evaluate", "--input", path])
    assert code == 2
    assert out == ""
    assert "internal consistency failure: sandwich violated: AUC" in err
