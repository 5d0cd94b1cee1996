import json
import subprocess
import sys
import time

import pytest

import sturm.render
import sturm.suspension
from conftest import PERM15, PERM7, WINDOW_ORDER, WINDOW_Z
from sturm import SturmPermutation, format_permutation, is_sturm, parse_permutation, suspend
from sturm.cli import MAX_SCALE, MAX_TIMES, main

PERM7_TEXT = "1 4 5 6 3 2 7"


def run(capsys, *argv):
    status = main(list(argv))
    captured = capsys.readouterr()
    return status, captured.out, captured.err


class TestValidate:
    def test_sturm_input(self, capsys):
        status, out, _ = run(capsys, "validate", PERM7_TEXT)
        assert status == 0
        assert "sturm: true" in out
        assert "morse-vector: 0 1 2 1 0 1 0" in out

    def test_non_meander(self, capsys):
        status, out, _ = run(capsys, "validate", "1 3 2 4 5")
        assert status == 1
        assert "meander: false" in out

    def test_parse_error(self, capsys):
        status, _, err = run(capsys, "validate", "1 2")
        assert status == 2
        assert err.startswith("error: parse:")

    def test_stdin(self, capsys, monkeypatch):
        import io

        monkeypatch.setattr(sys, "stdin", io.StringIO(PERM7_TEXT))
        status, out, _ = run(capsys, "validate")
        assert status == 0 and "sturm: true" in out

    def test_stdin_trailing_newline(self, capsys, monkeypatch):
        import io

        monkeypatch.setattr(sys, "stdin", io.StringIO(PERM7_TEXT + "\n\n"))
        status, out, _ = run(capsys, "validate")
        assert status == 0 and "sturm: true" in out

    def test_stdin_multiple_lines_rejected(self, capsys, monkeypatch):
        import io

        monkeypatch.setattr(sys, "stdin", io.StringIO("1 2 3\n4 5 6 7 8\n"))
        status, out, err = run(capsys, "validate")
        assert status == 2 and out == ""
        assert err.startswith("error: parse:") and err.count("\n") == 1

    def test_zero_based_input(self, capsys):
        status, out, _ = run(capsys, "validate", "0 3 4 5 2 1 6", "--zero-based-input")
        assert status == 0 and "sturm: true" in out


class TestAnalyze:
    def test_report_fields(self, capsys):
        status, out, _ = run(capsys, "analyze", PERM7_TEXT)
        assert status == 0
        record = json.loads(out)
        assert record["index_base"] == 1
        assert record["n"] == 7
        assert record["sigma"] == [1, 4, 5, 6, 3, 2, 7]
        assert record["sigma_inverse"] == [1, 6, 5, 2, 3, 4, 7]
        assert record["morse"] == [0, 1, 2, 1, 0, 1, 0]
        assert len(record["z_matrix"]) == 7
        assert [3, 5] in record["connections"]
        bases = [entry["O"] for entry in record["minimax"]]
        assert bases == [2, 3, 4, 6]

    def test_deterministic(self, capsys):
        _, first, _ = run(capsys, "analyze", PERM7_TEXT)
        _, second, _ = run(capsys, "analyze", PERM7_TEXT)
        assert first == second

    def test_non_sturm_fails(self, capsys):
        status, _, err = run(capsys, "analyze", "1 3 2 4 5")
        assert status == 1
        assert err.startswith("error: not-sturm:")


class TestMinimax:
    def test_report(self, capsys):
        status, out, _ = run(capsys, "minimax", "--eq", "3", PERM7_TEXT)
        assert status == 0
        record = json.loads(out)
        assert record["O"] == 3 and record["n"] == 2
        assert record["target_sets"]["1+"] == [4, 5, 6]
        assert record["neighbors"] == {
            "w0_minus": 2,
            "w0_plus": 4,
            "w1_minus": 6,
            "w1_plus": 2,
        }
        assert record["passed"] is True
        assert record["verdicts"]["w1_minus"]["closest"] == 6

    def test_stable_equilibrium(self, capsys):
        status, _, err = run(capsys, "minimax", "--eq", "1", PERM7_TEXT)
        assert status == 1
        assert "stable" in err


class TestSuspend:
    def test_zero_based_display(self, capsys):
        status, out, _ = run(capsys, "suspend", PERM7_TEXT, "--zero-based")
        assert status == 0 and out == "0 7 2 3 6 5 4 1 8\n"

    def test_one_based_default(self, capsys):
        _, out, _ = run(capsys, "suspend", PERM7_TEXT)
        assert out == "1 8 3 4 7 6 5 2 9\n"

    def test_times(self, capsys):
        _, out, _ = run(capsys, "suspend", "1", "--times", "2")
        assert out == "1 4 3 2 5\n"

    @pytest.mark.parametrize("times", ["0", "1", "3"])
    def test_non_sturm_input_rejected_for_every_times(self, capsys, times):
        status, out, err = run(capsys, "suspend", "1 3 2", "--times", times)
        assert status == 1 and out == ""
        assert err == "error: not-sturm: not a Sturm permutation: 1 3 2\n"

    def test_times_zero_is_identity(self, capsys):
        status, out, _ = run(capsys, "suspend", PERM7_TEXT, "--times", "0")
        assert status == 0 and out == PERM7_TEXT + "\n"

    @pytest.mark.parametrize("perm", [PERM7, PERM15], ids=["n7", "n15"])
    def test_times_matches_iterated_suspend(self, capsys, perm):
        p = SturmPermutation(perm)
        for times in range(25):
            status, out, _ = run(capsys, "suspend", " ".join(map(str, perm)), "--times", str(times))
            assert status == 0 and out == format_permutation(p) + "\n", times
            p = suspend(p).suspended

    def test_times_output_is_sturm(self, capsys):
        _, out, _ = run(capsys, "suspend", PERM7_TEXT, "--times", "50")
        q = parse_permutation(out)
        assert q.n == 107 and is_sturm(q)

    @pytest.mark.parametrize("times", ["1", "3"])
    def test_not_sturm_rejected(self, capsys, times):
        status, out, err = run(capsys, "suspend", "1 5 4 3 2 7 6", "--times", times)
        assert status == 1 and out == ""
        assert err == "error: not-sturm: not a Sturm permutation: 1 5 4 3 2 7 6\n"

    def test_many_times_is_fast(self, capsys):
        # The labels have a closed form, linear in n + T: about 0.02 s on a
        # 2-CPU Xeon, where suspending step by step took about 7 s at
        # T = 10000.
        start = time.perf_counter()
        status, out, _ = run(capsys, "suspend", PERM7_TEXT, "--times", "20000")
        assert time.perf_counter() - start < 3.0
        assert status == 0 and out.split()[:3] == ["1", "40006", "3"]

    def test_times_above_cap_rejected(self, capsys):
        for times in (str(MAX_TIMES + 1), "9" * 400):
            status, out, err = run(capsys, "suspend", PERM7_TEXT, "--times", times)
            assert status == 2 and out == ""
            assert err == f"error: parse: --times must be at most {MAX_TIMES}, got {times}\n"

    def test_times_cap_admitted_and_documented(self, capsys, monkeypatch):
        # At the cap the real suspension takes seconds and a few hundred
        # MB, so a stub stands in for it: only the gate is under test.
        seen = []
        monkeypatch.setattr(
            sturm.suspension, "_suspend_labels", lambda labels, t: seen.append(t) or labels
        )
        status, out, err = run(capsys, "suspend", PERM7_TEXT, "--times", str(MAX_TIMES))
        assert (status, out, err, seen) == (0, PERM7_TEXT + "\n", "", [MAX_TIMES])
        status, out, _ = run(capsys, "suspend", "--help")
        assert status == 0 and f"0..{MAX_TIMES}" in out

    def test_negative_times_rejected(self, capsys):
        status, out, err = run(capsys, "suspend", PERM7_TEXT, "--times", "-3")
        assert status == 2 and out == ""
        assert err.startswith("error: parse:") and err.count("\n") == 1


class TestWindow:
    def test_template_matrix(self, capsys):
        status, out, _ = run(
            capsys,
            "window",
            "--anchor-morse",
            "2",
            "--order",
            "12 11 4 3 2 5 10 9 6 7 8 1",
        )
        assert status == 0
        lines = out.strip().splitlines()
        assert lines[0] == "morse: 2 1 2 1 0 1 0 1 2 1 2 1"
        assert lines[1] == "z-matrix:"
        matrix = [[int(v) for v in line.split()] for line in lines[2:]]
        assert matrix == [list(row) for row in WINDOW_Z]

    def test_inconsistent_window(self, capsys):
        status, _, err = run(capsys, "window", "--anchor-morse", "0", "--order", "2 1")
        assert status == 1
        assert err.startswith("error: window-inconsistent:")

    def test_bad_order(self, capsys):
        status, _, err = run(capsys, "window", "--anchor-morse", "0", "--order", "1 3")
        assert status == 2
        assert err.startswith("error: parse:")

    @pytest.mark.parametrize(
        "order, line",
        [
            ("1 x", "error: parse: non-integer token 'x' (token 2)\n"),
            (",", "error: parse: empty window order\n"),
        ],
        ids=["non-integer", "no-tokens"],
    )
    def test_order_tokens(self, capsys, order, line):
        # The same token parser as the permutation argument, with its own
        # message for an empty order.
        assert run(capsys, "window", "--anchor-morse", "0", "--order", order) == (2, "", line)


class TestEnumerate:
    def test_stream(self, capsys):
        status, out, _ = run(capsys, "enumerate", "--n", "5")
        assert status == 0
        assert out == "1 2 3 4 5\n1 4 3 2 5\n"

    def test_count_only(self, capsys):
        _, out, _ = run(capsys, "enumerate", "--n", "7", "--count-only")
        assert out == "7\n"

    def test_bound_exceeded(self, capsys):
        status, _, err = run(capsys, "enumerate", "--n", "13")
        assert status == 1 and "bound" in err


class TestRender:
    def test_svg(self, capsys):
        status, out, _ = run(capsys, "render", PERM7_TEXT)
        assert status == 0
        assert out.count("<circle") == 7

    def test_dot(self, capsys):
        status, out, _ = run(capsys, "render", "--format", "dot", PERM7_TEXT)
        assert status == 0
        lines = out.splitlines()
        assert lines[0] == "digraph attractor {"
        assert '  3 [label="3 i=2"];' in lines
        assert "  3 -> 5;" in lines

    def test_deterministic(self, capsys):
        _, first, _ = run(capsys, "render", PERM7_TEXT)
        _, second, _ = run(capsys, "render", PERM7_TEXT)
        assert first == second

    def test_non_meander(self, capsys):
        status, _, err = run(capsys, "render", "1 3 2 4 5")
        assert status == 1
        assert err.startswith("error: not-meander:")

    @pytest.mark.parametrize("scale", ["0", "-5"])
    def test_non_positive_scale_rejected(self, capsys, scale):
        status, out, err = run(capsys, "render", "--scale", scale, PERM7_TEXT)
        assert status == 2 and out == ""
        assert err == f"error: parse: --scale must be positive, got {scale}\n"

    def test_scale_above_cap_rejected(self, capsys):
        for scale in (str(MAX_SCALE + 1), "9" * 400):
            status, out, err = run(capsys, "render", "--scale", scale, PERM7_TEXT)
            assert status == 2 and out == ""
            assert err == f"error: parse: --scale must be at most {MAX_SCALE}, got {scale}\n"

    def test_scale_cap_matches_renderer(self):
        assert MAX_SCALE == sturm.render.MAX_SCALE

    def test_scale_cap_renders_and_is_documented(self, capsys):
        status, out, _ = run(capsys, "render", "--scale", str(MAX_SCALE), PERM7_TEXT)
        assert status == 0 and out.startswith("<?xml")
        status, out, _ = run(capsys, "render", "--help")
        assert status == 0 and f"1..{MAX_SCALE}" in out


class TestHarnessCommand:
    def test_passes(self, capsys):
        status, out, _ = run(capsys, "harness", "--n-max", "5")
        assert status == 0
        assert "overall: pass" in out


def test_module_invocation():
    proc = subprocess.run(
        [sys.executable, "-m", "sturm", "validate", PERM7_TEXT],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "sturm: true" in proc.stdout


# Runs CLI commands in one fresh interpreter and prints, after the import
# and after each command, its exit status and which of numpy and networkx
# are loaded by then.
_LOADED_PROBE = """
import contextlib, io, json, sys
import sturm
from sturm.cli import main

def loaded():
    return [m for m in ("numpy", "networkx", "dataclasses", "inspect") if m in sys.modules]

seen = [[None, loaded()]]
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        seen.append([main(argv), loaded()])
print(json.dumps(seen))
"""


def test_heavy_imports_load_on_first_use():
    # The test process has numpy loaded already, so a fresh one is probed.
    perm15_text = format_permutation(SturmPermutation(PERM15))
    commands = [
        ["validate", PERM7_TEXT],
        ["suspend", PERM7_TEXT],
        ["enumerate", "--n", "7", "--count-only"],
        ["render", "--format", "svg", PERM7_TEXT],
        ["analyze", PERM7_TEXT],
        ["minimax", "--eq", "3", perm15_text],
        ["window", "--anchor-morse", "2", "--order", " ".join(map(str, WINDOW_ORDER))],
        ["render", "--format", "dot", perm15_text],
        ["harness", "--n-max", "5"],
    ]
    proc = subprocess.run(
        [sys.executable, "-c", _LOADED_PROBE, json.dumps(commands)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    # import sturm, then each command: exit 0 and none of the four loaded
    assert json.loads(proc.stdout) == [[None, []]] + [[0, []]] * len(commands)


# Runs one CLI command in a fresh interpreter and prints its exit status
# and the sturm submodules loaded by its end.
_MODULES_PROBE = """
import contextlib, io, json, sys
from sturm.cli import main

with contextlib.redirect_stdout(io.StringIO()):
    status = main(json.loads(sys.argv[1]))
print(json.dumps([status, sorted(m for m in sys.modules if m.startswith("sturm."))]))
"""

_BASE = {"cli", "errors", "meander", "perm"}
_ANALYSIS = {"attractor", "cli", "errors", "meander", "perm", "report", "zeros"}
_MODULE_BUDGET = [
    (["--help"], {"cli", "errors"}),
    (["validate", PERM7_TEXT], _BASE),
    (
        ["window", "--anchor-morse", "2", "--order", " ".join(map(str, WINDOW_ORDER))],
        _BASE | {"zeros"},
    ),
    (["suspend", PERM7_TEXT], _BASE | {"suspension"}),
    (["enumerate", "--n", "7", "--count-only"], _BASE | {"enumeration"}),
    (["render", "--format", "svg", PERM7_TEXT], _BASE | {"render"}),
    (["analyze", PERM7_TEXT], _ANALYSIS),
    (["minimax", "--eq", "3", PERM7_TEXT], _ANALYSIS),
    (["render", "--format", "dot", PERM7_TEXT], _ANALYSIS),
    (
        ["harness", "--n-max", "3"],
        _BASE | {"attractor", "enumeration", "harness", "suspension", "zeros"},
    ),
]


def test_each_command_loads_only_its_modules():
    # One fresh interpreter per command, all started before any is read.
    procs = [
        subprocess.Popen(
            [sys.executable, "-c", _MODULES_PROBE, json.dumps(argv)],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        for argv, _ in _MODULE_BUDGET
    ]
    for proc, (argv, expected) in zip(procs, _MODULE_BUDGET):
        out, err = proc.communicate(timeout=60)
        assert proc.returncode == 0, err
        assert json.loads(out) == [0, sorted(f"sturm.{m}" for m in expected)], argv


@pytest.mark.parametrize(
    "argv",
    [["suspend", "--times", "20000", PERM7_TEXT], ["enumerate", "--n", "15", "--bound", "15"]],
    ids=["suspend", "enumerate"],
)
def test_closed_stdout_exits_quietly(argv):
    # Both outputs are larger than a pipe buffer, so the command is still
    # writing when the reader goes away.
    with subprocess.Popen(
        [sys.executable, "-m", "sturm", *argv], stdout=subprocess.PIPE, stderr=subprocess.PIPE
    ) as proc:
        assert len(proc.stdout.read(40)) == 40
        proc.stdout.close()
        assert proc.wait(timeout=30) == 1
        assert proc.stderr.read() == b""


def test_round_trip_over_family(capsys):
    # parse(serialize(p)) is the identity on every enumerated permutation
    from sturm import enumerate_sturm, format_permutation, parse_permutation

    for p in enumerate_sturm(7):
        assert parse_permutation(format_permutation(p)) == p
