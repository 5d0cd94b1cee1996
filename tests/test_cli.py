import json
import subprocess
import sys

import pytest

from conftest import WINDOW_Z
from sturm.cli import main

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

    def test_times_zero_is_identity(self, capsys):
        status, out, _ = run(capsys, "suspend", PERM7_TEXT, "--times", "0")
        assert status == 0 and out == PERM7_TEXT + "\n"

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


def test_round_trip_over_family(capsys):
    # parse(serialize(p)) is the identity on every enumerated permutation
    from sturm import enumerate_sturm, format_permutation, parse_permutation

    for p in enumerate_sturm(7):
        assert parse_permutation(format_permutation(p)) == p
