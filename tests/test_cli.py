import hashlib
import json
import subprocess
import sys
import time

import pytest

import sturm.attractor
import sturm.render
import sturm.suspension
from conftest import PERM15, PERM7, WINDOW_ORDER, WINDOW_Z
from sturm import (
    SturmPermutation,
    format_permutation,
    identity,
    is_sturm,
    matrix_text,
    parse_permutation,
    suspend,
    z_matrix,
)
from sturm.cli import COMMANDS, MAX_SCALE, MAX_TIMES, MAX_WINDOW, main
from sturm.enumeration import DEFAULT_BOUND

PERM7_TEXT = "1 4 5 6 3 2 7"
# 400 nines as an error line shows them: 20 digits, then "..."
NINES_CUT = "9" * 20 + "..."


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

    @pytest.mark.parametrize(
        "text, line",
        [
            ("0 5 2", "label 5 out of range 0..2 (token 2)"),
            ("-1 1 2", "label -1 out of range 0..2 (token 1)"),
            ("0 1 1", "duplicate label 1, first at token 2 (token 3)"),
        ],
    )
    def test_zero_based_errors_quote_the_input(self, capsys, text, line):
        # labels as typed, in the range 0..n-1 of the input, not shifted up
        result = run(capsys, "validate", "--zero-based-input", text)
        assert result == (2, "", f"error: parse: {line}\n")


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

    @pytest.mark.parametrize(
        "perm, eq, line",
        [
            ("1 3 2 4 5", "9", "error: not-sturm: not a Sturm permutation: 1 3 2 4 5\n"),
            (PERM7_TEXT, "0", "error: label-range: equilibrium 0 out of range 1..7\n"),
            (PERM7_TEXT, "8", "error: label-range: equilibrium 8 out of range 1..7\n"),
            (PERM7_TEXT, "5", "error: stable-equilibrium: equilibrium 5 is stable\n"),
        ],
        ids=["not-sturm-first", "below-range", "above-range", "stable"],
    )
    def test_rejected_eq_builds_no_model(self, capsys, monkeypatch, perm, eq, line):
        monkeypatch.setattr(sturm.attractor, "build_model", lambda p: pytest.fail("model built"))
        assert run(capsys, "minimax", "--eq", eq, perm) == (1, "", line)


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
        # a value of more than 20 digits is cut (deliberate change: the
        # whole 400 digits were quoted)
        for times, shown in ((str(MAX_TIMES + 1), str(MAX_TIMES + 1)), ("9" * 400, NINES_CUT)):
            status, out, err = run(capsys, "suspend", PERM7_TEXT, "--times", times)
            assert status == 2 and out == ""
            assert err == f"error: parse: --times must be at most {MAX_TIMES}, got {shown}\n"

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
        assert err == "error: parse: axis order must be a bijection of 1..2: (1, 3)\n"

    def test_bad_order_is_cut_after_twenty_labels(self, capsys):
        # Labels 2..21 and 2..22 are no bijections; at most 20 are quoted.
        for last, tail in ((21, ""), (22, ", ...")):
            order = " ".join(map(str, range(2, last + 1)))
            shown = ", ".join(map(str, range(2, 22))) + tail
            line = f"error: parse: axis order must be a bijection of 1..{last - 1}: ({shown})\n"
            assert run(capsys, "window", "--anchor-morse", "0", "--order", order) == (2, "", line)

    def test_order_above_cap_rejected(self, capsys):
        # window_z costs O(L**2), 0.13 s at the 701-label cap on a 2-CPU
        # Xeon; raising the cap is a behaviour change of its own
        count = MAX_WINDOW + 1
        order = " ".join(map(str, range(1, count + 1)))
        line = f"error: parse: --order must list at most {MAX_WINDOW} labels, got {count}\n"
        assert run(capsys, "window", "--anchor-morse", "0", "--order", order) == (2, "", line)

    def test_order_cap_admitted_and_documented(self, capsys):
        # The real window at the cap: labels 1..701 of identity(701) in
        # identity order with anchor 0, whose matrix is the full z_matrix.
        order = " ".join(map(str, range(1, MAX_WINDOW + 1)))
        status, out, err = run(capsys, "window", "--anchor-morse", "0", "--order", order)
        assert (status, err) == (0, "")
        p = identity(MAX_WINDOW)
        expected = "morse: " + " ".join(map(str, p.morse)) + "\nz-matrix:\n"
        expected += matrix_text(z_matrix(p).values) + "\n"
        assert out == expected
        status, out, _ = run(capsys, "window", "--help")
        assert status == 0 and f"at most {MAX_WINDOW}" in out

    @pytest.mark.parametrize(
        "order, line",
        [
            ("1 x", "error: parse: non-integer token 'x' (token 2)\n"),
            ("1_0 2", "error: parse: non-integer token '1_0' (token 1)\n"),
            (",", "error: parse: empty window order\n"),
        ],
        ids=["non-integer", "underscore", "no-tokens"],
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

    def test_size_above_the_limit_prints_one_line(self):
        # At the recursion limit the backtrack engine's generator stack
        # overflowed into a traceback; the size limit is one error line.
        proc = subprocess.run(
            [sys.executable, "-m", "sturm", "enumerate", "--n", "1001", "--bound", "1001"],
            capture_output=True,
            text=True,
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == (
            1,
            "",
            "error: value: size 1001 exceeds the enumeration limit 501\n",
        )


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
        # a value of more than 20 digits is cut (deliberate change: the
        # whole 400 digits were quoted)
        for scale, shown in ((str(MAX_SCALE + 1), str(MAX_SCALE + 1)), ("9" * 400, NINES_CUT)):
            status, out, err = run(capsys, "render", "--scale", scale, PERM7_TEXT)
            assert status == 2 and out == ""
            assert err == f"error: parse: --scale must be at most {MAX_SCALE}, got {shown}\n"

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

    def test_size_above_the_limit_prints_one_line(self):
        # The enumeration limit holds before any family is enumerated; the
        # command used to enumerate n = 21 first and hang.
        proc = subprocess.run(
            [sys.executable, "-m", "sturm", "harness", "--n-max", "1001", "--bound", "1001"],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == (
            1,
            "",
            "error: value: size 1001 exceeds the enumeration limit 501\n",
        )

    def test_stdout_is_pinned(self, capsys):
        # Guards each property's name and check count as the command prints them.
        status, out, _ = run(capsys, "harness", "--n-max", "7")
        assert status == 0
        assert (
            hashlib.sha256(out.encode()).hexdigest()
            == "ae452e28bb80d100605599dc47b26293f2555be53f7287f89d4606e630c4a79c"
        )


_COMMAND_NAMES = "validate, analyze, minimax, suspend, window, enumerate, render, harness"


class TestUsage:
    @pytest.mark.parametrize(
        "argv, message",
        [
            ([], f"missing command (choose from {_COMMAND_NAMES})"),
            (["bogus"], f"unknown command 'bogus' (choose from {_COMMAND_NAMES})"),
            (["--bogus"], "unknown option --bogus"),
            (["validate", "--foo", PERM7_TEXT], "unknown option --foo"),
            (["validate", "-x", PERM7_TEXT], "unknown option -x"),
            (
                ["render", "--s", "3", PERM7_TEXT],
                "ambiguous option --s could match --scale, --show-morse",
            ),
            (
                ["suspend", "--zero", PERM7_TEXT],
                "ambiguous option --zero could match --zero-based-input, --zero-based",
            ),
            (["minimax", PERM7_TEXT, "--eq"], "option --eq needs a value"),
            (["minimax", PERM7_TEXT], "missing required option --eq"),
            (["window"], "missing required option --anchor-morse, --order"),
            (["enumerate", "--n", "x"], "invalid int value 'x' for --n"),
            (["suspend", "--times", "1.5", PERM7_TEXT], "invalid int value '1.5' for --times"),
            (["enumerate", "--n", "1_1"], "invalid int value '1_1' for --n"),
            (["enumerate", "--n", "\uff17"], "invalid int value '\uff17' for --n"),
            (["minimax", "--eq=3 ", PERM7_TEXT], "invalid int value '3 ' for --eq"),
            (
                ["enumerate", "--n", "5", "--engine", "x"],
                "invalid choice 'x' for --engine (choose from backtrack, filter)",
            ),
            (
                ["render", "--format", "x", PERM7_TEXT],
                "invalid choice 'x' for --format (choose from svg, dot)",
            ),
            (["render", "--show-morse=yes", PERM7_TEXT], "option --show-morse takes no value"),
            (["validate", PERM7_TEXT, PERM7_TEXT], f"unexpected argument '{PERM7_TEXT}'"),
            (["enumerate", "7", "--n", "7"], "unexpected argument '7'"),
        ],
        ids=[
            "no-command",
            "unknown-command",
            "option-without-command",
            "unknown-option",
            "unknown-short-option",
            "ambiguous-prefix",
            "ambiguous-zero",
            "missing-value",
            "missing-required",
            "missing-two-required",
            "non-int",
            "non-int-float",
            "non-int-underscore",
            "non-int-full-width",
            "non-int-trailing-blank",
            "bad-engine",
            "bad-format",
            "flag-with-value",
            "second-positional",
            "positional-not-taken",
        ],
    )
    def test_one_line_and_exit_2(self, capsys, argv, message):
        assert run(capsys, *argv) == (2, "", f"error: usage: {message}\n")

    def test_process_prints_one_line(self):
        proc = subprocess.run(
            [sys.executable, "-m", "sturm", "minimax", PERM7_TEXT], capture_output=True, text=True
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == (
            2,
            "",
            "error: usage: missing required option --eq\n",
        )

    @pytest.mark.parametrize(
        "argv",
        [
            ["suspend", "--times=3", PERM7_TEXT],
            ["suspend", "--ti", "3", PERM7_TEXT],
            ["suspend", PERM7_TEXT, "--times", "1", "--times", "3"],
            ["suspend", "--times", "3", "--", PERM7_TEXT],
        ],
        ids=["equals", "unique-prefix", "last-repeat-wins", "double-dash"],
    )
    def test_option_spellings(self, capsys, argv):
        expected = run(capsys, "suspend", "--times", "3", PERM7_TEXT)
        assert expected[0] == 0
        assert run(capsys, *argv) == expected

    def test_exact_name_beats_longer_option(self, capsys):
        # --zero-based is a prefix of --zero-based-input, but an exact name
        status, out, _ = run(capsys, "suspend", "--zero-based", PERM7_TEXT)
        assert status == 0 and out == "0 7 2 3 6 5 4 1 8\n"
        status, out, _ = run(capsys, "suspend", "--zero-based-i", "0 3 4 5 2 1 6")
        assert status == 0 and out == "1 8 3 4 7 6 5 2 9\n"


class TestIntegerTokens:
    """Labels, ``--order`` entries and int option values are ASCII
    decimals ``[+-]?[0-9]+`` only, and an error quotes at most the first
    20 characters of a bad token."""

    @pytest.mark.parametrize(
        "text, token",
        [
            ("1 3 2 4 \uff15", "'\uff15' (token 5)"),  # full-width 5
            ("1 3 2 4 \u0665", "'\u0665' (token 5)"),  # Arabic-Indic 5
            ("1_0 2 3", "'1_0' (token 1)"),
        ],
        ids=["full-width", "arabic-indic", "underscore"],
    )
    def test_label_not_decimal(self, capsys, text, token):
        line = f"error: parse: non-integer token {token}\n"
        assert run(capsys, "validate", text) == (2, "", line)

    def test_long_tokens_are_cut(self, capsys):
        # 5,000 digits is more than int() converts; the line used to quote all of them
        digits = "9" * 5000
        cut = "'" + "9" * 20 + "...'"
        assert run(capsys, "validate", f"1 2 {digits}") == (
            2,
            "",
            f"error: parse: non-integer token {cut} (token 3)\n",
        )
        assert run(capsys, "enumerate", "--n", digits) == (
            2,
            "",
            f"error: usage: invalid int value {cut} for --n\n",
        )
        status, out, err = run(capsys, "enumerate", "--n", "5", "--engine", "x" * 5000)
        assert (status, out) == (2, "")
        choices = "(choose from backtrack, filter)"
        assert err == f"error: usage: invalid choice '{'x' * 20}...' for --engine {choices}\n"

    @pytest.mark.parametrize(
        "argv, line",
        [
            (
                ["validate", "1 2 " + "9" * 400],
                f"error: parse: label {NINES_CUT} out of range 1..3 (token 3)\n",
            ),
            (
                ["validate", "--zero-based-input", "0 1 " + "9" * 4300],
                # echoed as typed, not shifted up to 10**4300; 4,300 digits
                # are the most a token may have (one more is non-integer)
                f"error: parse: label {NINES_CUT} out of range 0..2 (token 3)\n",
            ),
            (
                ["minimax", "--eq", "9" * 400, PERM7_TEXT],
                f"error: label-range: equilibrium {NINES_CUT} out of range 1..7\n",
            ),
            (
                ["enumerate", "--n", "9" * 400],
                f"error: value: size {NINES_CUT} exceeds the configured bound {DEFAULT_BOUND}\n",
            ),
            (
                ["enumerate", "--n", "8" * 400],
                f"error: value: size must be odd and positive, got {'8' * 20}...\n",
            ),
            (
                ["enumerate", "--n", "3", "--bound", "-" + "9" * 400],
                f"error: value: size 3 exceeds the configured bound -{NINES_CUT}\n",
            ),
            (
                ["suspend", "--times", "-" + "9" * 400, PERM7_TEXT],
                f"error: parse: --times must be non-negative, got -{NINES_CUT}\n",
            ),
            (
                ["render", "--scale", "-" + "9" * 400, PERM7_TEXT],
                f"error: parse: --scale must be positive, got -{NINES_CUT}\n",
            ),
            (
                ["window", "--anchor-morse", "0", "--order", "1 " + "9" * 400],
                f"error: parse: axis order must be a bijection of 1..2: (1, {NINES_CUT})\n",
            ),
        ],
        ids=[
            "label",
            "label-beyond-str",
            "minimax-eq",
            "enumerate-n-bound",
            "enumerate-n-even",
            "enumerate-bound",
            "suspend-times",
            "render-scale",
            "window-order",
        ],
    )
    def test_range_errors_cut_integers(self, capsys, argv, line):
        status = 1 if line.startswith(("error: value", "error: label-range")) else 2
        assert run(capsys, *argv) == (status, "", line)

    def test_twenty_digits_are_shown_whole(self, capsys):
        for digits, shown in (("9" * 20, "9" * 20), ("1" + "0" * 20, "1" + "0" * 19 + "...")):
            status, _, err = run(capsys, "minimax", "--eq", digits, PERM7_TEXT)
            assert status == 1
            assert err == f"error: label-range: equilibrium {shown} out of range 1..7\n"

    def test_twenty_characters_are_quoted_whole(self, capsys):
        token = "x" * 20
        status, _, err = run(capsys, "validate", f"1 {token} 3")
        assert status == 2 and err == f"error: parse: non-integer token '{token}' (token 2)\n"

    @pytest.mark.parametrize(
        "argv, same_as",
        [
            (["suspend", "+1,+4,+5,+6,+3,+2,+7"], ["suspend", PERM7_TEXT]),
            (["suspend", "--times", "+2", PERM7_TEXT], ["suspend", "--times", "2", PERM7_TEXT]),
            (["suspend", "--times", "-0", PERM7_TEXT], ["suspend", "--times", "0", PERM7_TEXT]),
            (["enumerate", "--n", "007", "--count-only"], ["enumerate", "--n=7", "--count-only"]),
        ],
        ids=["signed-labels", "plus-sign", "minus-zero", "leading-zeros"],
    )
    def test_signs_and_leading_zeros_accepted(self, capsys, argv, same_as):
        expected = run(capsys, *same_as)
        assert expected[0] == 0
        assert run(capsys, *argv) == expected


class TestHelp:
    @pytest.mark.parametrize("flag", ["--help", "-h", "--he"])
    def test_main_help_lists_every_command(self, capsys, flag):
        status, out, err = run(capsys, flag)
        assert status == 0 and err == ""
        listed = [line.split()[0] for line in out.splitlines() if line.startswith("  ")]
        assert listed == list(COMMANDS)

    @pytest.mark.parametrize("name", list(COMMANDS))
    def test_command_help_lists_every_option(self, capsys, name):
        status, out, err = run(capsys, name, "--help")
        assert status == 0 and err == ""
        assert out == run(capsys, name, "-h")[1]
        assert COMMANDS[name].help in out
        assert ("PERMUTATION" in out) == COMMANDS[name].permutation
        for option, spec in COMMANDS[name].options.items():
            assert f"--{option}" in out and spec.help in out, option

    def test_help_wins_over_missing_required(self, capsys):
        status, out, _ = run(capsys, "minimax", "--help")
        assert status == 0 and "--eq INT" in out and "(required)" in out

    @pytest.mark.parametrize(
        "name, option, ending",
        [
            ("suspend", "--times INT", "0..1000000 (default 1)"),
            ("render", "--scale INT", "1..1000000 (default 40)"),
            ("render", "--format {svg,dot}", "(default svg)"),
            ("enumerate", "--engine {backtrack,filter}", "(default backtrack)"),
            ("enumerate", "--bound INT", f"(default {DEFAULT_BOUND})"),
            ("harness", "--bound INT", f"(default {DEFAULT_BOUND})"),
            ("window", "--order TEXT", "(required)"),
        ],
    )
    def test_option_line(self, capsys, name, option, ending):
        lines = run(capsys, name, "--help")[1].splitlines()
        (line,) = [line for line in lines if line.startswith(f"  {option} ")]
        assert line.endswith(ending)


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


# Runs one CLI command in a fresh interpreter and prints its exit status,
# the sturm submodules loaded by its end, and which of argparse, gettext
# and locale are loaded (no command needs any of them).
_MODULES_PROBE = """
import contextlib, io, json, sys
from sturm.cli import main

with contextlib.redirect_stdout(io.StringIO()):
    status = main(json.loads(sys.argv[1]))
never = [m for m in ("argparse", "gettext", "locale") if m in sys.modules]
print(json.dumps([status, sorted(m for m in sys.modules if m.startswith("sturm.")), never]))
"""

_HELP_MODULES = {"cli", "errors", "_help"}
_BASE = {"cli", "errors", "meander", "perm"}
_WINDOW = {"cli", "errors", "perm", "crossing", "window"}
_ANALYSIS = {"attractor", "cli", "crossing", "errors", "meander", "perm", "report", "zeros"}
_WINDOW_ARGV = ["window", "--anchor-morse", "2", "--order", " ".join(map(str, WINDOW_ORDER))]
_MODULE_BUDGET = [
    (["--help"], _HELP_MODULES),
    (["minimax", "--help"], _HELP_MODULES),
    (["validate", PERM7_TEXT], _BASE),
    (_WINDOW_ARGV, _WINDOW),
    (["suspend", PERM7_TEXT], _BASE | {"suspension"}),
    (["enumerate", "--n", "7", "--count-only"], _BASE | {"enumeration"}),
    (["render", "--format", "svg", PERM7_TEXT], _BASE | {"render"}),
    (["analyze", PERM7_TEXT], _ANALYSIS),
    (["minimax", "--eq", "3", PERM7_TEXT], _ANALYSIS),
    (["render", "--format", "dot", PERM7_TEXT], _ANALYSIS),
    (
        ["harness", "--n-max", "3"],
        _BASE
        | {"attractor", "crossing", "enumeration", "harness", "suspension", "window", "zeros"},
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
        assert json.loads(out) == [0, sorted(f"sturm.{m}" for m in expected), []], argv


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["validate", PERM7_TEXT], _BASE),
        (["analyze", PERM7_TEXT], _ANALYSIS),
        (_WINDOW_ARGV, _WINDOW),
        (["--help"], _HELP_MODULES),
    ],
    ids=["validate", "analyze", "window", "help"],
)
def test_module_run_loads_only_its_modules(argv, expected):
    # ``python -m sturm`` also runs the package loader and ``__main__``;
    # -X importtime names on stderr every module the interpreter imports.
    # report.py takes its string escaper from the C module ``_json``, so no
    # command loads the ``json`` package.
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "sturm", *argv],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    imported = {
        line.rsplit("|", 1)[1].strip()
        for line in proc.stderr.splitlines()
        if line.startswith("import time:")
    }
    assert {m for m in imported if m.startswith("sturm.")} == {f"sturm.{m}" for m in expected}
    assert not {m for m in imported if m.split(".")[0] == "json"}


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
