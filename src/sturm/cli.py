"""Command-line interface.

Exit codes: 0 for pass/valid, 1 for a validation or property failure,
2 for usage or parse errors. All documents go to stdout, newline
terminated; failures print one machine-parsable line to stderr of the
form ``error: <code>: <message>``.
"""
from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from .attractor import build_model, minimax_report
from .enumeration import DEFAULT_BOUND, enumerate_sturm, property_harness
from .errors import NotMeanderError, NotSturmError, ParseError, SturmError, WindowError
from .meander import is_meander, is_sturm
from .perm import (
    SturmPermutation,
    format_permutation,
    is_dissipative,
    is_morse,
    parse_permutation,
)
from .render import RenderStyle, render_svg
from .report import analyze_record, dot_graph, minimax_record, to_json
from .suspension import suspend
from .zeros import MeanderWindow, matrix_text, window_morse, window_z

USAGE_EXIT = 2
FAIL_EXIT = 1


def _fail(code: str, message: str, status: int) -> int:
    print(f"error: {code}: {message}", file=sys.stderr)
    return status


def _read_permutation(args: argparse.Namespace) -> SturmPermutation:
    text = args.permutation
    if text is None or text == "-":
        text = sys.stdin.read()
    lines = sum(1 for line in text.splitlines() if line.strip())
    if lines > 1:
        raise ParseError(f"expected one line, got {lines} non-blank lines")
    return parse_permutation(text, zero_based=args.zero_based_input)


def _add_permutation_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "permutation",
        nargs="?",
        help="one-line permutation, whitespace or comma separated; '-' or absent reads stdin",
    )
    parser.add_argument(
        "--zero-based-input",
        action="store_true",
        help="read labels as 0..n-1 and shift up",
    )


def _bool(value: bool) -> str:
    return "true" if value else "false"


def cmd_validate(args: argparse.Namespace) -> int:
    p = _read_permutation(args)
    dissipative = is_dissipative(p)
    morse = is_morse(p)
    meander = is_meander(p)
    sturm = dissipative and morse and meander
    print(f"dissipative: {_bool(dissipative)}")
    print(f"morse: {_bool(morse)}")
    print(f"meander: {_bool(meander)}")
    print(f"sturm: {_bool(sturm)}")
    print("morse-vector: " + " ".join(str(i) for i in p.morse))
    return 0 if sturm else FAIL_EXIT


def cmd_analyze(args: argparse.Namespace) -> int:
    p = _read_permutation(args)
    sys.stdout.write(to_json(analyze_record(build_model(p))))
    return 0


def cmd_minimax(args: argparse.Namespace) -> int:
    p = _read_permutation(args)
    model = build_model(p)
    if not 1 <= args.eq <= model.n:
        return _fail("label-range", f"equilibrium {args.eq} out of range 1..{model.n}", FAIL_EXIT)
    if model.morse[args.eq - 1] == 0:
        return _fail("stable-equilibrium", f"equilibrium {args.eq} is stable", FAIL_EXIT)
    record = minimax_record(minimax_report(model, args.eq))
    sys.stdout.write(to_json(record))
    return 0 if record["passed"] else FAIL_EXIT


def cmd_suspend(args: argparse.Namespace) -> int:
    if args.times < 0:
        raise ParseError(f"--times must be non-negative, got {args.times}")
    p = _read_permutation(args)
    for _ in range(args.times):
        p = suspend(p).suspended
    print(format_permutation(p, zero_based=args.zero_based))
    return 0


def cmd_window(args: argparse.Namespace) -> int:
    tokens = args.order.replace(",", " ").split()
    if not tokens:
        raise ParseError("empty window order")
    order = []
    for idx, tok in enumerate(tokens, start=1):
        try:
            order.append(int(tok))
        except ValueError:
            raise ParseError(f"non-integer token {tok!r}", position=idx) from None
    try:
        win = MeanderWindow.from_axis_order(order, anchor_morse=args.anchor_morse)
    except ValueError as exc:
        if isinstance(exc, SturmError):
            raise
        raise ParseError(str(exc)) from None
    morse = window_morse(win)
    print("morse: " + " ".join(str(i) for i in morse))
    print("z-matrix:")
    print(matrix_text(window_z(win)))
    return 0


def cmd_enumerate(args: argparse.Namespace) -> int:
    stream = enumerate_sturm(args.n, engine=args.engine, bound=args.bound)
    if args.count_only:
        print(sum(1 for _ in stream))
    else:
        for p in stream:
            print(format_permutation(p))
    return 0


def cmd_render(args: argparse.Namespace) -> int:
    p = _read_permutation(args)
    if args.format == "svg":
        style = RenderStyle(
            scale=args.scale, show_morse=args.show_morse, zero_based_labels=args.zero_based
        )
        sys.stdout.write(render_svg(p, style))
    else:
        sys.stdout.write(dot_graph(build_model(p)))
    return 0


def cmd_harness(args: argparse.Namespace) -> int:
    report = property_harness(args.n_max, bound=args.bound)
    print(report.text())
    return 0 if report.passed else FAIL_EXIT


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sturm",
        description="Exact combinatorics of Sturm meander permutations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("validate", help="dissipative/Morse/meander checks and the Morse vector")
    _add_permutation_arg(sp)
    sp.set_defaults(func=cmd_validate)

    sp = sub.add_parser("analyze", help="full JSON report: matrix, connections, minimax")
    _add_permutation_arg(sp)
    sp.set_defaults(func=cmd_analyze)

    sp = sub.add_parser("minimax", help="minimax report for one equilibrium")
    _add_permutation_arg(sp)
    sp.add_argument("--eq", type=int, required=True, help="equilibrium label (1-based)")
    sp.set_defaults(func=cmd_minimax)

    sp = sub.add_parser("suspend", help="suspended permutation")
    _add_permutation_arg(sp)
    sp.add_argument("--times", type=int, default=1, help="number of suspensions (default 1)")
    sp.add_argument("--zero-based", action="store_true", help="display labels as 0..n+1")
    sp.set_defaults(func=cmd_suspend)

    sp = sub.add_parser("window", help="Morse vector and zero numbers of a meander segment")
    sp.add_argument(
        "--anchor-morse", type=int, required=True, help="Morse number of the first window label"
    )
    sp.add_argument(
        "--order",
        required=True,
        help="window labels (1-based, within the window) in axis order, left to right",
    )
    sp.set_defaults(func=cmd_window)

    sp = sub.add_parser("enumerate", help="stream all Sturm permutations of one size")
    sp.add_argument("--n", type=int, required=True, help="odd size")
    sp.add_argument("--count-only", action="store_true")
    sp.add_argument("--engine", choices=("auto", "filter", "backtrack"), default="auto")
    sp.add_argument("--bound", type=int, default=DEFAULT_BOUND)
    sp.set_defaults(func=cmd_enumerate)

    sp = sub.add_parser("render", help="SVG meander drawing or DOT connection graph")
    _add_permutation_arg(sp)
    sp.add_argument("--format", choices=("svg", "dot"), default="svg")
    sp.add_argument("--scale", type=int, default=40)
    sp.add_argument("--show-morse", action="store_true")
    sp.add_argument("--zero-based", action="store_true", help="display labels as 0..n-1")
    sp.set_defaults(func=cmd_render)

    sp = sub.add_parser("harness", help="run the exhaustive property suite")
    sp.add_argument("--n-max", type=int, default=7)
    sp.add_argument("--bound", type=int, default=DEFAULT_BOUND)
    sp.set_defaults(func=cmd_harness)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors already; normalize other codes
        return USAGE_EXIT if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except ParseError as exc:
        return _fail("parse", str(exc), USAGE_EXIT)
    except NotSturmError as exc:
        return _fail("not-sturm", str(exc), FAIL_EXIT)
    except NotMeanderError as exc:
        return _fail("not-meander", str(exc), FAIL_EXIT)
    except WindowError as exc:
        return _fail("window-inconsistent", str(exc), FAIL_EXIT)
    except SturmError as exc:
        return _fail("domain", str(exc), FAIL_EXIT)
    except ValueError as exc:
        return _fail("value", str(exc), FAIL_EXIT)


if __name__ == "__main__":
    raise SystemExit(main())
