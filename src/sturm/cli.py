"""Command-line interface.

Exit codes: 0 for pass/valid, 1 for a validation or property failure,
2 for usage or parse errors. All documents go to stdout, newline
terminated; failures print one machine-parsable line to stderr of the
form ``error: <code>: <message>``.

One table, ``COMMANDS``, defines every command: its handler, its help
line, whether it reads the permutation positional, and its long options
(converter, default or ``REQUIRED``, help). The parser, the help text
and the usage errors all read it.

- ``sturm --help`` lists the commands and ``sturm COMMAND --help`` (or
  ``-h``) the options of one; both print to stdout and exit 0.
- An option is ``--opt value`` or ``--opt=value``. An exact name wins,
  then a unique prefix: ``--zero-based`` is exact next to
  ``--zero-based-input``, ``--zero`` alone is ambiguous there. Command names
  take no abbreviation, and ``-h`` is the only short option.
- A valued option takes the next token even when it starts with ``-``,
  so ``--times -3`` reaches the ``parse`` check of ``--times``. A
  repeated option keeps its last value; ``--`` ends the options.
- The permutation may stand anywhere among the options; ``-`` or no
  positional reads it from stdin.
- Anything else the command line gets wrong prints one line
  ``error: usage: <message>`` and exits 2: no command or an unknown
  one, an unknown option or an ambiguous prefix, a missing value, an
  int value that is not an ASCII decimal ``[+-]?[0-9]+`` or a value not
  among the choices (quoted up to 20 characters), a missing required
  option, an extra positional.

A reader that closes stdout early (``sturm enumerate --n 11 | head``)
ends the command with exit code 1 and nothing on stderr.

Imports: at module level this file imports only the standard library
and ``.errors``. Each ``cmd_*`` function imports the modules it runs,
and ``render`` imports per output format, so a cold process compiles
and loads only what its command needs: ``validate`` loads the meander
test but not the crossing kernel (``crossing``) or the attractor, and
``window`` loads ``crossing`` and ``window`` but neither ``meander`` nor
``zeros``. The help pages live in ``_help``, which only ``-h`` and
``--help`` load. The command table imports no compute module:
``--bound`` defaults to ``None``, which the command resolves to
``DEFAULT_BOUND``.
"""
from __future__ import annotations

import os
import sys
from types import SimpleNamespace
from typing import TYPE_CHECKING, Callable, Collection, Optional, Sequence, Union

from .errors import NotMeanderError, NotSturmError, ParseError, SturmError, WindowError

if TYPE_CHECKING:
    from .perm import SturmPermutation

USAGE_EXIT = 2
FAIL_EXIT = 1
# render --scale cap, px: render.MAX_SCALE, repeated so the parser loads no renderer
MAX_SCALE = 10**6
MAX_TIMES = 10**6  # suspend --times cap; each suspension adds two labels
# window --order cap: window_z runs in about L**2 steps; at the cap it takes
# 0.13 s and the whole command 0.35 s on a 2-CPU Xeon
MAX_WINDOW = 701


def _fail(code: str, message: str, status: int) -> int:
    print(f"error: {code}: {message}", file=sys.stderr)
    return status


def _read_permutation(args: SimpleNamespace) -> SturmPermutation:
    from .perm import parse_permutation

    text = args.permutation
    if text is None or text == "-":
        text = sys.stdin.read()
    lines = sum(1 for line in text.splitlines() if line.strip())
    if lines > 1:
        raise ParseError(f"expected one line, got {lines} non-blank lines")
    return parse_permutation(text, zero_based=args.zero_based_input)


def _bool(value: bool) -> str:
    return "true" if value else "false"


def cmd_validate(args: SimpleNamespace) -> int:
    from .meander import is_meander
    from .perm import is_dissipative, is_morse

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


def cmd_analyze(args: SimpleNamespace) -> int:
    from .attractor import build_model
    from .report import analyze_record, to_json

    p = _read_permutation(args)
    sys.stdout.write(to_json(analyze_record(build_model(p))))
    return 0


def cmd_minimax(args: SimpleNamespace) -> int:
    from .attractor import build_model, minimax_report
    from .perm import _echo_int, _require_sturm
    from .report import minimax_record, to_json

    p = _read_permutation(args)
    # Every gate reads the permutation, so a rejected --eq builds no model.
    _require_sturm(p)
    if not 1 <= args.eq <= p.n:
        eq = _echo_int(args.eq)
        return _fail("label-range", f"equilibrium {eq} out of range 1..{p.n}", FAIL_EXIT)
    if p.morse[args.eq - 1] == 0:
        return _fail("stable-equilibrium", f"equilibrium {args.eq} is stable", FAIL_EXIT)
    record = minimax_record(minimax_report(build_model(p), args.eq))
    sys.stdout.write(to_json(record))
    return 0 if record["passed"] else FAIL_EXIT


def cmd_suspend(args: SimpleNamespace) -> int:
    from .perm import _derived, _echo_int, _require_sturm, format_permutation
    from .suspension import _suspend_labels

    if args.times < 0:
        raise ParseError(f"--times must be non-negative, got {_echo_int(args.times)}")
    if args.times > MAX_TIMES:
        raise ParseError(f"--times must be at most {MAX_TIMES}, got {_echo_int(args.times)}")

    p = _read_permutation(args)
    # Suspension keeps the Sturm property, so only the input is gated.
    _require_sturm(p)
    p = _derived(_suspend_labels(p.map, args.times))
    print(format_permutation(p, zero_based=args.zero_based))
    return 0


def cmd_window(args: SimpleNamespace) -> int:
    from .perm import _parse_ints
    from .window import MeanderWindow, matrix_text, window_morse, window_z

    order = _parse_ints(args.order, "empty window order")
    if len(order) > MAX_WINDOW:
        raise ParseError(f"--order must list at most {MAX_WINDOW} labels, got {len(order)}")
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


def cmd_enumerate(args: SimpleNamespace) -> int:
    from .enumeration import DEFAULT_BOUND, enumerate_sturm
    from .perm import format_permutation

    bound = DEFAULT_BOUND if args.bound is None else args.bound
    stream = enumerate_sturm(args.n, engine=args.engine, bound=bound)
    if args.count_only:
        print(sum(1 for _ in stream))
    else:
        for p in stream:
            print(format_permutation(p))
    return 0


def cmd_render(args: SimpleNamespace) -> int:
    from .perm import _echo_int

    if args.scale < 1:
        raise ParseError(f"--scale must be positive, got {_echo_int(args.scale)}")
    if args.scale > MAX_SCALE:
        raise ParseError(f"--scale must be at most {MAX_SCALE}, got {_echo_int(args.scale)}")
    p = _read_permutation(args)
    if args.format == "svg":
        from .render import RenderStyle, render_svg

        style = RenderStyle(
            scale=args.scale, show_morse=args.show_morse, zero_based_labels=args.zero_based
        )
        sys.stdout.write(render_svg(p, style))
    else:
        from .attractor import build_model
        from .report import dot_graph

        sys.stdout.write(dot_graph(build_model(p)))
    return 0


def cmd_harness(args: SimpleNamespace) -> int:
    from .enumeration import DEFAULT_BOUND
    from .harness import property_harness

    bound = DEFAULT_BOUND if args.bound is None else args.bound
    report = property_harness(args.n_max, bound=bound)
    print(report.text())
    return 0 if report.passed else FAIL_EXIT


# Plain classes, not NamedTuples: creating a NamedTuple class costs about
# 0.3 ms at import, which every cold command would pay.
class Option:
    """One long option of a command.

    ``kind`` converts the value: ``int``, ``str``, a tuple of choices, or
    ``bool`` for a flag, which takes no value and defaults to ``False``.
    ``default`` is the value when the option is absent, or ``REQUIRED``.
    """

    __slots__ = ("kind", "default", "help")

    def __init__(self, kind: Union[type, tuple[str, ...]], default: object, help: str) -> None:
        self.kind, self.default, self.help = kind, default, help


class Command:
    """One command: its handler, its help line, whether it reads the
    permutation positional (and so takes ``--zero-based-input``), and its
    own long options by name."""

    __slots__ = ("handler", "help", "permutation", "options")

    def __init__(
        self,
        handler: Callable[[SimpleNamespace], int],
        help: str,
        permutation: bool,
        options: dict[str, Option],
    ) -> None:
        self.handler, self.help, self.permutation = handler, help, permutation
        self.options = options


REQUIRED = object()  # the default of an option that must be given

_HELP = Option(bool, False, "show this help and exit")
_PERMUTATION_OPTIONS = {
    "zero-based-input": Option(bool, False, "read labels as 0..n-1 and shift up"),
}
_BOUND = Option(int, None, "largest size allowed (default 11)")  # enumeration.DEFAULT_BOUND

COMMANDS = {
    "validate": Command(
        cmd_validate, "dissipative/Morse/meander checks and the Morse vector", True, {}
    ),
    "analyze": Command(
        cmd_analyze, "full JSON report: matrix, connections, minimax", True, {}
    ),
    "minimax": Command(
        cmd_minimax,
        "minimax report for one equilibrium",
        True,
        {"eq": Option(int, REQUIRED, "equilibrium label (1-based)")},
    ),
    "suspend": Command(
        cmd_suspend,
        "suspended permutation",
        True,
        {
            "times": Option(int, 1, f"number of suspensions, 0..{MAX_TIMES}"),
            "zero-based": Option(bool, False, "display labels as 0..n+1"),
        },
    ),
    "window": Command(
        cmd_window,
        "Morse vector and zero numbers of a meander segment",
        False,
        {
            "anchor-morse": Option(int, REQUIRED, "Morse number of the first window label"),
            "order": Option(
                str,
                REQUIRED,
                "window labels (1-based, within the window) in axis order, left to right; "
                f"at most {MAX_WINDOW}, about 0.35 s at the cap",
            ),
        },
    ),
    "enumerate": Command(
        cmd_enumerate,
        "stream all Sturm permutations of one size",
        False,
        {
            "n": Option(int, REQUIRED, "odd size"),
            "count-only": Option(bool, False, "print only the number of permutations"),
            "engine": Option(
                ("backtrack", "filter"), "backtrack", "filter is the brute-force cross-check"
            ),
            "bound": _BOUND,
        },
    ),
    "render": Command(
        cmd_render,
        "SVG meander drawing or DOT connection graph",
        True,
        {
            "format": Option(("svg", "dot"), "svg", "meander drawing or connection graph"),
            "scale": Option(int, 40, f"pixels between adjacent crossings, 1..{MAX_SCALE}"),
            "show-morse": Option(bool, False, "write each label's Morse index"),
            "zero-based": Option(bool, False, "display labels as 0..n-1"),
        },
    ),
    "harness": Command(
        cmd_harness,
        "run the exhaustive property suite",
        False,
        {
            "n-max": Option(int, 7, "largest size checked"),
            "bound": _BOUND,
        },
    ),
}


class _UsageError(Exception):
    pass


def _options(command: Command) -> dict[str, Option]:
    if command.permutation:
        return {"help": _HELP, **_PERMUTATION_OPTIONS, **command.options}
    return {"help": _HELP, **command.options}


def _match(name: str, names: Collection[str]) -> str:
    if name in names:
        return name
    hits = [full for full in names if name and full.startswith(name)]
    if not hits:
        raise _UsageError(f"unknown option --{name}")
    if len(hits) > 1:
        listed = ", ".join(f"--{full}" for full in hits)
        raise _UsageError(f"ambiguous option --{name} could match {listed}")
    return hits[0]


def _convert(name: str, kind: Union[type, tuple[str, ...]], value: str) -> object:
    if kind is str:
        return value
    # perm is loaded anyway by every command with a choice or int option
    from .perm import _decimal, _echo

    if isinstance(kind, tuple):
        if value not in kind:
            raise _UsageError(
                f"invalid choice {_echo(value)} for --{name} (choose from {', '.join(kind)})"
            )
        return value
    try:
        return _decimal(value)
    except ValueError:
        raise _UsageError(f"invalid int value {_echo(value)} for --{name}") from None


def _show_help(name: Optional[str]) -> int:
    from ._help import _command_help, _main_help

    sys.stdout.write(_main_help() if name is None else _command_help(name))
    return 0


def _parse(argv: list[str]) -> tuple[Callable, object]:
    """The handler of the command line and its argument.

    For ``--help`` that is :func:`_show_help` and the command's name, or
    ``None`` for the list of commands; otherwise the command's handler and
    a namespace of its options, each under its name with ``-`` spelled
    ``_``, plus ``permutation`` for the commands that read one. Raises
    :class:`_UsageError` for a malformed command line.
    """
    commands = ", ".join(COMMANDS)
    if not argv:
        raise _UsageError(f"missing command (choose from {commands})")
    name, rest = argv[0], iter(argv[1:])
    if name == "-h" or name.startswith("--") and _match(name[2:], ["help"]):
        return _show_help, None
    if name not in COMMANDS:
        raise _UsageError(f"unknown command {name!r} (choose from {commands})")
    command = COMMANDS[name]
    options = _options(command)
    values = {key: opt.default for key, opt in options.items()}
    positionals = []
    for token in rest:
        if token == "--":
            positionals.extend(rest)
        elif token == "-h":
            return _show_help, name
        elif token.startswith("--"):
            key, has_value, value = token[2:].partition("=")
            key = _match(key, options)
            kind = options[key].kind
            if kind is bool:
                if has_value:
                    raise _UsageError(f"option --{key} takes no value")
                if key == "help":
                    return _show_help, name
                values[key] = True
                continue
            if not has_value:
                value = next(rest, None)
                if value is None:
                    raise _UsageError(f"option --{key} needs a value")
            values[key] = _convert(key, kind, value)
        elif token[:1] == "-" and token[1:2].isalpha():
            raise _UsageError(f"unknown option {token}")
        else:
            positionals.append(token)
    allowed = 1 if command.permutation else 0
    if len(positionals) > allowed:
        raise _UsageError(f"unexpected argument {positionals[allowed]!r}")
    missing = [f"--{key}" for key, value in values.items() if value is REQUIRED]
    if missing:
        raise _UsageError(f"missing required option {', '.join(missing)}")
    del values["help"]
    args = SimpleNamespace(**{key.replace("-", "_"): value for key, value in values.items()})
    if command.permutation:
        args.permutation = positionals[0] if positionals else None
    return command.handler, args


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        handler, args = _parse(list(sys.argv[1:] if argv is None else argv))
    except _UsageError as exc:
        return _fail("usage", str(exc), USAGE_EXIT)
    try:
        status = handler(args)
        sys.stdout.flush()  # so that a reader gone before the exit flush is caught too
    except BrokenPipeError:
        # Python flushes stdout again at exit; devnull takes what is left.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return FAIL_EXIT
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
    return status


if __name__ == "__main__":
    raise SystemExit(main())
