"""Help text of the command line, loaded only by ``-h`` and ``--help``.

Both pages are rendered from ``cli.COMMANDS``, the one table of commands
and options, so the help cannot drift from what the parser accepts.
"""
from __future__ import annotations

from typing import Union

from .cli import _HELP, COMMANDS, REQUIRED, _options

_PERMUTATION_HELP = "one-line permutation, whitespace or comma separated; '-' or absent reads stdin"


def _metavar(kind: Union[type, tuple[str, ...]]) -> str:
    if isinstance(kind, tuple):
        return "{" + ",".join(kind) + "}"
    return "" if kind is bool else "INT" if kind is int else "TEXT"


def _columns(rows: list[tuple[str, str]]) -> list[str]:
    width = max(len(left) for left, _ in rows) + 2
    return [f"  {left:<{width}}{right}" for left, right in rows]


def _main_help() -> str:
    lines = [
        "usage: sturm COMMAND [options]",
        "",
        "Exact combinatorics of Sturm meander permutations.",
        "",
        "commands:",
        *_columns([(name, command.help) for name, command in COMMANDS.items()]),
        "",
        "'sturm COMMAND --help' lists the options of one command.",
    ]
    return "\n".join(lines) + "\n"


def _command_help(name: str) -> str:
    command = COMMANDS[name]
    rows = []
    for key, opt in _options(command).items():
        left = "-h, --help" if opt is _HELP else f"--{key} {_metavar(opt.kind)}".rstrip()
        if opt.default is REQUIRED:
            right = f"{opt.help} (required)"
        elif opt.kind is bool or opt.default is None:
            right = opt.help
        else:
            right = f"{opt.help} (default {opt.default})"
        rows.append((left, right))
    positional = " [PERMUTATION]" if command.permutation else ""
    lines = [f"usage: sturm {name} [options]{positional}", "", command.help, ""]
    if command.permutation:
        lines += ["arguments:", *_columns([("PERMUTATION", _PERMUTATION_HELP)]), ""]
    lines += ["options:", *_columns(rows)]
    return "\n".join(lines) + "\n"
