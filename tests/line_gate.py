"""Line gate: every executable line of ``src/sturm`` runs under Tier-1.

Run it from any directory, with the package on the path::

    PYTHONPATH=src python tests/line_gate.py

It runs the Tier-1 suite in this one process under ``sys.settrace`` and
``threading.settrace``, and records each line that runs in ``src/sturm``.
A module's executable lines come from its compiled code objects
(``co_lines``). The gate exits 1 when a line never runs and is not in
``ALLOWED``, or when an entry of ``ALLOWED`` matches no unrun line, and
prints the lines concerned; it exits with pytest's status when a test
fails. An entry is keyed by module, enclosing function and stripped source
text, not by line number, so edits elsewhere in a file move no entry.

Hypothesis runs with a fixed seed, no example database and no deadline
(the tracer slows every test), so each run executes the same examples.
Child processes are not traced: lines that only the subprocess tests reach
are allowlisted. Line tables differ between Python versions; CI runs the
gate on Python 3.11.
"""
from __future__ import annotations

import os
import sys
import threading
from collections import Counter
from pathlib import Path
from types import CodeType

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "sturm"

# (module, enclosing function, source text) of each line that Tier-1 may
# leave unrun, with the reason.
ALLOWED = (
    # imports for type checkers only
    ("sturm.attractor", "<module>", "import networkx as nx"),
    ("sturm.cli", "<module>", "from .perm import SturmPermutation"),
    ("sturm.suspension", "<module>", "from .attractor import Analysis"),
    # entry points: `python -m sturm` runs only in the subprocess tests,
    # `python -m sturm.cli` in no test
    ("sturm.__main__", "<module>", "from .cli import main"),
    ("sturm.__main__", "<module>", 'if __name__ == "__main__":'),
    ("sturm.__main__", "<module>", "raise SystemExit(main())"),
    ("sturm.cli", "<module>", "raise SystemExit(main())"),
    # a reader that closes the pipe early: tested through a child process
    ("sturm.cli", "main", "os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())"),
    ("sturm.cli", "main", "return FAIL_EXIT"),
    # a submodule read as a package attribute before its import (no test does)
    ("sturm", "__getattr__", 'return import_module(f"{__name__}.{name}")'),
)


def _module(path: Path) -> str:
    parts = path.relative_to(PACKAGE.parent).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _executable(path: Path) -> dict[int, str]:
    """Each executable line of a module, mapped to the qualified name of the
    innermost code object that holds it (``<module>`` at top level). A code
    object is visited after the one that defines it, so the innermost wins."""
    lines: dict[int, str] = {}
    todo = [compile(path.read_text(), str(path), "exec", dont_inherit=True)]
    while todo:
        code = todo.pop()
        for _, _, line in code.co_lines():
            # Line 0 is the module's entry point, no source line.
            if line:
                lines[line] = code.co_qualname
        todo.extend(c for c in code.co_consts if isinstance(c, CodeType))
    return lines


class _Profile:
    """A pytest plugin that loads the gate's hypothesis profile once pytest
    has set up its own plugins, so hypothesis is imported as usual."""

    @staticmethod
    def pytest_configure(config) -> None:
        from hypothesis import settings

        settings.register_profile("line-gate", database=None, deadline=None)
        settings.load_profile("line-gate")


def _run_traced(args: list[str]) -> tuple[int, set[tuple[str, int]]]:
    """Run pytest with ``args`` under the tracer: its exit status and the
    (file, line) pairs that ran in the package."""
    hits: set[tuple[str, int]] = set()
    inside: dict[str, bool] = {}
    prefix = str(PACKAGE) + os.sep

    def local(frame, event, arg):
        if event == "line":
            hits.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def enter(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in inside:
            inside[name] = os.path.realpath(name).startswith(prefix)
        return local if inside[name] else None

    threading.settrace(enter)
    sys.settrace(enter)
    try:
        import pytest

        status = pytest.main(args, plugins=[_Profile])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(status), {(os.path.realpath(f), line) for f, line in hits}


def main() -> int:
    os.chdir(ROOT)
    status, hits = _run_traced(
        ["-q", "--continue-on-collection-errors", "-p", "no:cacheprovider", "--hypothesis-seed=0"]
    )
    if status:
        print(f"line gate: Tier-1 failed under the tracer (pytest exit {status})")
        return status
    # key -> the places of its lines, split by whether they ran
    places: dict[bool, dict[tuple[str, str, str], list[str]]] = {True: {}, False: {}}
    for path in sorted(PACKAGE.glob("*.py")):
        text = path.read_text().splitlines()
        real = os.path.realpath(path)
        for line, function in sorted(_executable(path).items()):
            key = (_module(path), function, text[line - 1].strip())
            group = places[(real, line) in hits]
            group.setdefault(key, []).append(f"{path.relative_to(ROOT)}:{line}")
    unrun, ran = places[False], places[True]
    counts = Counter({key: len(where) for key, where in unrun.items()})
    allowed = Counter(ALLOWED)
    failed = False
    for key in sorted(counts - allowed):
        failed = True
        print(f"line gate: unrun and not allowlisted: {', '.join(unrun[key])}: {key}")
    for key in sorted(allowed - counts):
        failed = True
        where = ", ".join(ran.get(key, ["no such line"]))
        print(f"line gate: allowlisted but not unrun: {where}: {key}")
    total = sum(counts.values())
    print(f"line gate: {total} unrun lines, {len(ALLOWED)} allowlist entries: {'FAIL' if failed else 'pass'}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
