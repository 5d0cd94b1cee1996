"""Structured report assembly and serialization (JSON and DOT).

The analyze report is a single hierarchical document with fixed field
names and 1-based arrays (declared by the explicit ``index_base`` field)
so golden tests can compare bytes. Dictionaries are built in the
documented key order and serialized without re-sorting.

``to_json`` is a hand-written emitter whose output is byte-identical to
``json.dumps(record, indent=2)`` plus a final newline: two-space
indentation, ``","`` and ``": "`` separators, ASCII escapes. Under
``indent`` the standard library falls back to its pure-Python encoder,
which is more than twice as slow on the large minimax sections. The
tests keep ``json.dumps`` as the oracle.
"""
from __future__ import annotations

from json.encoder import encode_basestring_ascii
from typing import Any, Callable

from .attractor import AttractorModel, MinimaxReport, minimax_report

__all__ = ["minimax_record", "analyze_record", "to_json", "dot_graph"]


def minimax_record(report: MinimaxReport) -> dict[str, Any]:
    """JSON-ready record of one equilibrium's minimax analysis."""
    top = report.n - 1
    verdicts = {}
    for case in report.cases:
        if case.applicable:
            record: dict[str, Any] = case._asdict()
            del record["slot"]
            record.update(neighbor_is_closest=case.neighbor_is_closest, passed=case.passed)
        else:
            record = {"neighbor": case.neighbor, "applicable": False}
        verdicts[case.slot] = record
    extended = []
    for k in range(report.n):
        for sign in ("+", "-"):
            ex = report.extrema.get(f"{k}{sign}")
            extended.append(
                {
                    "k": k,
                    "sign": sign,
                    "empty": ex is None,
                    "passed": None if ex is None else ex.minimax_holds,
                }
            )
    return {
        "O": report.base,
        "n": report.n,
        "neighbors": report.neighbors._asdict(),
        "target_sets": {key: list(v) for key, v in report.target_sets.items()},
        "minimax": {
            key: report.extrema[key]._asdict()
            for key in (f"{top}+", f"{top}-")
            if key in report.extrema
        },
        "verdicts": verdicts,
        "extended": extended,
        "passed": report.passed,
    }


def analyze_record(model: AttractorModel) -> dict[str, Any]:
    """The full structured report for one Sturm permutation."""
    return {
        "index_base": 1,
        "n": model.n,
        "sigma": list(model.p.map),
        "sigma_inverse": list(model.p.inv),
        "morse": list(model.morse),
        "z_matrix": [list(row) for row in model.z.values],
        "connections": list(model.edges()),
        "minimax": [minimax_record(minimax_report(model, j)) for j in model.unstable()],
    }


_SCALARS: dict[type, Callable[[Any], str]] = {
    int: int.__repr__,
    str: encode_basestring_ascii,
    bool: lambda v: "true" if v else "false",
    type(None): lambda v: "null",
}


def to_json(record: dict[str, Any]) -> str:
    """Serialize a record exactly as ``json.dumps(record, indent=2)`` does,
    plus a final newline.

    Records hold only dicts with str keys, lists, tuples, ints, strs,
    bools and None; any other type, floats included, raises ``TypeError``.

    >>> print(to_json({"a": [1, 2], "b": {}, "c": None}), end="")
    {
      "a": [
        1,
        2
      ],
      "b": {},
      "c": null
    }
    """
    out: list[str] = []
    _emit(record, "\n", out)
    out.append("\n")
    return "".join(out)


def _emit(v: Any, nl: str, out: list[str]) -> None:
    # nl is the newline plus indentation of the line that closes v.
    t = type(v)
    if t is dict:
        if not v:
            out.append("{}")
            return
        inner = nl + "  "
        sep = "{" + inner
        for key, x in v.items():
            if type(key) is not str:
                raise TypeError(f"key {key!r} is not a str")
            scalar = _SCALARS.get(type(x))
            if scalar is not None:
                out.append(sep + encode_basestring_ascii(key) + ": " + scalar(x))
            else:
                out.append(sep + encode_basestring_ascii(key) + ": ")
                _emit(x, inner, out)
            sep = "," + inner
        out.append(nl + "}")
    elif t is list or t is tuple:
        if not v:
            out.append("[]")
            return
        inner = nl + "  "
        if {*map(type, v)} == {int}:
            out.append("[" + inner + ("," + inner).join(map(int.__repr__, v)) + nl + "]")
            return
        sep = "[" + inner
        for x in v:
            out.append(sep)
            _emit(x, inner, out)
            sep = "," + inner
        out.append(nl + "]")
    else:
        scalar = _SCALARS.get(t)
        if scalar is None:
            raise TypeError(f"cannot serialize {t.__name__}")
        out.append(scalar(v))


def dot_graph(model: AttractorModel) -> str:
    """Connection digraph in DOT form, nodes in label order."""
    lines = ["digraph attractor {"]
    for j in range(1, model.n + 1):
        lines.append(f'  {j} [label="{j} i={model.morse[j - 1]}"];')
    for j, k in model.edges():
        lines.append(f"  {j} -> {k};")
    lines.append("}")
    return "\n".join(lines) + "\n"
