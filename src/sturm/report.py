"""Structured report assembly and serialization (JSON and DOT).

The analyze report is a single hierarchical document with fixed field
names and 1-based arrays (declared by the explicit ``index_base`` field)
so golden tests can compare bytes. Dictionaries are built in the
documented key order and serialized without re-sorting.

``minimax_record`` builds each record straight from the report's tuples:
each case unpacks into one verdict dict display, whose
``neighbor_is_closest`` and ``passed`` are compared there, and the record's
``passed`` is their conjunction, so no case or report property is called.
The top level's two keys are the last two of ``target_sets``, and
``neighbors`` and each larger ``minimax`` entry zip the field names onto
the NamedTuple, with no ``_asdict`` copy to trim and extend.

Records that depend on nothing but a level index or a label are interned
in process-wide ``attractor._Grown`` tables: each ``extended`` entry (one
per level index and verdict) and the ``minimax`` entry of a one-member top
level (one per label) is a read-only ``_Interned`` dict. A one-member level
passes with no ``minimax_holds`` call.

``to_json`` is a hand-written emitter whose output is byte-identical to
``json.dumps(record, indent=2)`` plus a final newline: two-space
indentation, ``","`` and ``": "`` separators, ASCII escapes. Under
``indent`` the standard library falls back to its pure-Python encoder,
which takes about seven times as long on the n = 101 suspension-chain
member's record: 50 ms against 7.3 ms (best of 5 and of 30 runs, 2-CPU
Xeon, Python 3.11). The tests keep ``json.dumps`` as the oracle. The
string escaper comes from ``_json``, the C module behind ``json.encoder``,
so no command loads the ``json`` package.

The emitter is one generic recursion with fast paths for the flat
containers that make up most of a report, each written without a call
per member:

- a list of non-empty int lists or tuples (``z_matrix``, ``connections``)
  is written row by row through a ``%d`` template, built per list for
  each row length it holds, that carries the row's brackets, separators
  and indentation, so C-level formatting writes each row in one step;
- a list of ints (``sigma``, ``morse``) is written in one join;
- a dict whose values are all int lists (``target_sets``) is written in
  one join of its levels, each level a join of its members, except a
  one-member level (93% of the levels of the n = 13 family, all but one
  of the n = 101 chain member's), which is its member's ``repr`` between
  brackets, with no join;
- a dict value whose values are all scalars (``neighbors``, a verdict, a
  larger ``minimax`` entry) is written in one join;
- an ``_Interned`` is written from its cached text wherever it occurs, and
  a list of them (``extended``) in one join of their texts.

The int paths take exact ints only, tested by the set of the run's types
before any template or ``repr`` is applied: ``%d`` would write ``True``
as ``1``, truncate a float and write an ``IntEnum`` member as its value.
So a bool, a float or an ``IntEnum`` member in a run falls back to the
recursion, which writes the first and refuses the others. An int too
long for ``str`` fails in ``%d`` and ``repr`` with the ``ValueError`` of
``json.dumps``. A dict value's first value picks its path: a dict or an
``_Interned`` (``verdicts``, ``minimax``) goes to the recursion, a list to
the int-list join, anything else to the scalar join. A later value of another kind
sends the whole dict to the recursion, so no exception steers a report's
dicts.

Each scalar is written by a callable implemented in C: ``repr`` for an
int, and a dict's bound ``__getitem__`` for a bool or None. ``repr`` calls
about twice as fast as the slot wrapper ``int.__repr__``; the two lookups
cost what a lambda does under Python 3.11, and half of what a tuple's
``__getitem__`` (a slot wrapper) or ``"null".format`` (which parses its
format string) costs.

Four tables live for the whole process, since they hold only what a
record's shape fixes: the indentation strings of each depth and the texts
of each interned record, both kept for the first ``_FRAMES_DEPTH``
depths; the encoded ``"key": `` heads of this module's field names,
``_FIELD_HEADS``; and the interned records, whose ``_Grown`` tables
follow the largest Morse number and label seen, not the size of a
document. The heads of other keys, such as level names, live for one
``to_json`` call in its ``_Heads``, and the row templates for one list.
Nothing is cached by value: equal dicts such as ``{"a": True}`` and
``{"a": 1}`` are written apart.
"""
from __future__ import annotations

from itertools import chain
from typing import Any, Callable, NoReturn, Optional

from _json import encode_basestring_ascii

from .attractor import (
    NEIGHBOR_SLOTS,
    AttractorModel,
    MinimaxExtrema,
    MinimaxReport,
    _Grown,
    minimax_report,
)


def minimax_record(report: MinimaxReport) -> dict[str, Any]:
    """JSON-ready record of one equilibrium's minimax analysis."""
    verdicts = {}
    passed = True
    for slot, neighbor, applicable, sign, iota, closest, farthest in report.cases:
        if applicable:
            ok = closest == farthest
            passed = passed and ok
            verdicts[slot] = {
                "neighbor": neighbor,
                "applicable": True,
                "sign": sign,
                "iota": iota,
                "closest": closest,
                "farthest_opposite": farthest,
                "neighbor_is_closest": neighbor == closest,
                "passed": ok,
            }
        else:
            verdicts[slot] = {"neighbor": neighbor, "applicable": False}
    # target_sets lists every level in order "0+", "0-", "1+", ..., and
    # extrema holds the non-empty ones under the same keys; the top
    # level's two keys are the last two.
    target_sets, extrema = report.target_sets, report.extrema
    levels = _EXTENDED.upto(len(target_sets))
    extended = [
        # one member is closest and most distant at both boundaries
        levels[i][(len(ws) == 1 or extrema[key].minimax_holds) if ws else None]
        for i, (key, ws) in enumerate(target_sets.items())
    ]
    top = reversed(target_sets)
    top_minus = next(top)
    top_plus = next(top)
    minimax = {}
    for key in (top_plus, top_minus):
        ws = target_sets[key]
        if len(ws) == 1:
            minimax[key] = _ONE_MEMBER.upto(ws[0] + 1)[ws[0]]
        elif ws:
            minimax[key] = dict(zip(MinimaxExtrema._fields, extrema[key]))
    return {
        "O": report.base,
        "n": report.n,
        "neighbors": dict(zip(NEIGHBOR_SLOTS, report.neighbors)),
        "target_sets": dict(zip(target_sets, map(list, target_sets.values()))),
        "minimax": minimax,
        "verdicts": verdicts,
        "extended": extended,
        "passed": passed,
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


class _Interned(dict):
    """A read-only dict of scalars that every report shares, with its text
    under each closing newline for the first ``_FRAMES_DEPTH`` depths. A
    copy or pickle of it is a plain dict."""

    __slots__ = ("texts",)

    def __init__(self, **items: Any) -> None:
        dict.__init__(self, items)
        self.texts: dict[str, str] = {}

    def _refuse(self, *args: Any, **kwargs: Any) -> NoReturn:
        raise TypeError("a shared report record is read-only")

    __setitem__ = __delitem__ = __ior__ = update = pop = popitem = clear = setdefault = _refuse

    def __reduce__(self) -> tuple:
        return dict, (dict(self),)

    def text(self, nl: str, heads: _Heads) -> str:
        # The text of the record closed by nl.
        text = self.texts.get(nl)
        if text is None:
            out: list[str] = []
            _emit(dict(self), nl, out, heads)
            text = "".join(out)
            if len(nl) <= 2 * _FRAMES_DEPTH:
                self.texts[nl] = text
        return text


# At index i, the extended entries of level i ("0+", "0-", "1+", ...) under
# their verdict: True passed, False failed, None empty.
_EXTENDED: _Grown[dict[Optional[bool], _Interned]] = _Grown(
    lambda i: {
        ok: _Interned(k=i >> 1, sign="+-"[i & 1], empty=ok is None, passed=ok)
        for ok in (True, False, None)
    }
)
# At index w, the minimax entry of the one-member level {w}.
_ONE_MEMBER: _Grown[_Interned] = _Grown(
    lambda w: _Interned(**dict.fromkeys(MinimaxExtrema._fields, w))
)


# Exact types only, so repr is int's own; see the module docstring.
_SCALARS: dict[type, Callable[[Any], str]] = {
    int: repr,
    str: encode_basestring_ascii,
    bool: {False: "false", True: "true"}.__getitem__,
    type(None): {None: "null"}.__getitem__,
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
    _emit(record, "\n", out, _Heads(_FIELD_HEADS))
    out.append("\n")
    return "".join(out)


def _head(key: str) -> str:
    return encode_basestring_ascii(key) + ": "


# The encoded heads of the field names of this module's records, copied
# into every call's memo.
_FIELD_HEADS = {
    key: _head(key)
    for key in (
        # analyze_record
        "index_base", "n", "sigma", "sigma_inverse", "morse", "z_matrix", "connections",
        "minimax",
        # minimax_record, its verdicts and its extended levels
        "O", "neighbors", "target_sets", "verdicts", "extended", "passed",
        "neighbor", "applicable", "sign", "iota", "closest", "farthest_opposite",
        "neighbor_is_closest", "k", "empty",
        *NEIGHBOR_SLOTS,
        *MinimaxExtrema._fields,
    )
}


class _Heads(dict):
    """The memo of one ``to_json`` call: the encoded ``"key": `` head of
    each dict key, seeded with ``_FIELD_HEADS``."""

    def __missing__(self, key: Any) -> str:
        if not isinstance(key, str):
            raise TypeError(f"key {key!r} is not a str")
        head = self[key] = _head(key)
        return head


# The indentation strings of each depth, keyed by the newline that closes a
# container at that depth; see _frame.
_FRAMES: dict[str, tuple[str, ...]] = {}
_FRAMES_DEPTH = 32


def _frame(nl: str) -> tuple[str, ...]:
    # The strings of a container closed by nl: inner indents its members,
    # bar the members of a member. Kept for the first _FRAMES_DEPTH depths.
    inner = nl + "  "
    bar = inner + "  "
    frame = (inner, bar, "," + inner, "[" + bar, "," + bar, inner + "]")
    if len(nl) <= 2 * _FRAMES_DEPTH:
        _FRAMES[nl] = frame
    return frame


_INT = {int}
_LIST = {list}
_ROWS = {list, tuple}
_SHARED = {_Interned}


def _flat(x: dict, bar: str, comma_bar: str, inner: str, heads: _Heads) -> Optional[str]:
    # The text of a non-empty dict whose values are all scalars, or None.
    try:
        items = [heads[k] + _SCALARS[type(y)](y) for k, y in x.items()]
    except KeyError:  # a value that is no scalar
        return None
    return "{" + bar + comma_bar.join(items) + inner + "}"


def _lists(x: dict, inner: str, heads: _Heads) -> Optional[str]:
    # The text of a non-empty dict whose values are all int lists, or None.
    values = x.values()
    if {*map(type, values)} != _LIST or not {*map(type, chain.from_iterable(values))} <= _INT:
        return None
    bar, _, later, open_bar, comma_bar, close_bar = _FRAMES.get(inner) or _frame(inner)
    items = [
        heads[k] + (
            open_bar + repr(ws[0]) + close_bar if len(ws) == 1
            else open_bar + comma_bar.join(map(repr, ws)) + close_bar if ws
            else "[]"
        )
        for k, ws in x.items()
    ]
    return "{" + bar + later.join(items) + inner + "}"


def _emit(v: Any, nl: str, out: list[str], heads: _Heads) -> None:
    # nl is the newline plus indentation of the line that closes v.
    t = type(v)
    if t is not dict and t is not list and t is not tuple:
        if t is _Interned:
            out.append(v.text(nl, heads))
            return
        scalar = _SCALARS.get(t)
        if scalar is None:
            raise TypeError(f"cannot serialize {t.__name__}")
        out.append(scalar(v))
        return
    if not v:
        out.append("{}" if t is dict else "[]")
        return
    inner, bar, later, open_bar, comma_bar, close_inner = _FRAMES.get(nl) or _frame(nl)
    if t is dict:
        sep = "{" + inner
        for key, x in v.items():
            tx = type(x)
            scalar = _SCALARS.get(tx)
            if scalar is not None:
                out.append(sep + heads[key] + scalar(x))
            else:
                text = None
                if tx is dict and x:
                    # the first value picks the path: a dict of dicts
                    # recurses, a dict of lists tries _lists, else _flat
                    first = type(next(iter(x.values())))
                    if first is list:
                        text = _lists(x, inner, heads)
                    elif first is not dict and first is not _Interned:
                        text = _flat(x, bar, comma_bar, inner, heads)
                if text is not None:
                    out.append(sep + heads[key] + text)
                else:
                    out.append(sep + heads[key])
                    _emit(x, inner, out, heads)
            sep = later
        out.append(nl + "}")
        return
    types = {*map(type, v)}
    if types == _INT:
        out.append("[" + inner + later.join(map(repr, v)) + nl + "]")
    elif types == _SHARED:
        out.append("[" + inner + later.join([x.text(inner, heads) for x in v]) + nl + "]")
    elif types <= _ROWS and all(v) and {*map(type, chain.from_iterable(v))} == _INT:
        # non-empty int rows, each through the %d template of its length
        templates = {
            size: open_bar + comma_bar.join(("%d",) * size) + close_inner
            for size in {*map(len, v)}
        }
        rows = [templates[len(row)] % tuple(row) for row in v]
        out.append("[" + inner + later.join(rows) + nl + "]")
    else:
        sep = "[" + inner
        for x in v:
            out.append(sep)
            _emit(x, inner, out, heads)
            sep = later
        out.append(nl + "]")


def dot_graph(model: AttractorModel) -> str:
    """Connection digraph in DOT form, nodes in label order."""
    lines = ["digraph attractor {"]
    for j in range(1, model.n + 1):
        lines.append(f'  {j} [label="{j} i={model.morse[j - 1]}"];')
    for j, k in model.edges():
        lines.append(f"  {j} -> {k};")
    lines.append("}")
    return "\n".join(lines) + "\n"
