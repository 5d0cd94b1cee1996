"""Byte pins of the JSON and DOT reports, and the emitter against its oracle.

Each digest is the SHA-256 of a serialized report. A change to any field,
key order, value or whitespace of ``analyze``, ``minimax`` or DOT output
changes it, so refactors of the analysis or the serializers must keep
these literals. ``to_json`` must also agree byte for byte with
``json.dumps(record, indent=2)`` on every record and on arbitrary
JSON-like trees.
"""
import copy
import hashlib
import pickle
from enum import IntEnum

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import PERM15, PERM7, _suspended
from oracles import asdict_minimax_record, json_oracle
import sturm.report
from sturm import NEIGHBOR_SLOTS, SturmPermutation, build_model, enumerate_sturm, minimax_report
from sturm.report import (
    _FIELD_HEADS,
    _FRAMES_DEPTH,
    _Interned,
    analyze_record,
    dot_graph,
    minimax_record,
    to_json,
)


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize(
    "perm, times, digest",
    [
        (PERM7, 0, "6e4c25d54b7656c38df0ad41a00d5fb54316f197d67fce471e319fe84b38caaa"),
        (PERM15, 0, "e83defaaaeaac0c4f96ba855d9a593bab0316f35c340e3926f7bd3de6c6ff888"),
        # the n=31 member of the suspension chain
        (PERM7, 12, "52f3809e141dd288b1e66ba421e8a85a5dc82baee8f73aa208cd788027281941"),
        # the n=101 member, 1.16 MB of JSON
        (PERM7, 47, "1df3c1a53272f06a8513a4b58373737e453532d58634bea664aa55e7b2dc0088"),
    ],
    ids=["n7", "n15", "n31", "n101"],
)
def test_analyze_bytes_pinned(perm, times, digest):
    p = _suspended(SturmPermutation(perm), times)
    assert _sha256(to_json(analyze_record(build_model(p)))) == digest


@pytest.mark.parametrize(
    "times, digest",
    [
        (0, "ee1f6775c7a3734d2390c30a323b57841ab2e8e4039681a5c24ac1ee7a1a5cf4"),
        (12, "e1cf33e16a1e4e1b3cb9c4ad26004a47274e0a5694fa7e702c408c4891ea144a"),
        (47, "f0c549a20c3520c9a92b8463f0b653c826543d9139d9094f8dc17fef4e69a0ce"),
    ],
    ids=["n7", "n31", "n101"],
)
def test_dot_bytes_pinned(times, digest):
    # members of the suspension chain of the seven-crossing example
    p = _suspended(SturmPermutation(PERM7), times)
    assert _sha256(dot_graph(build_model(p))) == digest


@pytest.mark.parametrize(
    "sizes, count, digest",
    [
        (
            (1, 3, 5, 7, 9, 11),
            218,
            "b68edea01ce0243cd3168bbcb23d4dd37e4d4c853dd95d7495c22c3ade7fff93",
        ),
        pytest.param(
            (13,),
            1083,
            "fdae97021bea9411562ee98ab60895a4403f794c2348b21e38b0c78186ba440b",
            marks=pytest.mark.slow,
        ),
    ],
    ids=["n1-11", "n13"],
)
def test_family_analyze_bytes_pinned(sizes, count, digest):
    # One digest over the analyze JSON of every family member in
    # enumeration order: the small analyses where per-base cost dominates.
    h = hashlib.sha256()
    members = [p for n in sizes for p in enumerate_sturm(n, bound=n)]
    for p in members:
        h.update(to_json(analyze_record(build_model(p))).encode())
    assert (len(members), h.hexdigest()) == (count, digest)


def test_minimax_bytes_pinned(model7):
    text = to_json(minimax_record(minimax_report(model7, 3)))
    assert _sha256(text) == "18d7ab8f52710c57a7dc21d3a64278c90ca95ba35d74e8cfd4fa29e87b757bfc"


def test_minimax_verdict_key_order():
    applicable = [
        "neighbor",
        "applicable",
        "sign",
        "iota",
        "closest",
        "farthest_opposite",
        "neighbor_is_closest",
        "passed",
    ]
    seen = set()
    model = build_model(SturmPermutation(PERM15))
    for base in model.unstable():
        verdicts = minimax_record(minimax_report(model, base))["verdicts"]
        assert list(verdicts) == list(NEIGHBOR_SLOTS)
        for verdict in verdicts.values():
            want = applicable if verdict["applicable"] else applicable[:2]
            assert list(verdict) == want, (base, verdict)
            seen.add(verdict["applicable"])
    assert seen == {True, False}


def _same_record(record, oracle) -> bool:
    # equal values, and the same text: key order and bool against int
    return record == oracle and json_oracle(record) == json_oracle(oracle)


class TestAgainstOracle:
    @pytest.mark.parametrize("n", [1, 3, 5, 7, 9, 11])
    def test_minimax_record_of_every_unstable_base(self, n):
        for p in enumerate_sturm(n):
            model = build_model(p)
            for base in model.unstable():
                report = minimax_report(model, base)
                assert _same_record(minimax_record(report), asdict_minimax_record(report))

    def test_minimax_record_of_large_inputs(self, large_inputs):
        for p in large_inputs:
            model = build_model(p)
            for base in model.unstable():
                report = minimax_report(model, base)
                assert _same_record(minimax_record(report), asdict_minimax_record(report))

    @pytest.mark.parametrize("n", [1, 3, 5, 7, 9, 11])
    def test_every_analyze_record(self, n):
        for p in enumerate_sturm(n):
            record = analyze_record(build_model(p))
            assert to_json(record) == json_oracle(record), p

    def test_minimax_records_of_large_inputs(self, large_inputs):
        for p in large_inputs:
            model = build_model(p)
            for base in model.unstable():
                record = minimax_record(minimax_report(model, base))
                assert to_json(record) == json_oracle(record), (p, base)

    def test_analyze_records_of_large_inputs(self, large_inputs):
        for p in large_inputs:
            record = analyze_record(build_model(p))
            assert to_json(record) == json_oracle(record), p

    def test_single_equilibrium(self):
        record = analyze_record(build_model(SturmPermutation((1,))))
        assert record["connections"] == [] and record["minimax"] == []
        assert to_json(record) == json_oracle(record)


_texts = st.text(st.sampled_from('a"\\/\x00\x1f\x7f\n\té \U0001f600'), max_size=6) | st.text(
    max_size=6
)
_ints = st.integers() | st.integers(min_value=-(10**30), max_value=10**30)
_leaves = st.none() | st.booleans() | _ints | _texts
# The emitter's fast-path shapes: int lists, rows of ints (empty rows and
# bools mixed in at times), and dicts of scalars.
_int_lists = st.lists(_ints, max_size=4)
# Rows of up to six ints, lists and tuples of several lengths in one list,
# each length with its own %d template.
_row_ints = st.lists(_ints, max_size=6)
_rows = st.lists(
    _row_ints | _row_ints.map(tuple) | st.lists(_ints | st.booleans(), max_size=3),
    max_size=4,
)
_flat_dicts = st.dictionaries(_texts, _leaves, max_size=4)
# Dicts whose values are all int lists, empty lists included (target_sets)
_int_list_dicts = st.dictionaries(_texts, _int_lists, min_size=1, max_size=4)
# One-member int lists, the shape of almost every target_sets level, in
# lists and in dicts; a bool member goes through the recursion.
_singles = st.lists(_ints | st.booleans(), min_size=1, max_size=1)
_single_runs = st.lists(_singles, max_size=4) | st.dictionaries(
    _texts, _singles, min_size=1, max_size=4
)
# Lists that repeat one flat dict of bool and int values, some copies with
# each bool read as an int and each int as a bool: equal dicts, such as
# {"a": True} and {"a": 1}, whose texts differ.
_bool_int_dicts = st.dictionaries(
    st.sampled_from("ab"), st.sampled_from([True, False, 0, 1]), min_size=1, max_size=2
)
_repeats = st.tuples(_bool_int_dicts, st.lists(st.booleans(), min_size=2, max_size=5)).map(
    lambda drawn: [
        {k: int(v) if type(v) is bool else bool(v) for k, v in drawn[0].items()} if flip
        else drawn[0]
        for flip in drawn[1]
    ]
)
# Interned records that live across examples, so each is written at the
# depths of earlier draws before those of later ones, in lists of their own
# and beside other members.
_POOL = (
    _Interned(k=0, sign="+", empty=False, passed=True),
    _Interned(k=3, sign="-", empty=True, passed=None),
    _Interned(a=1, b="\u00e9\n", c=False),
    _Interned(a=True),
    _Interned(a=1),
    _Interned(),
)
_interned = st.sampled_from(_POOL)
_trees = st.recursive(
    _leaves | _int_lists | _rows | _flat_dicts | _repeats | _int_list_dicts | _single_runs
    | _interned | st.lists(_interned, min_size=1, max_size=4),
    lambda children: st.lists(children, max_size=4)
    | st.lists(children, max_size=4).map(tuple)
    | st.lists(_flat_dicts | children, max_size=4)
    | st.dictionaries(_texts, children | _int_lists | _int_list_dicts, max_size=4),
    max_leaves=25,
)


@settings(max_examples=150, deadline=None)
@given(_trees)
def test_json_like_trees(tree):
    assert to_json(tree) == json_oracle(tree)


_SHARED = {"a": 1, "b": None}


@pytest.mark.parametrize(
    "tree",
    [
        [{"a": True}, {"a": 1}],
        [{"a": 0}, {"a": False}, {"a": 0}],
        [_SHARED, [_SHARED, {"x": [_SHARED]}], _SHARED],
        [_SHARED, {"a": [1]}, _SHARED, {"a": {"b": 2}}, {"a": 1, "b": None}],
        [{"a": {"b": 1}}, _SHARED, {"a": 1}, _SHARED],
        [{"a": [1, 2]}, {"a": 1, "b": None}, {"a": True}],
        [_SHARED, {"a": 1}, {"b": {"c": [1]}}, _SHARED, {"a": 1}],
        [{"a": True}, {"a": 1}, {"a": [True]}, {"a": 1}, {"a": True}],
        [{"a": 1}, {"a": True}, {"a": {"b": True}}, {"a": True}, {"a": 1}],
    ],
    ids=[
        "true-then-one",
        "zero-false-zero",
        "two-depths",
        "next-to-unhashable",
        "unhashable-first",
        "int-lists-first",
        "unhashable-after-flat",
        "true-one-around-switch-off",
        "one-true-around-switch-off",
    ],
)
def test_flat_dict_memo_traps(tree):
    # Equal dicts that differ in a value's type or in depth are written
    # apart, so no text may be reused on equality: flat dicts come before,
    # after and on both sides of members that hold lists or dicts.
    assert to_json(tree) == json_oracle(tree)


def _interned_contexts(x):
    deep = x
    for _ in range(_FRAMES_DEPTH + 2):
        deep = [deep, 0]
    return {
        "top-level": x,
        "in-a-tuple": (1, x),
        "dict-value": {"a": x, "b": {"c": x}},
        "list-member": [1, x, [x]],
        "only-member": [[x, x]],
        "below-frames-depth": deep,
    }


@pytest.mark.parametrize("first", list(_interned_contexts(None)))
def test_interned_text_depth_traps(first):
    # An interned record keeps one text per depth: written first at any
    # depth, it must still be written right at every other, below the
    # depths it caches too.
    x = _Interned(k=1, sign="-", empty=False, passed=True)
    contexts = _interned_contexts(x)
    for name in (first, *contexts, first):
        assert to_json(contexts[name]) == json_oracle(contexts[name]), name


@pytest.mark.parametrize(
    "tree",
    [
        [[1], [2, 3], (4, 5, 6), [7]],
        [(1, 2), [3, 4], (5, 6), [-7, 10**30]],
        [[1, True], [2, 3]],
        [[2, 3], [True]],
        {"a": [True]},
        [[False]],
        {"x": {"a": [1], "b": [True]}},
        {"x": {"a": [-1], "b": [2], "c": [3, 4], "d": []}},
    ],
    ids=[
        "rows-of-mixed-lengths",
        "tuple-and-list-rows",
        "true-in-a-row",
        "one-member-true-row",
        "one-member-true-value",
        "one-member-false-row",
        "one-member-true-level",
        "one-member-levels",
    ],
)
def test_int_template_traps(tree):
    # Rows go through one %d template per length, which would write True as
    # 1: only rows of exact ints may use them. One-member levels of a dict of
    # int lists skip the join, behind the same exact-int gate.
    assert to_json(tree) == json_oracle(tree)


@pytest.mark.parametrize(
    "tree",
    [
        {"a": [10**5000]},
        {"x": {"a": [10**5000]}},
        [[10**5000]],
        [[1, 10**5000], [2, 3]],
    ],
    ids=["one-member-value", "one-member-level", "one-member-row", "row"],
)
def test_huge_int_fails_as_json_dumps_does(tree):
    # int-to-str conversion is capped at 4,300 digits by default; %d and
    # repr refuse the same ints as json.dumps, with the same exception.
    try:
        text = json_oracle(tree)
    except Exception as error:
        with pytest.raises(type(error)):
            to_json(tree)
    else:
        assert to_json(tree) == text


def _keys(tree):
    if isinstance(tree, dict):
        for key, value in tree.items():
            yield key
            yield from _keys(value)
    elif type(tree) is list:
        for value in tree:
            yield from _keys(value)


def test_field_heads_are_the_record_fields():
    # Every key of an analyze record but its level names ("0+", "1-", ...)
    # has a head in the process-wide table, and the table holds no other.
    keys = set(_keys(analyze_record(build_model(SturmPermutation(PERM15)))))
    levels = {key for key in keys if key[-1] in "+-"}
    assert keys - levels == set(_FIELD_HEADS)
    assert all(head == json_oracle(key)[:-1] + ": " for key, head in _FIELD_HEADS.items())


def test_large_then_small_then_large_record():
    # The process-wide indentation and head tables serve records of any
    # depth and size in any order.
    large = analyze_record(build_model(_suspended(SturmPermutation(PERM7), 47)))
    small = analyze_record(build_model(SturmPermutation(PERM7)))
    for record in (large, small, large):
        assert to_json(record) == json_oracle(record)


_LISTS = {"a": [1, 2], "b": []}


@pytest.mark.parametrize(
    "tree",
    [
        {"x": {"a": [], "b": [1, 2], "c": []}},
        {"x": {"a": [1, True], "b": [2]}},
        {"x": {"a": [1], "b": (2, 3)}},
        {"x": {"a": [1], "b": [2, 3], "c": (4,)}, "y": {"a": ()}},
        {"x": _LISTS, "y": {"z": _LISTS, "w": [_LISTS, {"v": _LISTS}]}},
        {"a": True, "b": {"c": False, "d": {"e": None, "f": [True, None, False]}}},
        [True, [False, [None, {"a": None, "b": [{"c": True}]}]], None],
        True,
        None,
        {"x": {"a": {"b": 1}, "c": 2}},
        {"x": {"a": {"b": 1}, "c": [1, 2]}},
        {"x": {"a": [1], "b": 2}},
        {"x": {"a": [], "b": None}},
        {"x": {"a": [1, 2], "b": [True]}},
        {"x": {"a": 1, "b": [2, 3]}},
        {"x": {"a": None, "b": []}},
        [{"a": True, "b": (1, 2)}, {"a": True, "b": (1, 2)}],
    ],
    ids=[
        "empty-lists",
        "bool-in-list",
        "next-to-tuple",
        "tuples-beside-lists",
        "two-depths",
        "bool-and-null-in-dicts",
        "bool-and-null-in-lists",
        "top-level-bool",
        "top-level-null",
        "dict-then-scalar",
        "dict-then-int-list",
        "list-then-scalar",
        "empty-list-then-null",
        "list-then-bool-list",
        "scalar-then-int-list",
        "null-then-empty-list",
        "scalar-then-tuple-in-flat-dicts",
    ],
)
def test_int_list_dict_and_scalar_traps(tree):
    # A dict of int lists is written in one join only when every value is
    # a list of exact ints; bools and None go through their own encoders.
    # A dict value's first value picks its path (a dict recurses, a list
    # tries the int-list join, anything else the scalar join), and a later
    # value of another kind sends the whole dict through the recursion.
    assert to_json(tree) == json_oracle(tree)


class _Level(IntEnum):
    ONE = 1


def test_int_enum_is_refused():
    # json.dumps writes an IntEnum member as its int value; to_json refuses
    # it, as it refuses every type beyond the documented ones, also inside
    # a dict of int lists.
    trees = (
        {"x": _Level.ONE},
        {"x": {"a": [1, _Level.ONE]}},
        [[1, _Level.ONE]],
        # %d would write a member as its int value
        {"a": [_Level.ONE]},
        [[_Level.ONE, 2]],
    )
    for tree in trees:
        assert json_oracle(tree)
        with pytest.raises(TypeError):
            to_json(tree)


_MUTATORS = {
    "setitem": lambda d: d.__setitem__("k", 0),
    "delitem": lambda d: d.__delitem__("k"),
    "ior": lambda d: d.__ior__({"k": 0}),
    "update": lambda d: d.update(k=0),
    "pop": lambda d: d.pop("k"),
    "popitem": lambda d: d.popitem(),
    "clear": lambda d: d.clear(),
    "setdefault": lambda d: d.setdefault("k", 0),
}


def _containers(tree):
    # every dict, list and tuple of a tree
    if isinstance(tree, (dict, list, tuple)):
        yield tree
        for value in tree.values() if isinstance(tree, dict) else tree:
            yield from _containers(value)


def test_record_shares_only_read_only_entries():
    record = analyze_record(build_model(_suspended(SturmPermutation(PERM7), 12)))
    bases = record["minimax"]
    extended = [level for mm in bases for level in mm["extended"]]
    # every extended level and every one-member top level is an interned
    # record, shared between bases, and none of them can be changed
    assert all(type(level) is _Interned for level in extended)
    assert all(
        (type(entry) is _Interned) == (len(mm["target_sets"][key]) == 1)
        for mm in bases
        for key, entry in mm["minimax"].items()
    )
    shared = {id(c): c for c in _containers(record) if type(c) is _Interned}
    assert len(shared) < len(extended)
    for entry in shared.values():
        before = dict(entry)
        for name, mutate in _MUTATORS.items():
            with pytest.raises(TypeError):
                mutate(entry)
            assert entry == before, name
    # the rest is the record's own
    target_lists = [ws for mm in bases for ws in mm["target_sets"].values()]
    verdicts = [v for mm in bases for v in mm["verdicts"].values()]
    larger = [e for mm in bases for e in mm["minimax"].values() if type(e) is not _Interned]
    assert larger
    for own in (target_lists, verdicts, larger):
        assert len({*map(id, own)}) == len(own)
    text = to_json(record)
    assert text == json_oracle(record)
    # a copy holds plain dicts only, and an edit to it shows in its text
    for copied in (copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert copied == record
        assert {type(c) for c in _containers(copied)} == {dict, list, tuple}
        copied["minimax"][0]["extended"][0]["passed"] = "edited"
        assert to_json(copied) == json_oracle(copied) != text
    # a plain dict in an entry's place is written as it is
    level = dict(extended[0], passed="edited")
    bases[0]["extended"][0] = level
    assert to_json(record) == json_oracle(record) != text


@pytest.mark.parametrize("times", [(1, 12, 1), (12, 1, 12)], ids=["small-first", "large-first"])
def test_interned_tables_in_either_order(monkeypatch, times):
    # The tables of interned records grow with the largest report written
    # so far, so a model gets the same records after a larger model as
    # after a smaller one; monkeypatch puts the grown tables back after.
    monkeypatch.setattr(sturm.report._EXTENDED, "items", ())
    monkeypatch.setattr(sturm.report._ONE_MEMBER, "items", ())
    for t in times:
        model = build_model(_suspended(SturmPermutation(PERM7), t))  # n = 9 or 31
        for base in model.unstable():
            report = minimax_report(model, base)
            record = minimax_record(report)
            assert _same_record(record, asdict_minimax_record(report)), (t, base)
            assert to_json(record) == json_oracle(record), (t, base)
    # two levels per Morse number of the top base at n = 31, 14
    assert len(sturm.report._EXTENDED.items) == 2 * 14


@pytest.mark.parametrize(
    "record",
    [
        {"x": 1.5},
        [1, 2.0],
        {"x": np.int64(3)},
        [np.int64(3)],
        {1: "a"},
        {"x": {None: 1}},
        {"x": {1, 2}},
        [{"a": 1}, {2: "b"}],
        [{"a": 1}, {"b": 2.5}],
        [[1, 2], (3, 4.0)],
        {"x": [1, 2.5]},
        [{"a": 1}, {"a": 1.0}],
        [{"a": [1]}, {"a": 1}, {"a": 1.0}],
        {"x": {"a": [1], 2: [3]}},
        {"x": {"a": [], None: []}},
        {"n": 1, 2: 3},
        {"x": {"passed": True, None: 1}},
        {"x": {"n": [1], 3: [2]}},
        [{"passed": False, 4: 1}],
        {"a": [1.0]},
        {"x": {"a": [1], "b": [2.5]}},
        [[1.5, 2], [3, 4]],
    ],
    ids=[
        "float",
        "float-in-int-list",
        "numpy-int",
        "numpy-int-in-list",
        "int-key",
        "none-key",
        "set",
        "int-key-in-flat-dicts",
        "float-in-flat-dicts",
        "float-in-int-pairs",
        "float-in-int-list-value",
        "float-after-equal-int-in-flat-dicts",
        "float-after-unhashable-in-flat-dicts",
        "int-key-beside-int-lists",
        "none-key-beside-empty-lists",
        # the heads of the record field names are copied in at every call
        "int-key-beside-field-name",
        "none-key-beside-field-name-in-flat-dict",
        "int-key-beside-field-name-in-int-lists",
        "int-key-beside-field-name-in-flat-dicts",
        # %d would truncate a float
        "float-one-member-value",
        "float-one-member-level",
        "float-in-row",
    ],
)
def test_unsupported_types_raise(record):
    with pytest.raises(TypeError):
        to_json(record)
