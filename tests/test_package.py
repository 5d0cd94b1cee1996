import importlib
import inspect
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import sturm

ROOT = Path(__file__).resolve().parents[1]


def test_public_names_are_the_submodule_objects():
    for name in sturm.__all__:
        module = importlib.import_module(f"sturm.{sturm._MODULE_OF[name]}")
        assert getattr(sturm, name) is getattr(module, name), name


def test_exports_name_every_public_definition():
    # ``_EXPORTS`` is the one list of public names: every function and
    # class a submodule defines without a leading underscore is in it,
    # every name in it is an attribute of its submodule, and no submodule
    # keeps a second list in ``__all__``. ``cli`` and the ``_``-prefixed
    # modules (``__main__``, ``_help``) define no public API.
    api = sorted(
        m.name
        for m in pkgutil.iter_modules(sturm.__path__)
        if m.name != "cli" and not m.name.startswith("_")
    )
    assert sorted(sturm._EXPORTS) == api
    for name in api:
        module = importlib.import_module(f"sturm.{name}")
        exported = set(sturm._EXPORTS[name])
        defined = {
            attr
            for attr, value in vars(module).items()
            if not attr.startswith("_")
            and (inspect.isfunction(value) or inspect.isclass(value))
            and value.__module__ == module.__name__
        }
        assert defined <= exported, (name, sorted(defined - exported))
        assert all(hasattr(module, attr) for attr in exported), name
        assert not hasattr(module, "__all__"), name


def test_star_import_binds_all_public_names():
    namespace = {}
    exec("from sturm import *", namespace)
    assert set(sturm.__all__) <= namespace.keys()


def test_dir_lists_public_names():
    assert set(sturm.__all__) <= set(dir(sturm))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        sturm.no_such_name


def test_bare_import_loads_no_submodule_and_reaches_them_by_attribute():
    # A fresh interpreter, since this one has every submodule loaded.
    probe = (
        "import sys, sturm\n"
        "assert not [m for m in sys.modules if m.startswith('sturm.')]\n"
        "assert sturm.zeros.z_matrix(sturm.perm.identity(3)).values[0] == (0, 0, 0)\n"
    )
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def _int_parameters():
    # "qualname.parameter" for every parameter annotated int of the public
    # functions and methods, but not of the generated constructors of the
    # NamedTuple records, which only store their fields.
    found = set()
    for name in sturm.__all__:
        obj = getattr(sturm, name)
        if inspect.isfunction(obj):
            callables = [(name, obj)]
        elif inspect.isclass(obj):
            callables = [
                (f"{name}.{attr}", getattr(value, "__func__", value))
                for attr, value in vars(obj).items()
                if inspect.isfunction(getattr(value, "__func__", value))
                and not (attr == "__new__" and hasattr(obj, "_fields"))
            ]
        else:
            continue
        for qualname, function in callables:
            for param in inspect.signature(function).parameters.values():
                if param.annotation in ("int", int):
                    found.add(f"{qualname}.{param.name}")
    return found


def test_every_int_argument_has_a_gate_row():
    # A new API with an int argument fails here until the gate table of
    # tests/test_perm.py gets a row for it, so no argument skips the gate.
    from test_perm import _INT_ARGS

    rows = {row[0] for row in _INT_ARGS.values()}
    assert _int_parameters() | {"RenderStyle.scale"} == rows


def _annotation_words(obj):
    # The words of a public name's annotations: a function's return type,
    # a class's fields and its properties' return types. Under postponed
    # evaluation each annotation is a string.
    if inspect.isfunction(obj):
        notes = [inspect.get_annotations(obj).get("return", "")]
    elif inspect.isclass(obj):
        notes = list(inspect.get_annotations(obj).values()) + [
            inspect.get_annotations(value.fget).get("return", "")
            for value in vars(obj).values()
            if isinstance(value, property)
        ]
    else:
        return set()
    return {word for note in notes for word in re.findall(r"\w+", str(note))}


def test_every_public_name_has_a_caller():
    # A public name is reached when code outside its own module uses it:
    # another module of the package (not __init__.py), a demo, the
    # benchmark or the README. It is also reached when it appears in the
    # annotations of a reached name, as a record a reached function returns.
    # Tests alone do not keep a name public.
    sources = {
        path: path.read_text()
        for pattern in ("src/sturm/*.py", "demos/*.py", "perfbench/*.py", "README.md")
        for path in ROOT.glob(pattern)
        if path.name != "__init__.py"
    }
    reached = {
        name
        for name, module in sturm._MODULE_OF.items()
        if any(
            re.search(rf"\b{name}\b", text)
            for path, text in sources.items()
            if path != ROOT / "src" / "sturm" / f"{module}.py"
        )
    }
    frontier = set(reached)
    while frontier:
        words = set().union(*(_annotation_words(getattr(sturm, name)) for name in frontier))
        frontier = (words & sturm._MODULE_OF.keys()) - reached
        reached |= frontier
    unreached = sorted(sturm._MODULE_OF.keys() - reached)
    assert not unreached, f"public names with no caller: {', '.join(unreached)}"
