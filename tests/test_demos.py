"""Every demo script runs to completion.

The demos run in-process with ``runpy`` (a subprocess each would add an
interpreter start-up and the package import per demo), from a temporary
working directory so that files they write stay out of the source tree.
"""
import runpy
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def test_demos_found():
    # an empty glob would leave the parametrized test with nothing to run
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_completes(demo, monkeypatch, tmp_path, capsys):
    monkeypatch.chdir(tmp_path)
    runpy.run_path(str(demo), run_name="__main__")
    assert capsys.readouterr().out
