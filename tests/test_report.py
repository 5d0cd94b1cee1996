"""Byte pins of the JSON reports.

Each digest is the SHA-256 of a serialized report. A change to any field,
key order, value or whitespace of ``analyze`` or ``minimax`` output
changes it, so refactors of the analysis or the serializer must keep
these literals.
"""
import hashlib

import pytest

from conftest import PERM15, PERM7, _suspended
from sturm import SturmPermutation, build_model, minimax_report
from sturm.report import analyze_record, minimax_record, to_json


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize(
    "perm, times, digest",
    [
        (PERM7, 0, "6e4c25d54b7656c38df0ad41a00d5fb54316f197d67fce471e319fe84b38caaa"),
        (PERM15, 0, "e83defaaaeaac0c4f96ba855d9a593bab0316f35c340e3926f7bd3de6c6ff888"),
        # the n=31 member of the suspension chain
        (PERM7, 12, "52f3809e141dd288b1e66ba421e8a85a5dc82baee8f73aa208cd788027281941"),
    ],
    ids=["n7", "n15", "n31"],
)
def test_analyze_bytes_pinned(perm, times, digest):
    p = _suspended(SturmPermutation(perm), times)
    assert _sha256(to_json(analyze_record(build_model(p)))) == digest


def test_minimax_bytes_pinned(model7):
    text = to_json(minimax_record(minimax_report(model7, 3)))
    assert _sha256(text) == "18d7ab8f52710c57a7dc21d3a64278c90ca95ba35d74e8cfd4fa29e87b757bfc"
