"""Structured report assembly and serialization (JSON and DOT).

The analyze report is a single hierarchical document with fixed field
names and 1-based arrays (declared by the explicit ``index_base`` field)
so golden tests can compare bytes. Dictionaries are built in the
documented key order and serialized without re-sorting.
"""
from __future__ import annotations

import json
from typing import Any

from .attractor import AttractorModel, MinimaxReport, minimax_report

__all__ = ["minimax_record", "analyze_record", "to_json", "dot_graph"]


def minimax_record(report: MinimaxReport) -> dict[str, Any]:
    """JSON-ready record of one equilibrium's minimax analysis."""
    top = report.n - 1
    verdicts = {}
    for case in report.cases:
        record: dict[str, Any] = {
            "neighbor": case.neighbor,
            "applicable": case.applicable,
        }
        if case.applicable:
            record.update(
                {
                    "sign": case.sign,
                    "iota": case.iota,
                    "closest": case.closest,
                    "farthest_opposite": case.farthest_opposite,
                    "neighbor_is_closest": case.neighbor_is_closest,
                    "passed": case.passed,
                }
            )
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
        "z_matrix": model.z.values.tolist(),
        "connections": sorted(model.connections),
        "minimax": [minimax_record(minimax_report(model, j)) for j in model.unstable()],
    }


def to_json(record: dict[str, Any]) -> str:
    return json.dumps(record, indent=2) + "\n"


def dot_graph(model: AttractorModel) -> str:
    """Connection digraph in DOT form, nodes in label order."""
    lines = ["digraph attractor {"]
    for j in range(1, model.n + 1):
        lines.append(f'  {j} [label="{j} i={model.morse[j - 1]}"];')
    for j, k in sorted(model.connections):
        lines.append(f"  {j} -> {k};")
    lines.append("}")
    return "\n".join(lines) + "\n"
