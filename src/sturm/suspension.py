"""Meander suspension: two new extreme equilibria, inner indices up one.

Suspending rotates the whole crossing block by a half turn and brackets
it with a new first and last crossing. Inner labels shift by one, every
inner Morse number grows by one, every inner zero number grows by one,
and the connection structure between inner equilibria is preserved, so
the suspended attractor carries a faithful copy of the original one
strung between the two new extreme equilibria.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .attractor import build_model, minimax, target_set
from .meander import is_sturm
from .perm import SturmPermutation, _require_sturm
from .zeros import z_matrix

__all__ = ["SuspensionResult", "suspend", "CheckItem", "SuspensionReport", "verify_suspension"]


@dataclass(frozen=True)
class SuspensionResult:
    """Original and suspended permutation; inner label j maps to j + 1."""

    original: SturmPermutation
    suspended: SturmPermutation

    def inner_image(self, j: int) -> int:
        if not 1 <= j <= self.original.n:
            raise ValueError(f"label {j} out of range 1..{self.original.n}")
        return j + 1


def suspend(p: SturmPermutation) -> SuspensionResult:
    """Suspend a Sturm permutation; the result is Sturm again.

    >>> suspend(SturmPermutation((1, 4, 5, 6, 3, 2, 7))).suspended.map
    (1, 8, 3, 4, 7, 6, 5, 2, 9)
    >>> suspend(SturmPermutation((1,))).suspended.map
    (1, 2, 3)
    """
    _require_sturm(p)
    n = p.n
    inner = tuple(p.sigma(n + 1 - j) + 1 for j in range(1, n + 1))
    return SuspensionResult(
        original=p, suspended=SturmPermutation((1,) + inner + (n + 2,))
    )


@dataclass(frozen=True)
class CheckItem:
    name: str
    passed: bool
    detail: Optional[str] = None


@dataclass(frozen=True)
class SuspensionReport:
    result: SuspensionResult
    items: tuple[CheckItem, ...]

    @property
    def passed(self) -> bool:
        return all(item.passed for item in self.items)


def _check(name: str, ok: bool, detail: str | None = None) -> CheckItem:
    return CheckItem(name=name, passed=ok, detail=None if ok else detail)


def verify_suspension(p: SturmPermutation) -> SuspensionReport:
    """Itemized verification of the suspension laws on one permutation.

    Checks, in order: the suspension validates as Sturm; the two new
    extremes are stable; inner Morse numbers shift by one; inner zero
    numbers shift by one; the zero numbers against the extremes vanish;
    the inner connection graphs are isomorphic under the label shift; and
    the top-level target sets and minimax equilibria of every unstable
    equilibrium correspond under the shift.
    """
    result = suspend(p)
    q = result.suspended
    n = p.n
    items: list[CheckItem] = []

    items.append(_check("suspension is Sturm", is_sturm(q)))
    mq = q.morse
    items.append(
        _check(
            "extreme Morse numbers vanish",
            mq[0] == 0 and mq[-1] == 0,
            f"got {mq[0]}, {mq[-1]}",
        )
    )
    shift_ok = all(mq[j] == p.morse[j - 1] + 1 for j in range(1, n + 1))
    items.append(_check("inner Morse numbers shift by one", shift_ok, f"{mq}"))

    zp = z_matrix(p)
    zq = z_matrix(q)
    bad_pair = None
    for j in range(1, n + 1):
        for k in range(j + 1, n + 1):
            if zq.pair(j + 1, k + 1) != zp.pair(j, k) + 1:
                bad_pair = (j, k)
                break
        if bad_pair:
            break
    items.append(
        _check("inner zero numbers shift by one", bad_pair is None, f"first mismatch at {bad_pair}")
    )

    extremes_ok = all(zq.pair(1, k) == 0 for k in range(2, n + 3)) and all(
        zq.pair(j, n + 2) == 0 for j in range(1, n + 2)
    )
    items.append(_check("zero numbers against the extremes vanish", extremes_ok))

    model_p = build_model(p)
    model_q = build_model(q)
    inner = set(range(2, n + 2))
    inner_edges = {(j, k) for (j, k) in model_q.connections if j in inner and k in inner}
    shifted = {(j + 1, k + 1) for (j, k) in model_p.connections}
    items.append(
        _check(
            "inner connection graph is preserved",
            inner_edges == shifted,
            f"difference {sorted(inner_edges ^ shifted)[:4]}",
        )
    )

    correspondence_ok = True
    detail = None
    for base in model_p.unstable():
        nb = model_p.morse[base - 1]
        for sign in ("+", "-"):
            original = target_set(model_p, base, nb - 1, sign)
            suspended = target_set(model_q, base + 1, nb, sign)
            if {w + 1 for w in original} != suspended:
                correspondence_ok = False
                detail = f"target set {nb - 1}{sign} of {base}"
                break
            if original:
                ex_p = minimax(model_p, base, nb - 1, sign)
                ex_q = minimax(model_q, base + 1, nb, sign)
                if tuple(w + 1 for w in ex_p) != tuple(ex_q):
                    correspondence_ok = False
                    detail = f"minimax {nb - 1}{sign} of {base}"
                    break
        if not correspondence_ok:
            break
    items.append(
        _check("target sets and minimax equilibria correspond", correspondence_ok, detail)
    )

    return SuspensionReport(result=result, items=tuple(items))
