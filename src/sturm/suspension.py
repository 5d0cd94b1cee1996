"""Meander suspension: two new extreme equilibria, inner indices up one.

Suspending rotates the whole crossing block by a half turn and brackets
it with a new first and last crossing. Inner labels shift by one, every
inner Morse number grows by one, every inner zero number grows by one,
and the connection structure between inner equilibria is preserved, so
the suspended attractor carries a faithful copy of the original one
strung between the two new extreme equilibria.
"""
from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple, Optional

from .meander import is_sturm
from .perm import SturmPermutation, _check_labels, _require_sturm

if TYPE_CHECKING:
    # The attractor loads only for verification, so suspending alone
    # (``sturm suspend``) does not import it.
    from .attractor import Analysis

__all__ = ["SuspensionResult", "suspend", "CheckItem", "SuspensionReport", "verify_suspension"]


class SuspensionResult(NamedTuple):
    """Original and suspended permutation; inner label j maps to j + 1."""

    original: SturmPermutation
    suspended: SturmPermutation

    def inner_image(self, j: int) -> int:
        _check_labels(self.original.n, j=j)
        return j + 1


def suspend(p: SturmPermutation) -> SuspensionResult:
    """Suspend a Sturm permutation; the result is Sturm again.

    >>> suspend(SturmPermutation((1, 4, 5, 6, 3, 2, 7))).suspended.map
    (1, 8, 3, 4, 7, 6, 5, 2, 9)
    >>> suspend(SturmPermutation((1,))).suspended.map
    (1, 2, 3)
    """
    _require_sturm(p)
    return SuspensionResult(original=p, suspended=SturmPermutation(_suspend_labels(p.map)))


def _suspend_labels(m: tuple[int, ...], times: int = 1) -> tuple[int, ...]:
    # The label tuple of `times` suspensions in closed form; no gate, no
    # permutation built. Each one reverses the block and brackets it.
    big = len(m) + 2 * times
    head = tuple(i + 1 if i % 2 == 0 else big - i for i in range(times))
    core = tuple(v + times for v in (reversed(m) if times % 2 else m))
    tail = tuple(big - i if i % 2 == 0 else i + 1 for i in reversed(range(times)))
    return head + core + tail


class CheckItem(NamedTuple):
    name: str
    passed: bool
    detail: Optional[str] = None


class SuspensionReport(NamedTuple):
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
    the target sets and minimax equilibria of every unstable equilibrium
    correspond under the shift, at every signed level.
    """
    from .attractor import _analyze

    result = suspend(p)
    items = _suspension_items(_analyze(p), _analyze(result.suspended))
    return SuspensionReport(result=result, items=items)


def _suspension_items(analysis_p: Analysis, analysis_q: Analysis) -> tuple[CheckItem, ...]:
    # The checks of verify_suspension, read from the analyses of p and q.
    from .attractor import _levels

    (model_p, reports_p), (model_q, reports_q) = analysis_p, analysis_q
    p, q = model_p.p, model_q.p
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

    zp, zq = model_p.z, model_q.z
    pairs = ((j, k) for j in range(1, n + 1) for k in range(j + 1, n + 1))
    bad_pair = next(((j, k) for j, k in pairs if zq.pair(j + 1, k + 1) != zp.pair(j, k) + 1), None)
    items.append(
        _check("inner zero numbers shift by one", bad_pair is None, f"first mismatch at {bad_pair}")
    )

    extremes_ok = all(zq.pair(1, k) == 0 for k in range(2, n + 3)) and all(
        zq.pair(j, n + 2) == 0 for j in range(1, n + 2)
    )
    items.append(_check("zero numbers against the extremes vanish", extremes_ok))

    inner = set(range(2, n + 2))
    inner_edges = {(j, k) for (j, k) in model_q.edges() if j in inner and k in inner}
    shifted = {(j + 1, k + 1) for (j, k) in model_p.edges()}
    items.append(
        _check(
            "inner connection graph is preserved",
            inner_edges == shifted,
            f"difference {sorted(inner_edges ^ shifted)[:4]}",
        )
    )

    # Every signed level of each unstable base, shifted up one; level 0
    # of the suspended base holds only the new extremes.
    bad = None
    for base, report in reports_p.items():
        want = _levels(report, relabel=lambda w: w + 1, shift=1)
        got = _levels(reports_q[base + 1])
        for key in ("0+", "0-"):
            got.pop(key, None)
        if want != got:
            keys = sorted(key for key in want.keys() | got.keys() if want.get(key) != got.get(key))
            bad = f"levels {', '.join(keys)} of {base}"
            break
    items.append(_check("target sets and minimax equilibria correspond", bad is None, bad))

    return tuple(items)
