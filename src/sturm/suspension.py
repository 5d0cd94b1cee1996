"""Meander suspension: two new extreme equilibria, inner indices up one.

Suspending rotates the whole crossing block by a half turn and brackets
it with a new first and last crossing. Inner labels shift by one, every
inner Morse number grows by one, every inner zero number grows by one,
and the connection structure between inner equilibria is preserved, so
the suspended attractor carries a faithful copy of the original one
strung between the two new extreme equilibria.

:func:`suspend` gates its input once and returns a suspension that is
already trusted as Sturm, so no later gate tests it again;
:func:`verify_suspension` still proves the law with
:func:`sturm.meander.is_sturm`. The signed levels are compared by index:
level k of base b in p, members and extrema one label up, is level
k + 1 of base b + 1 in the suspension, whose level 0 holds just the two
new extremes; a stable b of p becomes a base b + 1 of Morse number 1 in
the suspension, whose one level is that level 0.
"""
from __future__ import annotations

from itertools import zip_longest
from typing import TYPE_CHECKING, NamedTuple, Optional

from .meander import is_sturm
from .perm import SturmPermutation, _derived, _require_sturm

if TYPE_CHECKING:
    # The attractor loads only for verification, so suspending alone
    # (``sturm suspend``) does not import it.
    from .attractor import Analysis


class SuspensionResult(NamedTuple):
    """Original and suspended permutation; inner label j maps to j + 1."""

    original: SturmPermutation
    suspended: SturmPermutation


def suspend(p: SturmPermutation) -> SuspensionResult:
    """Suspend a Sturm permutation; the result is Sturm again.

    >>> suspend(SturmPermutation((1, 4, 5, 6, 3, 2, 7))).suspended.map
    (1, 8, 3, 4, 7, 6, 5, 2, 9)
    >>> suspend(SturmPermutation((1,))).suspended.map
    (1, 2, 3)
    """
    _require_sturm(p)
    return SuspensionResult(original=p, suspended=_derived(_suspend_labels(p.map)))


def _suspend_labels(m: tuple[int, ...], times: int = 1) -> tuple[int, ...]:
    # The label tuple of `times` suspensions in closed form; no gate, no
    # permutation built. Each one reverses the block and brackets it.
    big = len(m) + 2 * times
    head = tuple(i + 1 if i % 2 == 0 else big - i for i in range(times))
    core = tuple(v + times for v in (reversed(m) if times % 2 else m))
    tail = tuple(big - i if i % 2 == 0 else i + 1 for i in reversed(range(times)))
    return head + core + tail


class CheckItem(NamedTuple):
    """One suspension law, whether it held, and a detail when it failed."""

    name: str
    passed: bool
    detail: Optional[str] = None


class SuspensionReport(NamedTuple):
    """The suspension of a permutation and its itemized law checks."""

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
    the target sets and minimax equilibria of every inner equilibrium of
    the suspension correspond under the shift, at every signed level.
    """
    from .attractor import _analyze

    result = suspend(p)
    items = _suspension_items(_analyze(p), _analyze(result.suspended))
    return SuspensionReport(result=result, items=items)


def _suspension_items(analysis_p: Analysis, analysis_q: Analysis) -> tuple[CheckItem, ...]:
    # The checks of verify_suspension, read from the analyses of p and q.
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

    # Row j of q's inner block, right of the diagonal, against row j of p
    # plus one; the first bad row names the first bad pair in row-major order.
    vp, vq = model_p.z.values, model_q.z.values
    bad_pair = None
    for j in range(1, n + 1):
        got, want = vq[j][j + 1 : n + 1], vp[j - 1][j:]
        if got != tuple([v + 1 for v in want]):
            k = next(k for k, g, w in zip(range(j + 1, n + 1), got, want) if g != w + 1)
            bad_pair = (j, k)
            break
    items.append(
        _check("inner zero numbers shift by one", bad_pair is None, f"first mismatch at {bad_pair}")
    )

    # Row 1 and column n + 2 of q, off the diagonal.
    extremes_ok = not any(vq[0][1:]) and not any(row[-1] for row in vq[:-1])
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

    # Level k of base b in p, members and extrema one label up, is level
    # k + 1 of base b + 1 in q, and level 0 of q holds just the new
    # extremes, so a stable b of p leaves b + 1 that level only. The levels
    # are compared in order as (members, extrema), with no extrema for an
    # empty level.
    extremes = [((n + 2,), (n + 2,) * 4), ((1,), (1,) * 4)]
    bad = None
    for base in range(1, n + 1):
        report, report_q = reports_p.get(base), reports_q.get(base + 1)
        want = extremes
        if report is not None:
            ex_p = report.extrema
            want = extremes + [
                (tuple([w + 1 for w in ws]), tuple([w + 1 for w in ex_p.get(key, ())]))
                for key, ws in report.target_sets.items()
            ]
        got = []
        if report_q is not None:
            ex_q = report_q.extrema
            got = [(ws, ex_q.get(key, ())) for key, ws in report_q.target_sets.items()]
        if want != got:
            levels = enumerate(zip_longest(want, got))
            keys = sorted(f"{i // 2}{'+-'[i % 2]}" for i, (w, g) in levels if w != g)
            bad = f"levels {', '.join(keys)} of {base}"
            break
    items.append(_check("target sets and minimax equilibria correspond", bad is None, bad))

    return tuple(items)
