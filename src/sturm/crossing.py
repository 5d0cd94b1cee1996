"""Crossing numbers and the pairwise zero-number kernel.

Crossing counts and the pairwise zero-number identity share one kernel
over a sequence of axis coordinates with an anchor Morse parity:
:func:`crossing_number` runs it over axis positions with anchor 0,
``zeros.z_pair_nsl`` over the same positions, and ``window.window_z``
over the axis ranks of a window with the window's anchor Morse number.
The kernel sums a run of steps in telescoped form: two end terms plus,
for each parity class of the interior labels, one count of the labels
left of the line over a stride-2 slice, so a pair costs two C-level
passes instead of one Python step per arc.

The descending recursion of ``zeros.z_matrix`` stays an independent
route that the kernel is checked against. It starts each row from the
zero boundary value at label n and adds one step at a time downward,
while the kernel starts from the Morse number of the lower label and
counts the segment above it in one piece. The two share no code; only
the Morse numbers come from :mod:`sturm.perm`.

This module is apart from :mod:`sturm.meander` so that the commands that
only draw or test a meander do not load it.
"""
from __future__ import annotations

from itertools import repeat
from operator import lt
from typing import NamedTuple, Sequence

from .perm import SturmPermutation, _check_int


class CrossingCount(NamedTuple):
    """Net clockwise crossings of a curve segment with a vertical line."""

    value: int
    j: int
    k: int
    ell: int


def _twice_run(xs: Sequence[int], anchor: int, a: int, b: int, x: int) -> int:
    """Twice the signed crossings of the steps a..b-1 with the vertical
    line at axis coordinate ``x``, where no label a..b sits at ``x``.

    With e(m) = +1 for odd ``anchor + m`` and -1 otherwise, step m adds
    e(m) (d(m+1) - d(m)), where d(t) is the side of label t: +1 right of
    the line, -1 left of it, never 0 in the run. Since e(m) = -e(m-1)
    the sum telescopes to the two end terms e(b-1) d(b) - e(a) d(a) plus
    2 e(t-1) d(t) for each interior label t = a+1..b-1. The interior
    labels of one parity share their weight, so each class sums to its
    size minus twice its count left of the line: one C-level count over a
    stride-2 slice of ``xs``.
    """
    if a >= b:
        return 0
    left_first = sum(map(lt, xs[a : b - 1 : 2], repeat(x)))  # labels a+1, a+3, ...: e(a)
    left_second = sum(map(lt, xs[a + 1 : b - 1 : 2], repeat(x)))  # labels a+2, ...: -e(a)
    # The interior sum over e(a): the first class has (b - a + 1) % 2 more labels.
    inner = (b - a + 1) % 2 - 2 * (left_first - left_second)
    d_a = 1 if xs[a - 1] > x else -1
    d_b = 1 if xs[b - 1] > x else -1
    # Over e(a) as well; e(b-1) = e(a) exactly when b - a is odd.
    twice = (d_b if (b - a) % 2 else -d_b) - d_a + 2 * inner
    return twice if (anchor + a) % 2 else -twice


def _crossings(xs: Sequence[int], anchor: int, lo: int, hi: int, ell: int) -> int:
    """Signed crossings of the curve steps lo..hi-1 (lo <= hi) with the
    vertical line through the crossing labeled ell.

    ``xs[t-1]`` is the axis coordinate of label t: an axis position, or a
    rank among the labels of a window. Step m is oriented as in the Morse
    recursion, clockwise when ``anchor + m`` is odd. Steps whose arc ends
    at ell (steps ell - 1 and ell) contribute nothing: touching the line
    at the crossing itself is not a transverse crossing. They split the
    segment into at most two runs, one below ell and one above it, and
    each run is summed in the telescoped form of :func:`_twice_run`.
    """
    x = xs[ell - 1]
    doubled = _twice_run(xs, anchor, lo, min(hi, ell - 1), x) + _twice_run(
        xs, anchor, max(lo, ell + 1), hi, x
    )
    assert doubled % 2 == 0, "crossing count must be an integer"
    return doubled // 2


def _pair_zero(xs: Sequence[int], morse: Sequence[int], s: int, t: int) -> int:
    """Zero number z(v_t - v_s) of labels s < t by the nonlinear
    Sturm-Liouville identity: the Morse number of s plus the crossings
    of the segment s..t with the line at s, minus one when the Morse
    number falls across step s ("even" quadrant parity).

    ``morse[0]`` anchors the orientation; ``xs`` as in :func:`_crossings`.
    Step s ends at the line, so the crossings are the one run s+1..t-1.
    """
    doubled = _twice_run(xs, morse[0], s + 1, t, xs[s - 1])
    assert doubled % 2 == 0, "crossing count must be an integer"
    value = morse[s - 1] + doubled // 2
    return value - 1 if morse[s] < morse[s - 1] else value


def crossing_number(p: SturmPermutation, j: int, k: int, ell: int) -> CrossingCount:
    """Signed crossings of the curve segment from label j to label k
    with the vertical line through the crossing labeled ell.

    Clockwise crossings count +1, counter-clockwise -1, crossings at ell
    itself are ignored, and reversing the segment negates the count.

    >>> p = SturmPermutation((1, 4, 5, 6, 3, 2, 7))
    >>> crossing_number(p, 1, 7, 4).value
    1
    >>> crossing_number(p, 7, 1, 4).value
    -1
    """
    _check_int(j, "label j", 1, p.n)
    _check_int(k, "label k", 1, p.n)
    _check_int(ell, "label ell", 1, p.n)
    value = _crossings(p.inv, 0, min(j, k), max(j, k), ell)
    return CrossingCount(value=-value if j > k else value, j=j, k=k, ell=ell)
