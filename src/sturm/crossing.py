"""Crossing numbers from one cached prefix-crossing kernel.

:func:`_prefix_line` counts, for the vertical line through one label and
for every m, the signed crossings of the curve steps 1..m with that line,
over a sequence of axis coordinates with an anchor Morse parity. Its
three readers take differences of two entries of a line:
:func:`crossing_number` over axis positions with anchor 0,
``zeros.z_pair_nsl`` over the same positions, and ``window.window_z``
over the axis ranks of a window with the window's anchor Morse number.
A permutation keeps each line it has built in a private cached slot, so
a line costs one C-level pass per label, once.

The kernel counts in half-steps: with g(t) = 1 when label t sits right
of the line and 0 otherwise, step m adds e(m) (g(m+1) - g(m)), where
e(m) = +1 for odd ``anchor + m`` and -1 otherwise. That is half the
change of side d(t) = 2 g(t) - 1, so each step adds an integer and no
odd doubled count can arise; the older doubled form needed an assert on
its parity, which the half-step form has nothing left for.

The descending recursion of ``zeros.z_matrix`` stays an independent
route that the kernel is checked against. It starts each row from the
zero boundary value at label n and adds one step at a time downward,
while the kernel starts from the Morse number of the lower label and
reads the segment above it off one line. The two share no code; only
the Morse numbers come from :mod:`sturm.perm`.

This module is apart from :mod:`sturm.meander` so that the commands that
only draw or test a meander do not load it.
"""
from __future__ import annotations

from itertools import accumulate, cycle, repeat
from operator import gt, mul, sub
from typing import NamedTuple, Sequence

from .perm import SturmPermutation, _check_int


class CrossingCount(NamedTuple):
    """Net clockwise crossings of a curve segment with a vertical line."""

    value: int
    j: int
    k: int
    ell: int


def _prefix_line(xs: Sequence[int], anchor: int, ell: int) -> tuple[int, ...]:
    """Signed crossings of the curve steps 1..m with the vertical line
    through the crossing labeled ell, at index m = 0..len(xs) - 1.

    ``xs[t-1]`` is the axis coordinate of label t: an axis position, or a
    rank among the labels of a window. Step m is oriented as in the Morse
    recursion, clockwise when ``anchor + m`` is odd. Steps whose arc ends
    at ell (steps ell - 1 and ell) count 0: touching the line at the
    crossing itself is not a transverse crossing. The steps lo..hi-1 thus
    cross the line ``line[hi - 1] - line[lo - 1]`` times.
    """
    right = list(map(gt, xs, repeat(xs[ell - 1])))
    steps = list(map(mul, map(sub, right[1:], right), cycle((-1, 1) if anchor % 2 else (1, -1))))
    if ell > 1:
        steps[ell - 2] = 0
    if ell < len(xs):
        steps[ell - 1] = 0
    return tuple(accumulate(steps, initial=0))


def _line(p: SturmPermutation, ell: int) -> tuple[int, ...]:
    # The prefix line of label ell over p's axis positions, built on first use.
    lines = p._lines
    line = lines.get(ell)
    if line is None:
        line = lines[ell] = _prefix_line(p.inv, 0, ell)
    return line


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
    line = _line(p, ell)
    return CrossingCount(value=line[k - 1] - line[j - 1], j=j, k=k, ell=ell)
