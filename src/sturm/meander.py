"""Canonical arc diagrams, the meander test, and crossing numbers.

In canonical form the curve crosses the axis vertically and consecutive
crossings (by label) are joined by semicircles that alternate sides,
starting above. The permutation is a meander permutation exactly when
the arcs above the axis are pairwise non-crossing and so are the arcs
below. The test places the labels in axis order and keeps one stack of
open arcs per side: a label that closes an arc must close the innermost
open arc on that side. The side of an arc is read off label parity, as
in :func:`build_diagram`, and the backtrack enumerator runs the same
stack step inline.

Crossing counts and the pairwise zero-number identity share one kernel
over a sequence of axis coordinates with an anchor Morse parity:
:func:`crossing_number` runs it over axis positions with anchor 0,
``zeros.z_pair_nsl`` over the same positions, and ``zeros.window_z``
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
"""
from __future__ import annotations

from itertools import repeat
from operator import lt
from typing import Literal, NamedTuple, Sequence

from .perm import (
    SturmPermutation, _check_int, _require_sturm, is_dissipative, is_morse
)

Side = Literal["above", "below"]
_NO_ARC = "label {value} has no outgoing arc (need 1 <= j < {end})"


class Arc(NamedTuple):
    """Semicircle joining the crossings labeled ``curve_step`` and ``curve_step + 1``.

    Endpoints are axis positions in curve orientation (from the lower
    label to the higher), so ``from_pos > to_pos`` happens routinely.
    """

    from_pos: int
    to_pos: int
    side: Side
    curve_step: int

    @property
    def span(self) -> tuple[int, int]:
        """Normalized (left, right) endpoint positions."""
        a, b = self.from_pos, self.to_pos
        return (a, b) if a < b else (b, a)


class MeanderDiagram(NamedTuple):
    """The n-1 arcs of the canonical diagram of a permutation."""

    n: int
    arcs: tuple[Arc, ...]

    def side(self, side: Side) -> tuple[Arc, ...]:
        return tuple(a for a in self.arcs if a.side == side)


def build_diagram(p: SturmPermutation) -> MeanderDiagram:
    """Arcs of the canonical form: step j joins positions of labels j, j+1.

    Step j lies above the axis iff j is odd (the first crossing of the
    curve is upward and arcs alternate sides from there).

    >>> [(a.from_pos, a.to_pos, a.side) for a in build_diagram(SturmPermutation((1, 2, 3))).arcs]
    [(1, 2, 'above'), (2, 3, 'below')]
    """
    inv = p.inv
    arcs = tuple(Arc(inv[j - 1], inv[j], "above" if j % 2 else "below", j) for j in range(1, p.n))
    return MeanderDiagram(n=p.n, arcs=arcs)


def is_meander(p: SturmPermutation) -> bool:
    """True when the canonical diagram is free of self-intersections.

    Same-side semicircles are non-crossing exactly when they close in
    last-in, first-out order, so the labels of ``p.map`` are placed left
    to right with one stack of open arcs per side. As in
    :func:`build_diagram`, the arc from a label to label - 1 lies on side
    ``label % 2`` (0 above, 1 below) and the arc to label + 1 on the
    other. A label pushes the partner of each arc it opens; each arc it
    closes must be the innermost open arc on its side, or the test fails.

    >>> is_meander(SturmPermutation((1, 3, 2, 4, 5)))
    False
    >>> is_meander(SturmPermutation((1, 4, 5, 6, 3, 2, 7)))
    True
    """
    n = p.n
    stacks: tuple[list[int], list[int]] = ([], [])
    placed = [False] * (n + 1)
    for label in p.map:
        lower, upper = stacks[label % 2], stacks[1 - label % 2]
        if label > 1:
            if not placed[label - 1]:
                lower.append(label - 1)
            elif lower.pop() != label:
                return False
        if label < n:
            if not placed[label + 1]:
                upper.append(label + 1)
            elif upper.pop() != label:
                return False
        placed[label] = True
    return True


def is_sturm(p: SturmPermutation) -> bool:
    """Dissipative, Morse, and meander: the full validity test."""
    return is_dissipative(p) and is_morse(p) and is_meander(p)


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


def quadrant_parity(p: SturmPermutation, j: int) -> Literal["odd", "even"]:
    """Parity class of the arc leaving crossing j.

    "odd" when the Morse number rises across the step to j+1, "even" when
    it falls; this is the case selector of the zero-number formula.
    """
    _check_int(j, "label j", 1, p.n - 1, _NO_ARC)
    _require_sturm(p)
    morse = p.morse
    return "odd" if morse[j] == morse[j - 1] + 1 else "even"
