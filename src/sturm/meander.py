"""Canonical arc diagrams, the meander test, and crossing numbers.

In canonical form the curve crosses the axis vertically and consecutive
crossings (by label) are joined by semicircles that alternate sides,
starting above. The permutation is a meander permutation exactly when
the arcs above the axis are pairwise non-crossing and so are the arcs
below. The test places the labels in axis order and keeps one stack of
open arcs per side: a label that closes an arc must close the innermost
open arc on that side. The backtrack enumerator runs the same arc table
and stack step incrementally.

Crossing counts and the pairwise zero-number identity share one kernel
over a sequence of axis coordinates with an anchor Morse parity:
:func:`crossing_number` runs it over axis positions with anchor 0,
``zeros.z_pair_nsl`` over the same positions, and ``zeros.window_z``
over the axis ranks of a window with the window's anchor Morse number.
The descending recursion of ``zeros.z_matrix`` stays an independent
route that the kernel is checked against.
"""
from __future__ import annotations

from functools import lru_cache
from typing import Literal, NamedTuple, Sequence

from .perm import SturmPermutation, _check_labels, _require_sturm, is_dissipative, is_morse

__all__ = [
    "Arc",
    "MeanderDiagram",
    "build_diagram",
    "is_meander",
    "is_sturm",
    "CrossingCount",
    "crossing_number",
    "quadrant_parity",
]

Side = Literal["above", "below"]


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


_ArcTable = tuple[tuple[tuple[int, int], ...], ...]
_Stacks = tuple[list[int], list[int]]


@lru_cache(maxsize=16)
def _arcs(n: int) -> _ArcTable:
    """For each label, the ``(side, partner)`` of its one or two arcs.

    Arc (m, m+1) lies above the axis (side 0) for odd m and below it
    (side 1) for even m, as in :func:`build_diagram`. Entry 0 is unused.
    """
    return tuple(
        tuple(
            (0 if min(label, partner) % 2 else 1, partner)
            for partner in (label - 1, label + 1)
            if 1 <= partner <= n
        )
        for label in range(n + 1)
    )


def _fits(arcs: _ArcTable, stacks: _Stacks, placed: Sequence[int], label: int) -> bool:
    """Whether ``label`` may take the next axis position.

    Each side's stack holds the partners that close its open arcs,
    innermost on top. An arc whose partner is already placed closes at
    ``label``, so it must be the innermost open arc on its side.
    """
    for side, partner in arcs[label]:
        if placed[partner] and stacks[side][-1] != label:
            return False
    return True


def _place(arcs: _ArcTable, stacks: _Stacks, placed: Sequence[int], label: int) -> None:
    """Stack step of a label that fits: pop each arc it closes and push
    the partner of each arc it opens. The caller marks the label placed."""
    for side, partner in arcs[label]:
        if placed[partner]:
            stacks[side].pop()
        else:
            stacks[side].append(partner)


def is_meander(p: SturmPermutation) -> bool:
    """True when the canonical diagram is free of self-intersections.

    Same-side semicircles are non-crossing exactly when they close in
    last-in, first-out order, so the labels of ``p.map`` are placed left
    to right with one stack of open arcs per side, and the first label
    that does not close the innermost open arc of its side fails the test.

    >>> is_meander(SturmPermutation((1, 3, 2, 4, 5)))
    False
    >>> is_meander(SturmPermutation((1, 4, 5, 6, 3, 2, 7)))
    True
    """
    arcs = _arcs(p.n)
    stacks: _Stacks = ([], [])
    placed = [False] * (p.n + 1)
    for label in p.map:
        if not _fits(arcs, stacks, placed, label):
            return False
        _place(arcs, stacks, placed, label)
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


def _crossings(xs: Sequence[int], anchor: int, lo: int, hi: int, ell: int) -> int:
    """Signed crossings of the curve steps lo..hi-1 (lo <= hi) with the
    vertical line through the crossing labeled ell.

    ``xs[t-1]`` is the axis coordinate of label t: an axis position, or a
    rank among the labels of a window. Step m is oriented as in the Morse
    recursion, clockwise when ``anchor + m`` is odd. Steps whose arc ends
    at ell contribute nothing: touching the line at the crossing itself
    is not a transverse crossing.
    """
    x = xs[ell - 1]
    doubled = 0
    for m in range(lo, hi):
        if m == ell or m + 1 == ell:
            continue
        diff = ((xs[m] > x) - (xs[m] < x)) - ((xs[m - 1] > x) - (xs[m - 1] < x))
        doubled += diff if (anchor + m) % 2 == 1 else -diff
    assert doubled % 2 == 0, "crossing count must be an integer"
    return doubled // 2


def _pair_zero(xs: Sequence[int], morse: Sequence[int], s: int, t: int) -> int:
    """Zero number z(v_t - v_s) of labels s < t by the nonlinear
    Sturm-Liouville identity: the Morse number of s plus the crossings
    of the segment s..t with the line at s, minus one when the Morse
    number falls across step s ("even" quadrant parity).

    ``morse[0]`` anchors the orientation; ``xs`` as in :func:`_crossings`.
    """
    value = morse[s - 1] + _crossings(xs, morse[0], s, t, s)
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
    _check_labels(p.n, j=j, k=k, ell=ell)
    value = _crossings(p.inv, 0, min(j, k), max(j, k), ell)
    return CrossingCount(value=-value if j > k else value, j=j, k=k, ell=ell)


def quadrant_parity(p: SturmPermutation, j: int) -> Literal["odd", "even"]:
    """Parity class of the arc leaving crossing j.

    "odd" when the Morse number rises across the step to j+1, "even" when
    it falls; this is the case selector of the zero-number formula.
    """
    if not 1 <= j < p.n:
        raise ValueError(f"label {j} has no outgoing arc (need 1 <= j < {p.n})")
    _require_sturm(p)
    morse = p.morse
    return "odd" if morse[j] == morse[j - 1] + 1 else "even"
