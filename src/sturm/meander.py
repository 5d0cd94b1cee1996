"""Canonical arc diagrams and the meander test.

In canonical form the curve crosses the axis vertically and consecutive
crossings (by label) are joined by semicircles that alternate sides,
starting above. The permutation is a meander permutation exactly when
the arcs above the axis are pairwise non-crossing and so are the arcs
below. The test places the labels in axis order and keeps one stack of
open arcs per side: a label that closes an arc must close the innermost
open arc on that side. The side of an arc is read off label parity, as
in :func:`build_diagram`, and the backtrack enumerator runs the same
stack step inline.

The crossing numbers and their prefix-crossing kernel live in
:mod:`sturm.crossing`, so validating, drawing and enumerating load none
of them.
"""
from __future__ import annotations

from typing import Literal, NamedTuple

from .perm import SturmPermutation, is_dissipative, is_morse

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


class MeanderDiagram(NamedTuple):
    """The n-1 arcs of the canonical diagram of a permutation."""

    n: int
    arcs: tuple[Arc, ...]


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
