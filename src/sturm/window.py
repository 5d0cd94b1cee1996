"""Windowed local analysis of a meander segment.

A :class:`MeanderWindow` captures the purely local data of a contiguous
label range: the relative axis order of its labels plus one anchoring
Morse number. That data suffices to reproduce the exact sub-block of the
full zero-number matrix, because every sign comparison in the pairwise
identity for a window pair involves window labels only: :func:`window_z`
builds each prefix line of the kernel ``crossing._prefix_line`` once over
the window ranks, with the window's anchor parity, and ``zeros.z_pair_nsl``
is the window of all n labels.

This module needs neither :mod:`sturm.meander` nor :mod:`sturm.zeros`:
``sturm window`` loads only the permutation helpers, the kernel and
this file.
"""
from __future__ import annotations

from itertools import repeat
from operator import add
from typing import Sequence

from .crossing import _prefix_line
from .errors import WindowError
from .perm import (
    SturmPermutation, _check_bijection, _check_int, _Frozen, _morse_recursion, _require_sturm
)

_NEGATIVE_ANCHOR = "anchor Morse number must be non-negative"


class MeanderWindow(_Frozen):
    """A contiguous run of L meander labels, seen only through their
    relative axis order and one anchoring Morse number.

    ``axis_rank[t-1]`` is the rank (1..L) of the t-th window label's axis
    position among the window labels. ``anchor_morse`` is the Morse
    number of the first window label; its parity also fixes the crossing
    direction at the anchor, which orients the whole window.
    """

    axis_rank: tuple[int, ...]
    anchor_morse: int

    def __init__(self, axis_rank: Sequence[int], anchor_morse: int):
        ranks = tuple(axis_rank)
        L = len(ranks)
        if L < 2:
            raise ValueError("window needs at least two labels")
        _check_bijection(ranks, "axis ranks must be a bijection")
        _check_int(anchor_morse, "anchor Morse number", 0, line=_NEGATIVE_ANCHOR)
        object.__setattr__(self, "axis_rank", ranks)
        object.__setattr__(self, "anchor_morse", anchor_morse)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.axis_rank, self.anchor_morse) == (other.axis_rank, other.anchor_morse)

    def __hash__(self) -> int:
        return hash((self.axis_rank, self.anchor_morse))

    def __repr__(self) -> str:
        return f"MeanderWindow(axis_rank={self.axis_rank!r}, anchor_morse={self.anchor_morse!r})"

    @property
    def length(self) -> int:
        return len(self.axis_rank)

    @classmethod
    def from_axis_order(cls, order: Sequence[int], anchor_morse: int) -> "MeanderWindow":
        """Build from the window labels listed left to right along the axis.

        ``order`` lists 1-based window labels (offset within the window
        plus one) in axis order, the way a permutation segment is read.
        """
        _check_bijection(order, "axis order must be a bijection")
        ranks = [0] * len(order)
        for rank, label in enumerate(order, start=1):
            ranks[label - 1] = rank
        return cls(axis_rank=tuple(ranks), anchor_morse=anchor_morse)

    @classmethod
    def from_permutation(cls, p: SturmPermutation, first: int, last: int) -> "MeanderWindow":
        """Window of the labels first..last of a Sturm permutation."""
        span = "need 1 <= first < last <= {hi}"
        _check_int(first, "first", 1, p.n, span)
        _check_int(last, "last", first + 1, p.n, span)
        _require_sturm(p)
        order = [t - first + 1 for t in p.map if first <= t <= last]
        return cls.from_axis_order(order, p.morse[first - 1])


def window_morse(win: MeanderWindow) -> tuple[int, ...]:
    """Morse numbers of the window labels, grown from the anchor.

    Raises :class:`WindowError` when the recursion dips below zero, in
    which case no Sturm permutation can contain the window.

    >>> window_morse(MeanderWindow.from_axis_order([1, 2], anchor_morse=0))
    (0, 1)
    """
    morse = _morse_recursion(win.axis_rank, win.anchor_morse)
    for label, value in enumerate(morse, start=1):
        if value < 0:
            raise WindowError(
                f"window label {label} gets Morse number {value}; "
                "window is inconsistent with any Sturm completion"
            )
    return morse


def window_z(win: MeanderWindow) -> tuple[tuple[int, ...], ...]:
    """Zero numbers of all window pairs, Morse numbers on the diagonal.

    Uses the pairwise identity, which only ever compares axis positions
    of window labels; the result equals the corresponding sub-block of
    the full matrix whenever the window comes from an actual Sturm
    permutation with the correct anchor. Rows are tuples of ints, like
    :attr:`ZeroMatrix.values`. Row s reads one prefix line, built over
    the window ranks once, so the whole matrix costs O(L**2).
    """
    morse = window_morse(win)
    ranks, anchor, L = win.axis_rank, win.anchor_morse, win.length
    upper = []
    for s in range(1, L):
        # z(s, t) for t = s+1..L, as in zeros.z_pair_nsl.
        line = _prefix_line(ranks, anchor, s)
        base = morse[s - 1] - (morse[s] < morse[s - 1]) - line[s]
        row = tuple(map(add, line[s:], repeat(base)))
        if min(row) < 0:
            t, value = next((t, v) for t, v in enumerate(row, start=s + 1) if v < 0)
            raise WindowError(
                f"window pair ({s}, {t}) gets zero number {value}; "
                "window is inconsistent with any Sturm completion"
            )
        upper.append((0,) * s + row)
    upper.append((0,) * L)
    # zip(*upper) transposes: column s of upper is the lower part of row s.
    return tuple(
        lower[:s] + (morse[s],) + row[s + 1 :]
        for s, (row, lower) in enumerate(zip(upper, zip(*upper)))
    )


def matrix_text(values: Sequence[Sequence[int]]) -> str:
    """Rows of space-separated integers, one line per row."""
    return "\n".join(" ".join(map(str, row)) for row in values)
