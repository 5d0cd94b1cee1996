"""Exhaustive generation of Sturm permutations.

Two engines produce every Sturm permutation of a given odd size in
lexicographic order:

* the *backtrack* engine, which ``engine="auto"`` runs, grows the axis
  sequence left to right. It tries the free labels in ascending order,
  keeps only those that fit the one stack of open arcs per side of
  ``meander.is_meander``, and checks Morse numbers on the fly as label
  prefixes complete;
* the *filter* engine tests all permutations fixing the end labels. It
  is the brute-force cross-check, fine up to size 9 or so.

``sturm.harness`` replays the documented invariants of every module over
the families enumerated here.
"""
from __future__ import annotations

import itertools
from typing import Iterator, Literal

from .meander import _arcs, _fits, _place, is_meander
from .perm import SturmPermutation, _echo_int, is_morse

__all__ = ["DEFAULT_BOUND", "enumerate_sturm", "count_sturm"]

DEFAULT_BOUND = 11

Engine = Literal["auto", "filter", "backtrack"]


def _check_size(n: int, bound: int) -> None:
    if n < 1 or n % 2 == 0:
        raise ValueError(f"size must be odd and positive, got {_echo_int(n)}")
    if n > bound:
        raise ValueError(
            f"size {_echo_int(n)} exceeds the configured bound {_echo_int(bound)}"
        )


def _enumerate_filter(n: int) -> Iterator[SturmPermutation]:
    if n == 1:
        yield SturmPermutation((1,))
        return
    for middle in itertools.permutations(range(2, n)):
        p = SturmPermutation((1,) + middle + (n,))
        if is_morse(p) and is_meander(p):
            yield p


def _enumerate_backtrack(n: int) -> Iterator[SturmPermutation]:
    arcs = _arcs(n)
    placed = [0] * (n + 1)  # label -> axis position, 0 when unplaced
    stacks: tuple[list[int], list[int]] = ([], [])  # partners closing open arcs, per side
    axis: list[int] = []
    morse = [0] * (n + 1)

    def search(pos: int, frontier: int) -> Iterator[tuple[int, ...]]:
        # Every open arc still needs its own unplaced closing label.
        remaining = n - pos + 1
        if len(stacks[0]) > remaining or len(stacks[1]) > remaining:
            return
        if pos > n:
            yield tuple(axis)
            return
        # Crossing directions alternate along the axis, so position and
        # label parity agree; label n is reserved for the last slot.
        for label in (n,) if pos == n else range(2 - pos % 2, n, 2):
            if placed[label] or not _fits(arcs, stacks, placed, label):
                continue
            _place(arcs, stacks, placed, label)
            placed[label] = pos
            axis.append(label)
            # Extend Morse numbers over the longest placed label prefix.
            m = frontier
            while m < n and placed[m + 1]:
                step = 1 if placed[m + 1] > placed[m] else -1
                value = morse[m] + (step if m % 2 == 1 else -step)
                if value < 0:
                    break
                morse[m + 1] = value
                m += 1
            else:  # no Morse number went negative
                yield from search(pos + 1, m)
            axis.pop()
            placed[label] = 0
            # A partner is still placed exactly when the step closed its arc.
            for side, partner in arcs[label]:
                if placed[partner]:
                    stacks[side].append(label)
                else:
                    stacks[side].pop()

    _place(arcs, stacks, placed, 1)
    placed[1] = 1
    axis.append(1)
    for entry in search(2, 1):
        yield SturmPermutation(entry)


def enumerate_sturm(
    n: int, engine: Engine = "auto", bound: int = DEFAULT_BOUND
) -> Iterator[SturmPermutation]:
    """All Sturm permutations of odd size n, in lexicographic map order.

    Size, bound and engine are checked at the call, before any iteration.

    >>> [p.map for p in enumerate_sturm(5)]
    [(1, 2, 3, 4, 5), (1, 4, 3, 2, 5)]
    """
    _check_size(n, bound)
    if engine == "filter":
        return _enumerate_filter(n)
    if engine in ("auto", "backtrack"):
        return _enumerate_backtrack(n)
    raise ValueError(f"unknown engine {engine!r}")


def count_sturm(n: int, engine: Engine = "auto", bound: int = DEFAULT_BOUND) -> int:
    return sum(1 for _ in enumerate_sturm(n, engine=engine, bound=bound))
