"""Exhaustive generation of Sturm permutations.

Two engines produce every Sturm permutation of a given odd size in
lexicographic order:

* the *backtrack* engine, the default, grows the axis sequence left to
  right and hands out each member as it completes. It
  tries the free labels in ascending order and keeps those that pass the
  stack step of ``meander.is_meander``, run inline: one stack of open
  arcs per side, each arc's side read off label parity. The arc from
  n - 1 to n ends in the last slot, so it may open under no other arc.
  Step m of the curve joins labels m and m + 1. Its direction is decided
  as soon as either label is placed, and from then on its Morse step is
  known. The engine runs the Morse numbers over the decided steps up
  from i(1) = 0 and down from i(n) = 0, and drops a prefix when one goes
  negative or the undecided gap between the two runs cannot be bridged
  by unit steps. Every Sturm permutation has i(n) = 0: a loop over the
  top from label n back to label 1 closes its curve to a simple closed
  curve turning once counterclockwise, all of it in the loop. So no
  member is lost;
* the *filter* engine tests all permutations fixing the end labels. It
  is the brute-force cross-check, fine up to size 9 or so.

``sturm.harness`` replays the documented invariants of every module over
the families enumerated here.
"""
from __future__ import annotations

import itertools
from typing import Iterator, Literal

from .meander import is_meander
from .perm import SturmPermutation, _check_size, _echo_int, is_morse

DEFAULT_BOUND = 11
# The backtrack engine nests one generator frame per axis position, so a
# size near the interpreter's recursion limit (1,000 frames by default)
# overflows the stack; this cap leaves the rest for the caller's frames.
_SIZE_LIMIT = 501

Engine = Literal["backtrack", "filter"]


def _check_family_size(n: int, bound: int) -> None:
    # The size rule of the enumerators and the harness: _check_size, then
    # the enumeration limit, whatever the bound.
    _check_size(n, bound)
    if n > _SIZE_LIMIT:
        raise ValueError(f"size {_echo_int(n)} exceeds the enumeration limit {_SIZE_LIMIT}")


def _enumerate_filter(n: int) -> Iterator[SturmPermutation]:
    if n == 1:
        yield SturmPermutation((1,))
        return
    for middle in itertools.permutations(range(2, n)):
        p = SturmPermutation((1,) + middle + (n,))
        if is_morse(p) and is_meander(p):
            yield p


def _enumerate_backtrack(n: int) -> Iterator[SturmPermutation]:
    if n == 1:
        yield SturmPermutation((1,))
        return
    # Axis position of each label. Label n is reserved for the last slot,
    # so it counts as placed from the start, right of all others (n + 1);
    # every other unplaced label shares position n, right of the placed.
    free = n
    placed = [free] * (n + 1)
    placed[1], placed[n] = 1, n + 1
    # Partners that close the open arcs above (0) and below (1) the axis,
    # innermost on top; label 1 has opened the arc to 2.
    stacks: tuple[list[int], list[int]] = ([2], [])
    axis = [1]
    # fwd[m] is the Morse number i(m) for the labels 1..up, counted up
    # from i(1) = 0, and bwd[m] is i(m) for the labels down..n, counted
    # down from i(n) = 0; step n - 1 rises, so i(n - 1) = 1.
    fwd = [0] * (n + 1)
    bwd = [0] * (n + 1)
    bwd[n - 1] = 1

    def search(pos: int, up: int, down: int) -> Iterator[SturmPermutation]:
        if pos == n:
            yield SturmPermutation((*axis, n))
            return
        # Crossing directions alternate along the axis, so labels share the
        # parity of their positions. The two arcs of a label lie on opposite
        # sides: the arc to label - 1 on the ``lower`` side, the arc to
        # label + 1 on the ``upper`` one.
        lower, upper = stacks[pos % 2], stacks[1 - pos % 2]
        for label in range(2 - pos % 2, n, 2):
            if placed[label] != free:
                continue
            # A placed partner closes its arc at label, which must then be
            # the innermost open arc on its side. The arc from n - 1 to n
            # ends in the last slot, so it must open under no other arc.
            closes_lower = placed[label - 1] < pos
            closes_upper = placed[label + 1] < pos
            if (
                closes_lower and lower[-1] != label
                or closes_upper and upper[-1] != label
                or label == n - 1 and upper
            ):
                continue
            if closes_lower:
                lower.pop()
            else:
                lower.append(label - 1)
            if closes_upper:
                upper.pop()
            else:
                upper.append(label + 1)
            placed[label] = pos
            # Step m joins labels m and m + 1; its direction is decided once
            # either is placed, since the one placed first lies left. Run
            # both Morse counts over the decided steps, then ask that the
            # undecided gap between them can be bridged by unit steps.
            m = up
            while m < down and placed[m] != placed[m + 1]:
                value = fwd[m] + (1 if (placed[m] < placed[m + 1]) == (m % 2 == 1) else -1)
                if value < 0:
                    break
                fwd[m + 1] = value
                m += 1
            else:
                j = down
                while j > m and placed[j - 1] != placed[j]:
                    value = bwd[j] - (1 if (placed[j - 1] < placed[j]) == (j % 2 == 0) else -1)
                    if value < 0:
                        break
                    bwd[j - 1] = value
                    j -= 1
                else:
                    if abs(bwd[j] - fwd[m]) <= j - m:
                        axis.append(label)
                        yield from search(pos + 1, m, j)
                        axis.pop()
            placed[label] = free
            if closes_lower:
                lower.append(label)
            else:
                lower.pop()
            if closes_upper:
                upper.append(label)
            else:
                upper.pop()

    yield from search(2, 1, n - 1)


def enumerate_sturm(
    n: int, engine: Engine = "backtrack", bound: int = DEFAULT_BOUND
) -> Iterator[SturmPermutation]:
    """All Sturm permutations of odd size n, in lexicographic map order.

    Size, bound and engine are checked at the call, before any iteration.
    Whatever the bound, a size above 501 raises ``ValueError``.

    >>> [p.map for p in enumerate_sturm(5)]
    [(1, 2, 3, 4, 5), (1, 4, 3, 2, 5)]
    """
    _check_family_size(n, bound)
    if engine == "backtrack":
        return _enumerate_backtrack(n)
    if engine == "filter":
        return _enumerate_filter(n)
    raise ValueError(f"unknown engine {engine!r}")


def count_sturm(n: int, engine: Engine = "backtrack", bound: int = DEFAULT_BOUND) -> int:
    """Number of Sturm permutations of odd size n, checked as in
    :func:`enumerate_sturm`.

    >>> count_sturm(9)
    32
    """
    return sum(1 for _ in enumerate_sturm(n, engine=engine, bound=bound))
