"""Zero numbers of equilibrium differences, and windowed local analysis.

Two independent routes compute the same quantity:

* :func:`z_matrix` fills the whole symmetric matrix by the descending
  boundary recursion (rows start from the zero boundary values forced by
  dissipativity);
* :func:`z_pair_nsl` evaluates a single pair through the nonlinear
  Sturm-Liouville identity, Morse number plus crossing count with a
  quadrant-parity correction.

Their exact agreement on every pair is a core invariant of the test
suite, which is also what pins down the quadrant-parity convention. The
pairwise identity is the kernel ``meander._pair_zero``, shared with
:func:`window_z`; the recursion shares nothing with it but Morse numbers.

A :class:`MeanderWindow` captures the purely local data of a contiguous
label range: the relative axis order of its labels plus one anchoring
Morse number. That data suffices to reproduce the exact sub-block of the
full zero-number matrix, because every sign comparison in the pairwise
identity for a window pair involves window labels only: :func:`window_z`
runs the kernel over window ranks, and :func:`z_pair_nsl` is the window
of all n labels.
"""
from __future__ import annotations

from typing import Literal, NamedTuple, Sequence

from .errors import WindowError
from .meander import _pair_zero
from .perm import (
    SturmPermutation, _check_bijection, _check_int, _Frozen, _morse_recursion, _require_sturm
)

Sign = Literal["+", "-"]
_NEGATIVE_ANCHOR = "anchor Morse number must be non-negative"


class ZeroMatrix(NamedTuple):
    """Symmetric matrix of zero numbers, Morse numbers on the diagonal.

    ``values`` is a tuple of row tuples of ints. The diagonal is a display
    and storage convention only: z(v - v) is undefined and never read as
    a zero number. Use :meth:`pair` for off-diagonal access with 1-based
    labels.
    """

    values: tuple[tuple[int, ...], ...]

    @property
    def n(self) -> int:
        return len(self.values)

    def pair(self, j: int, k: int) -> int:
        """Zero number z(v_k - v_j) for distinct labels j, k."""
        n = len(self.values)
        _check_int(j, "label j", 1, n)
        _check_int(k, "label k", 1, n)
        if j == k:
            raise ValueError("zero number of a pair requires distinct labels")
        return self.values[j - 1][k - 1]

    def morse(self, j: int) -> int:
        _check_int(j, "label j", 1, len(self.values))
        return self.values[j - 1][j - 1]


def _zero_matrix_values(p: SturmPermutation) -> tuple[tuple[int, ...], ...]:
    n, pos = p.n, p.inv
    upper = []
    for j in range(n):
        # Row j (0-based) descends from the boundary value z(j, n) = 0. The
        # 1-based step m adds half of (-1)^m (d(m+1) - d(m)), with
        # d(m) = sign(pos m - pos j), so z(j, k) sums the steps m = k..n-1;
        # the loop's 0-based column k takes the step m = k + 1.
        pj, row, twice = pos[j], [0] * n, 0
        d_next = (pos[n - 1] > pj) - (pos[n - 1] < pj)
        for k in range(n - 2, j, -1):
            d = (pos[k] > pj) - (pos[k] < pj)
            twice += d_next - d if k % 2 else d - d_next
            assert twice % 2 == 0, "doubled recursion must stay even"
            row[k] = twice // 2
            d_next = d
        upper.append(row)
    # zip(*upper) transposes: column j of upper is the lower part of row j.
    return tuple(
        lower[:j] + (p.morse[j],) + tuple(row[j + 1 :])
        for j, (row, lower) in enumerate(zip(upper, zip(*upper)))
    )


def z_matrix(p: SturmPermutation) -> ZeroMatrix:
    """Full zero-number matrix of a Sturm permutation.

    >>> m = z_matrix(SturmPermutation((1, 4, 5, 6, 3, 2, 7)))
    >>> m.pair(2, 3), m.pair(2, 6), m.pair(4, 5), m.pair(3, 5)
    (1, 1, 0, 1)
    """
    _require_sturm(p)
    values = _zero_matrix_values(p)
    # The diagonal's Morse numbers are non-negative as well.
    assert min(map(min, values)) >= 0, "zero numbers must be non-negative"
    return ZeroMatrix(values=values)


def z_pair_nsl(p: SturmPermutation, j: int, k: int) -> int:
    """Zero number of one pair via Morse number plus crossing count.

    Evaluated on (min, max) since the zero number is symmetric and the
    identity is stated for ordered pairs. Independent of :func:`z_matrix`.
    """
    _check_int(j, "label j", 1, p.n)
    _check_int(k, "label k", 1, p.n)
    if j == k:
        raise ValueError("zero number of a pair requires distinct labels")
    _require_sturm(p)
    return _pair_zero(p.inv, p.morse, j, k) if j < k else _pair_zero(p.inv, p.morse, k, j)


class SignedZero(NamedTuple):
    """Zero number with the sign of the difference at the left boundary."""

    z: int
    sign: Sign

    def __str__(self) -> str:
        return f"{self.z}{self.sign}"


def signed_z(p: SturmPermutation, base: int, w: int) -> SignedZero:
    """Signed zero number of w relative to base.

    The sign records which side of the base equilibrium w starts on at
    the left boundary, which in label terms is just the label order.

    >>> signed_z(SturmPermutation((1, 4, 5, 6, 3, 2, 7)), 3, 2)
    SignedZero(z=1, sign='-')
    """
    _check_int(base, "label base", 1, p.n)
    _check_int(w, "label w", 1, p.n)
    if base == w:
        raise ValueError("signed zero number requires distinct labels")
    return SignedZero(z=z_pair_nsl(p, base, w), sign="+" if w > base else "-")


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
    :attr:`ZeroMatrix.values`.
    """
    morse = window_morse(win)
    L = win.length
    out = [[morse[s] if s == t else 0 for t in range(L)] for s in range(L)]
    for s in range(1, L):
        for t in range(s + 1, L + 1):
            value = _pair_zero(win.axis_rank, morse, s, t)
            if value < 0:
                raise WindowError(
                    f"window pair ({s}, {t}) gets zero number {value}; "
                    "window is inconsistent with any Sturm completion"
                )
            out[s - 1][t - 1] = out[t - 1][s - 1] = value
    return tuple(map(tuple, out))


def matrix_text(values: Sequence[Sequence[int]]) -> str:
    """Rows of space-separated integers, one line per row."""
    return "\n".join(" ".join(map(str, row)) for row in values)
