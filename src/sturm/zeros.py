"""Zero numbers of equilibrium differences.

Two independent routes compute the same quantity:

* :func:`z_matrix` fills the whole symmetric matrix by the descending
  boundary recursion (rows start from the zero boundary values forced by
  dissipativity) in half steps: row j moves by exactly one at each curve
  step that passes the axis position of j, with a sign read off the step's
  parity and side;
* :func:`z_pair_nsl` evaluates a single pair through the nonlinear
  Sturm-Liouville identity, Morse number plus crossing count with a
  quadrant-parity correction.

Their exact agreement on every pair is a core invariant of the test
suite, which is also what pins down the quadrant-parity convention. The
pairwise identity reads two entries of one cached prefix-crossing line
of ``crossing._prefix_line``, the kernel that ``window.window_z`` runs
as well; the recursion here shares nothing with it but Morse numbers.
The windowed analysis lives in :mod:`sturm.window`.
"""
from __future__ import annotations

from typing import Literal, NamedTuple

from .crossing import _line
from .perm import SturmPermutation, _check_int, _require_sturm

Sign = Literal["+", "-"]


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


def _zero_matrix_values(p: SturmPermutation) -> tuple[tuple[int, ...], ...]:
    n, pos = p.n, p.inv
    # Row j (0-based) descends from the boundary value z(j, n) = 0 in half
    # steps. With g(t) = [position of t > position of j], the 1-based step m
    # moves the row by exactly one when g(m) != g(m + 1): up when m + g(m + 1)
    # is odd, down when it is even. z(j, k) sums the steps m = k..n-1, and
    # the loop's 0-based column k takes the step m = k + 1, so rise[k] is the
    # move when g(m + 1) holds and fall[k] the move when it does not.
    rise = [-1, 1] * (n // 2 + 1)
    fall = [1, -1] * (n // 2 + 1)
    upper = []
    for j in range(n):
        pj, row, z = pos[j], [0] * n, 0
        g_next = pos[n - 1] > pj
        for k in range(n - 2, j, -1):
            g = pos[k] > pj
            if g is not g_next:
                z += rise[k] if g_next else fall[k]
            row[k] = z
            g_next = g
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
    n = p.n
    # One test of both labels at once. Only a pair that fails it runs the
    # gates, in their order, so the error names the first fault; a pair that
    # passes both label gates failed on equal labels.
    if not (type(j) is int and type(k) is int and 0 < j <= n and 0 < k <= n and j != k):
        _check_int(j, "label j", 1, n)
        _check_int(k, "label k", 1, n)
        raise ValueError("zero number of a pair requires distinct labels")
    _require_sturm(p)
    s, t = (j, k) if j < k else (k, j)
    # Morse number of s, minus one when it falls across step s ("even"
    # quadrant parity), plus the crossings of steps s+1..t-1 with line s.
    morse, line = p.morse, _line(p, s)
    return morse[s - 1] - (morse[s] < morse[s - 1]) + line[t - 1] - line[s]


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
