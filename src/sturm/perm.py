"""Meander permutations on {1..n} and their Morse numbers.

The label convention throughout the package: a crossing carries the
*meander label* j in {1..n}, assigned along the curve, while ``sigma(k)``
is the label found at the k-th position along the horizontal axis.
Consequently ``position(j) = sigma^{-1}(j)`` is the axis position of the
crossing labeled j. All labels and positions are 1-based.

A permutation is *dissipative* when it fixes 1 and n, *Morse* when the
half-winding recursion stays non-negative, and *Sturm* when it is
additionally a meander permutation (see :mod:`sturm.meander`).

Each input passes one Sturm gate: the first function that needs a Sturm
permutation runs the test and caches the answer on the object. Suspension
(:func:`sturm.suspension.suspend`, ``sturm suspend``) and the two
involutions :func:`apply_tau` and :func:`apply_kappa` gate their input and
keep the Sturm property, so their results arrive already trusted and are
never tested again. Enumerator members, :func:`parse_permutation` results
and permutations built with ``SturmPermutation(...)`` stay untrusted until
gated. The tests and the property harness still prove each of these laws
by calling :func:`sturm.meander.is_sturm` on the images, never by reading
the cached answer.

Every int argument of the API (label, level, size) passes one gate,
:func:`_check_int`: an exact ``int`` first, since ``True`` and ``2.0``
compare like ints, then its range.
"""
from __future__ import annotations

import sys
from functools import cached_property
from math import inf
from typing import Sequence

from .errors import NotSturmError, ParseError


_RANGE = "{name}={value} out of range {lo}..{hi}"


def _check_int(value: int, name: str, lo: float = -inf, hi: float = inf, line=_RANGE) -> None:
    # The one test of an int argument: an exact int in lo..hi, else a ValueError
    # whose ``line`` is formatted with name, value, lo and hi.
    if type(value) is not int:
        raise ValueError(f"{name} must be of type int, got {type(value).__name__}")
    if not lo <= value <= hi:
        raise ValueError(line.format(name=name, value=_echo_int(value), lo=lo, hi=hi))


def _check_size(n: int, bound: int = sys.maxsize) -> None:
    # The size rule of identity, the enumerators and the harness: types first,
    # then an odd positive size within the bound (by default, a tuple's limit).
    _check_int(n, "size")
    _check_int(bound, "bound")
    if n < 1 or n % 2 == 0:
        raise ValueError(f"size must be odd and positive, got {_echo_int(n)}")
    if n > bound:
        raise ValueError(f"size {_echo_int(n)} exceeds the configured bound {_echo_int(bound)}")


def _sign(x: int) -> int:
    # sign(0) := 0; the Morse recursion never hits it for a bijection.
    return (x > 0) - (x < 0)


class _Frozen:
    """Refuses attribute assignment and deletion. Constructors set their
    fields with ``object.__setattr__``; writing through ``vars(self)``
    instead would make every later attribute read slower."""

    __slots__ = ()

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class SturmPermutation(_Frozen):
    """A candidate Sturm permutation: a bijection of {1..n} with n odd.

    ``map[k-1]`` is the meander label at axis position k; ``inv[j-1]`` is
    the axis position of label j. Instances are immutable and hashable,
    and every derived quantity is a pure function of ``map``, so objects
    are safe to share between threads.

    >>> p = SturmPermutation((1, 4, 5, 6, 3, 2, 7))
    >>> p.n
    7
    >>> p.inv
    (1, 6, 5, 2, 3, 4, 7)
    >>> p.morse
    (0, 1, 2, 1, 0, 1, 0)
    """

    map: tuple[int, ...]
    n: int

    def __init__(self, map: Sequence[int]):
        entries = tuple(map)
        n = len(entries)
        if n == 0:
            raise ValueError("empty permutation")
        if n % 2 == 0:
            raise ValueError(f"crossing count must be odd, got {n}")
        _check_bijection(entries, "not a bijection")
        object.__setattr__(self, "map", entries)
        object.__setattr__(self, "n", n)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.map == other.map

    def __hash__(self) -> int:
        return hash(self.map)

    def __repr__(self) -> str:
        return f"SturmPermutation(map={self.map!r})"

    @cached_property
    def inv(self) -> tuple[int, ...]:
        out = [0] * self.n
        for pos, label in enumerate(self.map, start=1):
            out[label - 1] = pos
        return tuple(out)

    @cached_property
    def morse(self) -> tuple[int, ...]:
        return _morse_recursion(self.inv)

    @cached_property
    def _lines(self) -> dict[int, tuple[int, ...]]:
        # The prefix-crossing lines of crossing._line, one per label, filled on
        # first use; two threads that race for a line store equal tuples.
        return {}

    @cached_property
    def _sturm(self) -> bool:
        # local import: meander.py needs perm.py types
        from .meander import is_sturm

        return is_sturm(self)

    def sigma(self, k: int) -> int:
        """Label at axis position k (1-based)."""
        _check_int(k, "label k", 1, self.n)
        return self.map[k - 1]

    def position(self, j: int) -> int:
        """Axis position of meander label j (1-based)."""
        _check_int(j, "label j", 1, self.n)
        return self.inv[j - 1]

    def __str__(self) -> str:
        return " ".join(str(v) for v in self.map)


def identity(n: int) -> SturmPermutation:
    """The identity permutation of odd size n, at most ``sys.maxsize``.

    >>> identity(5).morse
    (0, 1, 0, 1, 0)
    """
    _check_size(n)
    return SturmPermutation(tuple(range(1, n + 1)))


def _decimal(token: str) -> int:
    """The value of an ASCII decimal token, ``[+-]?[0-9]+``.

    Raises ``ValueError`` for any other token, including the full-width
    digits, underscores and surrounding blanks that ``int`` accepts, and
    for one with more digits than ``int`` converts.
    """
    digits = token[1:] if token[:1] in "+-" else token
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"not a decimal: {token!r}")
    return int(token)


def _echo(token: str) -> str:
    # A bad token quoted for an error line, cut after 20 characters.
    return repr(token if len(token) <= 20 else token[:20] + "...")


def _echo_int(value: int) -> str:
    # An integer shown in an error line: its sign and at most 20 digits,
    # then "..." if it has more. The digits are read off a quotient, since
    # str() refuses an int longer than sys.get_int_max_str_digits(). Any
    # other value is shown by its repr, cut after 20 characters.
    if not isinstance(value, int):
        text = repr(value)
        return text if len(text) <= 20 else text[:20] + "..."
    if -(10**20) < value < 10**20:
        return str(value)
    magnitude = abs(value)
    head = str(magnitude // 10 ** (magnitude.bit_length() * 3 // 10 - 20))[:20]
    return ("-" if value < 0 else "") + head + "..."


def _echo_ints(values: Sequence[int]) -> str:
    # A sequence of integers shown in an error line: at most 20 entries,
    # each through _echo_int, then "..." if there are more.
    head = ", ".join(_echo_int(v) for v in values[:20])
    return f"({head}, ...)" if len(values) > 20 else f"({head})"


_INT = frozenset((int,))


def _check_bijection(entries: Sequence[int], message: str) -> None:
    # Raises ValueError unless the entries are a bijection of 1..L made of
    # exact ints; ``message`` opens the bijection error. bool and float
    # entries compare equal to ints, so the type test comes first, in one
    # C-level pass over the entry types.
    if not _INT.issuperset(map(type, entries)):
        raise ValueError(f"entries must be of type int: {_echo_ints(entries)}")
    L = len(entries)
    if sorted(entries) != list(range(1, L + 1)):
        raise ValueError(f"{message} of 1..{L}: {_echo_ints(entries)}")


def _parse_ints(text: str, empty: str) -> list[int]:
    # Whitespace- or comma-separated decimals; ``empty`` is the error for none.
    tokens = text.replace(",", " ").split()
    if not tokens:
        raise ParseError(empty)
    values = []
    for idx, tok in enumerate(tokens, start=1):
        try:
            values.append(_decimal(tok))
        except ValueError:
            raise ParseError(f"non-integer token {_echo(tok)}", position=idx) from None
    return values


def parse_permutation(text: str, zero_based: bool = False) -> SturmPermutation:
    """Parse whitespace- or comma-separated labels into a permutation.

    The result is a candidate: it is guaranteed to be a bijection of
    {1..n} with n odd, but need not be dissipative, Morse, or meander.
    With ``zero_based`` the tokens are read as 0..n-1 and shifted up.

    >>> parse_permutation("1 4 5 6 3 2 7").map
    (1, 4, 5, 6, 3, 2, 7)
    >>> parse_permutation("0 7 2 3 6 5 4 1 8", zero_based=True).map
    (1, 8, 3, 4, 7, 6, 5, 2, 9)
    """
    values = _parse_ints(text, "empty input")
    n = len(values)
    if n % 2 == 0:
        raise ParseError(f"crossing count must be odd, got {n} entries")
    lo = 0 if zero_based else 1  # errors quote the labels as typed
    seen: dict[int, int] = {}
    for idx, v in enumerate(values, start=1):
        if not lo <= v < lo + n:
            raise ParseError(f"label {_echo_int(v)} out of range {lo}..{lo + n - 1}", position=idx)
        if v in seen:
            raise ParseError(f"duplicate label {v}, first at token {seen[v]}", position=idx)
        seen[v] = idx
    return SturmPermutation(tuple(v + 1 for v in values) if zero_based else tuple(values))


def format_permutation(p: SturmPermutation, zero_based: bool = False) -> str:
    """One-line text form; ``zero_based`` shifts the display to 0..n-1."""
    return " ".join(str(v - 1 if zero_based else v) for v in p.map)


def is_dissipative(p: SturmPermutation) -> bool:
    """True when the permutation fixes both end labels."""
    return p.map[0] == 1 and p.map[-1] == p.n


def _morse_recursion(xs: Sequence[int], anchor: int = 0) -> tuple[int, ...]:
    # xs[t-1] is the axis coordinate (position or window rank) of label t;
    # entry 0 is the anchor Morse number, whose parity orients step t as
    # +1 iff anchor + t is odd (the full curve has anchor 0).
    out = [anchor] * len(xs)
    for t in range(1, len(xs)):
        step = _sign(xs[t] - xs[t - 1])
        out[t] = out[t - 1] + (step if (anchor + t) % 2 == 1 else -step)
    return tuple(out)


def is_morse(p: SturmPermutation) -> bool:
    """True when every Morse number is non-negative."""
    return all(i >= 0 for i in p.morse)


def _require_sturm(p: SturmPermutation) -> None:
    # The one Sturm gate of the package: decided once per input, and never
    # for the results of a Sturm-preserving law, which _derived marks.
    if not p._sturm:
        raise NotSturmError(f"not a Sturm permutation: {p}")


def _derived(entries: Sequence[int]) -> SturmPermutation:
    # A permutation that a Sturm-preserving law built from a gated input:
    # the constructor still checks the bijection, and the cached gate
    # answer is seeded, as _Frozen requires, with object.__setattr__.
    p = SturmPermutation(entries)
    object.__setattr__(p, "_sturm", True)
    return p


def apply_tau(p: SturmPermutation) -> SturmPermutation:
    """Swap the roles of the two boundaries (the involution x -> 1-x).

    At permutation level this is the inverse permutation: exchanging the
    boundaries exchanges the two orders whose composition defines the
    permutation. The relabeling law ``morse(tau p)[k] == morse(p)[sigma(k)]``
    is exercised by the property suite.
    """
    _require_sturm(p)
    return _derived(p.inv)


def apply_kappa(p: SturmPermutation) -> SturmPermutation:
    """Flip the dependent variable (the involution u -> -u).

    Conjugation by the order reversal rho(j) = n+1-j: flipping u reverses
    both boundary orders, so ``morse(kappa p)[j] == morse(p)[n+1-j]``.
    """
    _require_sturm(p)
    n = p.n
    return _derived(tuple(n + 1 - p.map[n - k - 1] for k in range(n)))
