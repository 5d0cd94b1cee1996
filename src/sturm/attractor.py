"""Connection structure of the attractor encoded by a Sturm permutation.

Morse numbers and zero numbers determine all heteroclinic connections:
a source runs to a target exactly when its Morse number is larger and no
third equilibrium between them (in left-boundary order) realizes the
triple zero-number equality that blocks the connection. The connection
set is computed once per model, one vectorized source row at a time.

On top of the connection criterion this module identifies, for a chosen
unstable equilibrium, its four boundary neighbors, the signed target
sets, and the minimax equilibria (closest at one boundary, most distant
at the other), and machine-checks the minimax property relating them.
A signed target set is a slice of the connection set: the successors of
the base whose signed zero number against it is the given level. One
pass over a base's successors buckets them all, and the analysis of that
base (sets, extrema, identifications, verdicts) is derived from the one
table of buckets and their extrema.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING, Iterator, Literal, NamedTuple, Optional

from .perm import SturmPermutation, _check_labels, _require_sturm
from .zeros import Sign, SignedZero, ZeroMatrix, z_matrix

if TYPE_CHECKING:
    # numpy and networkx are imported inside the functions that use them,
    # so importing the package loads neither.
    import networkx as nx

__all__ = [
    "AttractorModel",
    "build_model",
    "is_z_adjacent",
    "connects",
    "connection_graph",
    "NeighborQuartet",
    "boundary_neighbors",
    "target_set",
    "MinimaxExtrema",
    "minimax",
    "NeighborIdentification",
    "identify_neighbors",
    "MinimaxCase",
    "ExtendedCheck",
    "TheoremVerdict",
    "verify_minimax_theorem",
    "MinimaxReport",
    "minimax_report",
    "NEIGHBOR_SLOTS",
]

Iota = Literal[0, 1]

NEIGHBOR_SLOTS = ("w0_minus", "w0_plus", "w1_minus", "w1_plus")


@dataclass(frozen=True, eq=False)
class AttractorModel:
    """Permutation together with its Morse vector, zero-number matrix,
    and the complete set of heteroclinic connections (source, target)."""

    p: SturmPermutation
    morse: tuple[int, ...]
    z: ZeroMatrix
    connections: frozenset[tuple[int, int]]

    @property
    def n(self) -> int:
        return self.p.n

    def signed_z(self, base: int, w: int) -> SignedZero:
        return SignedZero(z=self.z.pair(base, w), sign="+" if w > base else "-")

    def unstable(self) -> Iterator[int]:
        """Labels with positive Morse number, ascending."""
        return (j for j in range(1, self.n + 1) if self.morse[j - 1] > 0)

    @cached_property
    def _successors(self) -> dict[int, tuple[int, ...]]:
        # Targets of each source, ascending; sources without targets are absent.
        out: dict[int, list[int]] = {}
        for j, k in sorted(self.connections):
            out.setdefault(j, []).append(k)
        return {j: tuple(ks) for j, ks in out.items()}


def _blocker(z: ZeroMatrix, j: int, k: int) -> Optional[int]:
    lo, hi = min(j, k), max(j, k)
    level = z.pair(j, k)
    for w in range(lo + 1, hi):
        if z.pair(j, w) == level and z.pair(w, k) == level:
            return w
    return None


def is_z_adjacent(model: AttractorModel, j: int, k: int) -> tuple[bool, Optional[int]]:
    """Whether no equilibrium between j and k blocks their connection.

    Returns ``(True, None)`` or ``(False, witness)`` with the smallest
    blocking label. Blocking means a label strictly between j and k whose
    zero numbers against both endpoints equal the endpoint pair's own.
    """
    if j == k:
        raise ValueError("z-adjacency requires distinct labels")
    w = _blocker(model.z, j, k)
    return (w is None), w


def connects(model: AttractorModel, j: int, k: int) -> bool:
    """Heteroclinic connection criterion: Morse drop plus z-adjacency."""
    if j == k:
        raise ValueError("connection test requires distinct labels")
    _check_labels(model.n, j=j, k=k)
    if model.morse[j - 1] <= model.morse[k - 1]:
        return False
    return _blocker(model.z, j, k) is None


def build_model(p: SturmPermutation) -> AttractorModel:
    """Assemble Morse vector, zero numbers, and all connections.

    >>> sorted(build_model(SturmPermutation((1, 2, 3))).connections)
    [(2, 1), (2, 3)]
    """
    import numpy as np

    _require_sturm(p)
    morse = p.morse
    z = z_matrix(p)
    zv = z.values
    depth = np.asarray(morse)
    idx = np.arange(p.n)
    edges = []
    for j in range(p.n):
        # Candidate targets k (Morse drop), tested all at once: some w
        # strictly between j and k with Z[j,w] == Z[j,k] == Z[w,k] blocks.
        ks = np.flatnonzero(depth < depth[j])
        if not ks.size:
            continue
        level = zv[j, ks][:, None]
        lo = np.minimum(ks, j)[:, None]
        hi = np.maximum(ks, j)[:, None]
        blocked = (
            (idx > lo) & (idx < hi) & (zv[j] == level) & (zv[ks] == level)
        ).any(axis=1)
        edges.extend((j + 1, int(k) + 1) for k in ks[~blocked])
    return AttractorModel(p=p, morse=morse, z=z, connections=frozenset(edges))


def connection_graph(model: AttractorModel) -> nx.DiGraph:
    """Directed graph of connections, nodes annotated with Morse numbers.

    Nodes are inserted in label order and edges in sorted order, so
    iteration order (and any serialization of it) is deterministic.
    """
    import networkx as nx

    g = nx.DiGraph()
    for j in range(1, model.n + 1):
        g.add_node(j, morse=model.morse[j - 1])
    g.add_edges_from(sorted(model.connections))
    return g


class NeighborQuartet(NamedTuple):
    """Boundary predecessors/successors, ``None`` at the extremes."""

    w0_minus: Optional[int]
    w0_plus: Optional[int]
    w1_minus: Optional[int]
    w1_plus: Optional[int]


def boundary_neighbors(model: AttractorModel, base: int) -> NeighborQuartet:
    """The four boundary neighbors of an equilibrium.

    At the left boundary the order is the label order itself; at the
    right boundary it is the axis order, read through the permutation.

    >>> model = build_model(SturmPermutation((1, 4, 5, 6, 3, 2, 7)))
    >>> boundary_neighbors(model, 3)
    NeighborQuartet(w0_minus=2, w0_plus=4, w1_minus=6, w1_plus=2)
    """
    p = model.p
    n = model.n
    if not 1 <= base <= n:
        raise ValueError(f"label {base} out of range 1..{n}")
    # base is checked above, so the raw tuples skip the accessors' checks
    pos = p.inv[base - 1]
    return NeighborQuartet(
        w0_minus=base - 1 if base > 1 else None,
        w0_plus=base + 1 if base < n else None,
        w1_minus=p.map[pos - 2] if pos > 1 else None,
        w1_plus=p.map[pos] if pos < n else None,
    )


def target_set(model: AttractorModel, base: int, k: int, sign: Sign) -> set[int]:
    """Connected targets of ``base`` at signed zero-number level ``k``.

    >>> model = build_model(SturmPermutation((1, 4, 5, 6, 3, 2, 7)))
    >>> sorted(target_set(model, 3, 1, "+"))
    [4, 5, 6]
    """
    _check_labels(model.n, base=base)
    n_base = model.morse[base - 1]
    if n_base == 0:
        raise ValueError(f"equilibrium {base} is stable, it has no targets")
    if not 0 <= k < n_base:
        raise ValueError(f"level k={k} out of range 0..{n_base - 1}")
    return set(_buckets(model, base).get((k, sign), ()))


def _buckets(model: AttractorModel, base: int) -> dict[tuple[int, Sign], tuple[int, ...]]:
    # Non-empty signed target sets of base, keyed by (z, sign), members ascending.
    row = model.z.values[base - 1].tolist()
    out: dict[tuple[int, Sign], list[int]] = {}
    for w in model._successors.get(base, ()):
        out.setdefault((row[w - 1], "+" if w > base else "-"), []).append(w)
    return {key: tuple(ws) for key, ws in out.items()}


class MinimaxExtrema(NamedTuple):
    """Extremes of a target set under the two boundary distances."""

    closest_at_0: int
    closest_at_1: int
    farthest_at_0: int
    farthest_at_1: int


def minimax(model: AttractorModel, base: int, k: int, sign: Sign) -> MinimaxExtrema:
    """Closest and most distant members of a target set at each boundary.

    Distance at the left boundary is label distance; at the right
    boundary it is axis-position distance. Only the orders matter, and
    within one signed level all members sit on the same side of the base
    equilibrium at both boundaries, so the extrema are unambiguous.
    """
    members = target_set(model, base, k, sign)
    if not members:
        raise ValueError(f"target set {k}{sign} of {base} is empty")
    return _extrema(model.p, base, members)


def _extrema(p: SturmPermutation, base: int, members) -> MinimaxExtrema:
    if len(members) == 1:
        (w,) = members
        return MinimaxExtrema(w, w, w, w)
    inv = p.inv
    pos0 = inv[base - 1]

    def d0(w: int) -> tuple[int, int]:
        return abs(w - base), w

    def d1(w: int) -> tuple[int, int]:
        return abs(inv[w - 1] - pos0), w

    return MinimaxExtrema(
        closest_at_0=min(members, key=d0),
        closest_at_1=min(members, key=d1),
        farthest_at_0=max(members, key=lambda w: (d0(w)[0], -w)),
        farthest_at_1=max(members, key=lambda w: (d1(w)[0], -w)),
    )


_LevelTable = dict[tuple[int, Sign], tuple[tuple[int, ...], MinimaxExtrema]]


def _unstable_morse(model: AttractorModel, base: int) -> int:
    n_base = model.morse[base - 1]
    if n_base < 1:
        raise ValueError(f"equilibrium {base} is stable")
    return n_base


def _level_table(model: AttractorModel, base: int) -> _LevelTable:
    # Every non-empty signed level of base: its members and their extrema.
    return {
        key: (members, _extrema(model.p, base, members))
        for key, members in _buckets(model, base).items()
    }


def _level_extrema(table: _LevelTable, base: int, k: int, sign: Sign) -> MinimaxExtrema:
    if (k, sign) not in table:
        raise ValueError(f"target set {k}{sign} of {base} is empty")
    return table[k, sign][1]


def _associated_sign(slot: str, n_base: int) -> Sign:
    # The sign of the minimax equilibrium a neighbor identifies with.
    # Left-boundary neighbors keep their own sign for every Morse number;
    # right-boundary neighbors swap sign when the Morse number is even.
    own: Sign = "+" if slot.endswith("plus") else "-"
    if slot.startswith("w0") or n_base % 2 == 1:
        return own
    return "+" if own == "-" else "-"


@dataclass(frozen=True)
class NeighborIdentification:
    """Predicted identity of one boundary neighbor with a minimax
    equilibrium, checked against the actual extrema."""

    slot: str
    neighbor: Optional[int]
    neighbor_morse: Optional[int]
    applicable: bool
    sign: Optional[Sign] = None
    iota: Optional[Iota] = None
    predicted: Optional[int] = None
    matches: Optional[bool] = None


def identify_neighbors(model: AttractorModel, base: int) -> dict[str, NeighborIdentification]:
    """Match each more-stable boundary neighbor with its minimax equilibrium.

    A neighbor is applicable when it exists and has Morse number one less
    than the base; neighbors one level more unstable are reported as not
    applicable. For applicable ones the prediction is the closest member
    of the associated signed target set at the neighbor's own boundary.
    """
    n_base = _unstable_morse(model, base)
    return _identify(model, base, n_base, _level_table(model, base))


def _identify(
    model: AttractorModel, base: int, n_base: int, table: _LevelTable
) -> dict[str, NeighborIdentification]:
    quartet = boundary_neighbors(model, base)
    out: dict[str, NeighborIdentification] = {}
    for slot in NEIGHBOR_SLOTS:
        nb = getattr(quartet, slot)
        nb_morse = model.morse[nb - 1] if nb is not None else None
        if nb is None or nb_morse != n_base - 1:
            out[slot] = NeighborIdentification(
                slot=slot, neighbor=nb, neighbor_morse=nb_morse, applicable=False
            )
            continue
        sign = _associated_sign(slot, n_base)
        iota: Iota = 0 if slot.startswith("w0") else 1
        extrema = _level_extrema(table, base, n_base - 1, sign)
        predicted = extrema.closest_at_0 if iota == 0 else extrema.closest_at_1
        out[slot] = NeighborIdentification(
            slot=slot,
            neighbor=nb,
            neighbor_morse=nb_morse,
            applicable=True,
            sign=sign,
            iota=iota,
            predicted=predicted,
            matches=(predicted == nb),
        )
    return out


@dataclass(frozen=True)
class MinimaxCase:
    """One theorem case: a more-stable boundary neighbor and the minimax
    equality it induces on its associated signed target set."""

    slot: str
    neighbor: Optional[int]
    applicable: bool
    sign: Optional[Sign] = None
    iota: Optional[Iota] = None
    closest: Optional[int] = None
    farthest_opposite: Optional[int] = None
    neighbor_is_closest: Optional[bool] = None
    passed: Optional[bool] = None


@dataclass(frozen=True)
class ExtendedCheck:
    """Minimax equality at one signed level, checked for completeness
    beyond the theorem hypothesis (not required, reported only)."""

    k: int
    sign: Sign
    empty: bool
    closest_at_0: Optional[int] = None
    farthest_at_1: Optional[int] = None
    closest_at_1: Optional[int] = None
    farthest_at_0: Optional[int] = None

    @property
    def passed(self) -> Optional[bool]:
        if self.empty:
            return None
        return (
            self.closest_at_0 == self.farthest_at_1
            and self.closest_at_1 == self.farthest_at_0
        )


@dataclass(frozen=True)
class TheoremVerdict:
    """Outcome of the minimax verification at one unstable equilibrium."""

    base: int
    n: int
    cases: tuple[MinimaxCase, ...]
    extended: tuple[ExtendedCheck, ...] = field(default_factory=tuple)

    @property
    def applicable_cases(self) -> tuple[MinimaxCase, ...]:
        return tuple(c for c in self.cases if c.applicable)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.applicable_cases)

    @property
    def extended_passed(self) -> bool:
        return all(e.passed for e in self.extended if not e.empty)


def verify_minimax_theorem(model: AttractorModel, base: int) -> TheoremVerdict:
    """Check the minimax property at one unstable equilibrium.

    For each boundary neighbor with Morse number one below the base, the
    member of the associated signed target set closest to the base at the
    neighbor's boundary must be the one most distant at the opposite
    boundary. Levels below the top one are evaluated as well and reported
    separately; they are not part of the theorem's hypothesis.
    """
    n_base = _unstable_morse(model, base)
    table = _level_table(model, base)
    return _verdict(base, n_base, _identify(model, base, n_base, table), table)


def _verdict(
    base: int,
    n_base: int,
    idents: dict[str, NeighborIdentification],
    table: _LevelTable,
) -> TheoremVerdict:
    cases = []
    for slot in NEIGHBOR_SLOTS:
        ident = idents[slot]
        if not ident.applicable:
            cases.append(
                MinimaxCase(slot=slot, neighbor=ident.neighbor, applicable=False)
            )
            continue
        extrema = _level_extrema(table, base, n_base - 1, ident.sign)
        if ident.iota == 0:
            closest, far_opposite = extrema.closest_at_0, extrema.farthest_at_1
        else:
            closest, far_opposite = extrema.closest_at_1, extrema.farthest_at_0
        cases.append(
            MinimaxCase(
                slot=slot,
                neighbor=ident.neighbor,
                applicable=True,
                sign=ident.sign,
                iota=ident.iota,
                closest=closest,
                farthest_opposite=far_opposite,
                neighbor_is_closest=(ident.neighbor == closest),
                passed=(closest == far_opposite),
            )
        )
    extended = []
    for k in range(n_base):
        for sign in ("+", "-"):
            if (k, sign) not in table:
                extended.append(ExtendedCheck(k=k, sign=sign, empty=True))
                continue
            ex = table[k, sign][1]
            extended.append(
                ExtendedCheck(
                    k=k,
                    sign=sign,
                    empty=False,
                    closest_at_0=ex.closest_at_0,
                    farthest_at_1=ex.farthest_at_1,
                    closest_at_1=ex.closest_at_1,
                    farthest_at_0=ex.farthest_at_0,
                )
            )
    return TheoremVerdict(base=base, n=n_base, cases=tuple(cases), extended=tuple(extended))


@dataclass(frozen=True)
class MinimaxReport:
    """Everything the minimax analysis produces for one equilibrium."""

    base: int
    n: int
    neighbors: NeighborQuartet
    target_sets: dict[str, tuple[int, ...]]
    extrema: dict[str, MinimaxExtrema]
    identifications: dict[str, NeighborIdentification]
    verdict: TheoremVerdict


def minimax_report(model: AttractorModel, base: int) -> MinimaxReport:
    """Full per-equilibrium record: neighbors, target sets at every
    signed level, top-level extrema, identifications, and verdicts."""
    n_base = _unstable_morse(model, base)
    table = _level_table(model, base)
    sets: dict[str, tuple[int, ...]] = {}
    for k in range(n_base):
        for sign in ("+", "-"):
            sets[f"{k}{sign}"] = table[k, sign][0] if (k, sign) in table else ()
    extrema = {
        f"{n_base - 1}{sign}": table[n_base - 1, sign][1]
        for sign in ("+", "-")
        if (n_base - 1, sign) in table
    }
    idents = _identify(model, base, n_base, table)
    return MinimaxReport(
        base=base,
        n=n_base,
        neighbors=boundary_neighbors(model, base),
        target_sets=sets,
        extrema=extrema,
        identifications=idents,
        verdict=_verdict(base, n_base, idents, table),
    )
