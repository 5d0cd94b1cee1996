"""Connection structure of the attractor encoded by a Sturm permutation.

Morse numbers and zero numbers determine all heteroclinic connections:
a source runs to a target exactly when its Morse number is larger and no
third equilibrium between them (in left-boundary order) realizes the
triple zero-number equality that blocks the connection. Connections
cascade (Fiedler & Rocha, J. Differential Equations 125, 1996), so only
edges that drop the Morse number by one are tested, then closed.
``build_model`` runs one blocker scan per base, over all the labels one
Morse level down; the scan jumps between the labels at which one row
reads the pair's zero number, found by ``tuple.index``. The closure is
kept as one bit mask per label, and each mask becomes its successor tuple
through a byte table: its reversed binary digits, translated to the
bytes 0 and 1, select the set bits with ``itertools.compress``.

On top of the connection criterion this module identifies, for a chosen
unstable equilibrium, its four boundary neighbors, the signed target
sets, and the minimax equilibria (closest at one boundary, most distant
at the other), and machine-checks the minimax property relating them.
A signed target set is a slice of the connection set: the successors of
the base whose signed zero number against it is the given level. One
pass over a base's successors buckets them all, and the whole analysis of
that base is derived from those buckets in one ``MinimaxReport``. Almost
every signed level has one member, which is every extremum and trivially
minimax; such levels share one immutable ``MinimaxExtrema`` per label,
and every report reads its level names ``"0+", "0-", "1+", ...`` as a
slice. Both come from process-wide ``_Grown`` tables.

The four cases of a report come from one loop over a module-level slot
table: per neighbor slot, whether the neighbor is at the left boundary and
its own sign. The paper's rule is then arithmetic on that row: a left
neighbor keeps its sign, a right one swaps it when the base's Morse number
is even, and the case reads the top level of that sign, its closest member
at the neighbor's boundary and its most distant one at the other. The
records built once per base (the neighbors, the cases and the report) are
made with ``tuple.__new__`` from all their fields, which skips the
NamedTuple's generated Python ``__new__``.
"""
from __future__ import annotations

from functools import cached_property
from itertools import compress, count
from typing import (
    TYPE_CHECKING, Callable, Generic, Iterator, Literal, NamedTuple, Optional, Sequence, TypeVar,
)

from .perm import SturmPermutation, _check_int, _Frozen, _require_sturm
from .zeros import Sign, ZeroMatrix, z_matrix

if TYPE_CHECKING:
    # networkx, an optional extra, is imported inside the function that
    # uses it, so importing the package does not load it.
    import networkx as nx

Iota = Literal[0, 1]
_T = TypeVar("_T")

# Builds a NamedTuple from the tuple of all its fields in order, at about
# half the cost of calling the class, whose generated __new__ is Python
# code. The records built once per base use it.
_tuple_new = tuple.__new__


class AttractorModel(_Frozen):
    """Permutation, Morse vector, zero-number matrix, and the connections:
    ``successors[j]`` holds the targets of label j ascending, ``()`` if none."""

    def __init__(
        self,
        p: SturmPermutation,
        morse: tuple[int, ...],
        z: ZeroMatrix,
        successors: tuple[tuple[int, ...], ...],
    ):
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "morse", morse)
        object.__setattr__(self, "z", z)
        object.__setattr__(self, "successors", successors)

    @property
    def n(self) -> int:
        return self.p.n

    def unstable(self) -> Iterator[int]:
        """Labels with positive Morse number, ascending."""
        return (j for j in range(1, self.n + 1) if self.morse[j - 1] > 0)

    def edges(self) -> Iterator[tuple[int, int]]:
        """All connections (source, target) in label order."""
        return ((j, k) for j, ks in enumerate(self.successors) for k in ks)

    @cached_property
    def connections(self) -> frozenset[tuple[int, int]]:
        """The complete set of connections (source, target)."""
        return frozenset(self.edges())


def _blockers(rows, j: int, ks) -> list[Optional[int]]:
    # For each label k in ks, the smallest label blocking j and k, or None;
    # rows are zero-number matrix rows. Between lo and hi, the candidates are
    # the labels at which row lo reads the pair's level z(lo, hi), found by
    # tuple.index; z(lo, hi) itself, at index hi - 1, ends every search.
    out = []
    for k in ks:
        lo, hi = (j, k) if j < k else (k, j)
        row_lo, row_hi, end = rows[lo - 1], rows[hi - 1], hi - 1
        level = row_lo[end]
        i = row_lo.index(level, lo)
        while i < end and row_hi[i] != level:
            i = row_lo.index(level, i + 1)
        out.append(i + 1 if i < end else None)
    return out


def is_z_adjacent(model: AttractorModel, j: int, k: int) -> tuple[bool, Optional[int]]:
    """Whether no equilibrium between j and k blocks their connection.

    Returns ``(True, None)`` or ``(False, witness)`` with the smallest
    blocking label. Blocking means a label strictly between j and k whose
    zero numbers against both endpoints equal the endpoint pair's own.
    """
    _check_int(j, "label j", 1, model.n)
    _check_int(k, "label k", 1, model.n)
    if j == k:
        raise ValueError("z-adjacency requires distinct labels")
    (w,) = _blockers(model.z.values, j, (k,))
    return (w is None), w


# Maps the digits of bin() to the bytes 0 and 1: byte k of a mask's reversed
# digits is then bit k, and compress() keeps the indices of the set bits.
_BITS = bytes.maketrans(b"01", b"\0\1")


def build_model(p: SturmPermutation) -> AttractorModel:
    """Assemble Morse vector, zero numbers, and all connections.

    >>> build_model(SturmPermutation((1, 2, 3))).successors
    ((), (), (1, 3), ())
    """
    _require_sturm(p)
    morse = p.morse
    z = z_matrix(p)
    rows = z.values
    # Ascending Morse order: reach[j] gets bit k for each target k of j,
    # from each unblocked drop-one edge j -> k and the targets of k, which
    # are complete since level[m] holds the visited labels of Morse number m.
    # One blocker scan per base covers all of its drop-one edges.
    reach = [0] * (p.n + 1)
    level: dict[int, list[int]] = {}
    for j in sorted(range(1, p.n + 1), key=lambda v: morse[v - 1]):
        ks = level.get(morse[j - 1] - 1)
        if ks:
            for k, w in zip(ks, _blockers(rows, j, ks)):
                if w is None:
                    reach[j] |= (1 << k) | reach[k]
        level.setdefault(morse[j - 1], []).append(j)
    successors = tuple(
        [tuple(compress(count(), bin(r)[:1:-1].encode().translate(_BITS))) for r in reach]
    )
    return AttractorModel(p=p, morse=morse, z=z, successors=successors)


def connection_graph(model: AttractorModel) -> nx.DiGraph:
    """Directed graph of connections, nodes annotated with Morse numbers.

    Nodes and edges are inserted in label order, so iteration order (and
    any serialization of it) is deterministic.
    Needs networkx, the optional ``graph`` extra.
    """
    try:
        import networkx as nx
    except ImportError as exc:
        raise ImportError('connection_graph needs networkx: pip install "sturm[graph]"') from exc

    g = nx.DiGraph()
    for j in range(1, model.n + 1):
        g.add_node(j, morse=model.morse[j - 1])
    g.add_edges_from(model.edges())
    return g


class NeighborQuartet(NamedTuple):
    """Boundary predecessors/successors, ``None`` at the extremes."""

    w0_minus: Optional[int]
    w0_plus: Optional[int]
    w1_minus: Optional[int]
    w1_plus: Optional[int]


NEIGHBOR_SLOTS = NeighborQuartet._fields


def boundary_neighbors(model: AttractorModel, base: int) -> NeighborQuartet:
    """The four boundary neighbors of an equilibrium.

    At the left boundary the order is the label order itself; at the
    right boundary it is the axis order, read through the permutation.

    >>> model = build_model(SturmPermutation((1, 4, 5, 6, 3, 2, 7)))
    >>> boundary_neighbors(model, 3)
    NeighborQuartet(w0_minus=2, w0_plus=4, w1_minus=6, w1_plus=2)
    """
    _check_int(base, "label base", 1, model.n)
    return _neighbors(model.p, base)


def _neighbors(p: SturmPermutation, base: int) -> NeighborQuartet:
    # base must be a checked label, so the raw tuples skip the accessors'
    # checks; the fields are w0_minus, w0_plus, w1_minus, w1_plus
    n = p.n
    pos = p.inv[base - 1]
    return _tuple_new(
        NeighborQuartet,
        (
            base - 1 if base > 1 else None,
            base + 1 if base < n else None,
            p.map[pos - 2] if pos > 1 else None,
            p.map[pos] if pos < n else None,
        ),
    )


def target_set(model: AttractorModel, base: int, k: int, sign: Sign) -> set[int]:
    """Connected targets of ``base`` at signed zero-number level ``k``.

    >>> model = build_model(SturmPermutation((1, 4, 5, 6, 3, 2, 7)))
    >>> sorted(target_set(model, 3, 1, "+"))
    [4, 5, 6]
    """
    n_base = _unstable_morse(model, base)
    _check_int(k, "level k", 0, n_base - 1)
    if sign not in ("+", "-"):
        raise ValueError(f"sign {sign!r} is not '+' or '-'")
    return set(_buckets(model, base)[2 * k + (sign == "-")])


def _buckets(model: AttractorModel, base: int) -> list[list[int]]:
    # The signed target sets of base, one slot per level below its Morse
    # number: slot 2k holds level k+ and slot 2k + 1 level k-, members
    # ascending. A connection drops the zero number below the base's Morse
    # number, so every successor has a slot.
    row = model.z.values[base - 1]
    slots: list[list[int]] = [[] for _ in range(2 * model.morse[base - 1])]
    for w in model.successors[base]:
        slots[2 * row[w - 1] + (w < base)].append(w)
    return slots


class MinimaxExtrema(NamedTuple):
    """Extremes of a target set under the two boundary distances."""

    closest_at_0: int
    closest_at_1: int
    farthest_at_0: int
    farthest_at_1: int

    @property
    def minimax_holds(self) -> bool:
        """The closest member at each boundary is the most distant one
        at the other."""
        return self.closest_at_0 == self.farthest_at_1 and self.closest_at_1 == self.farthest_at_0


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
    return _extrema(model.p, base, sorted(members))


def _extrema(p: SturmPermutation, base: int, members: Sequence[int]) -> MinimaxExtrema:
    # Precondition: members is one non-empty signed level, ascending. So
    # all of them lie on one side of base, and at boundary 0 the closest
    # is the end nearest base and the farthest the other end.
    near, far = (members[0], members[-1]) if members[0] > base else (members[-1], members[0])
    # At boundary 1 a tie goes to the smallest label, the first in order.
    inv = p.inv
    pos0 = inv[base - 1]
    d1 = [abs(inv[w - 1] - pos0) for w in members]
    return MinimaxExtrema(
        closest_at_0=near,
        closest_at_1=members[d1.index(min(d1))],
        farthest_at_0=far,
        farthest_at_1=members[d1.index(max(d1))],
    )


def _unstable_morse(model: AttractorModel, base: int) -> int:
    _check_int(base, "label base", 1, model.p.n)
    n_base = model.morse[base - 1]
    if n_base < 1:
        raise ValueError(f"equilibrium {base} is stable")
    return n_base


class _Grown(Generic[_T]):
    """A process-wide table ``build(0), build(1), ...`` of what depends on
    nothing but an index, so every caller shares one object per index.

    ``upto(size)`` returns the table as a tuple of at least ``size``
    entries. The table is never cleared: it grows by replacing the whole
    tuple with a longer one that keeps the old entries, so a reader never
    sees a partial table. Two threads that grow it at once may each build
    an extension; either is correct, and each gets one long enough.
    """

    __slots__ = ("build", "items")

    def __init__(self, build: Callable[[int], _T]) -> None:
        self.build = build
        self.items: tuple[_T, ...] = ()

    def upto(self, size: int) -> tuple[_T, ...]:
        items = self.items
        if len(items) < size:
            items = self.items = items + tuple([self.build(i) for i in range(len(items), size)])
        return items


# At index w, the extrema of a one-member signed level {w}: w at every boundary.
_SINGLETONS: _Grown[MinimaxExtrema] = _Grown(lambda w: MinimaxExtrema(w, w, w, w))
# At index i, the name of the signed level i: "0+", "0-", "1+", ...
_LEVEL_NAMES: _Grown[str] = _Grown(lambda i: f"{i >> 1}{'+-'[i & 1]}")


class MinimaxCase(NamedTuple):
    """One boundary neighbor of the base and, when it is one Morse level
    lower (applicable), the closest member of its associated signed target
    set at the neighbor's boundary and the most distant member at the
    opposite boundary."""

    slot: str
    neighbor: Optional[int]
    applicable: bool
    sign: Optional[Sign] = None
    iota: Optional[Iota] = None
    closest: Optional[int] = None
    farthest_opposite: Optional[int] = None

    @property
    def neighbor_is_closest(self) -> Optional[bool]:
        """Whether the neighbor is the closest member; ``None`` if not applicable."""
        return self.neighbor == self.closest if self.applicable else None

    @property
    def passed(self) -> Optional[bool]:
        """Whether the closest member is the most distant one at the
        opposite boundary; ``None`` if not applicable."""
        return self.closest == self.farthest_opposite if self.applicable else None


# One row per neighbor slot: its name, zipped in from NEIGHBOR_SLOTS, whether
# its neighbor is at the left boundary (iota 0), and its own sign as a
# bucket offset, 0 for "+" and 1 for "-". Left-boundary neighbors keep
# their own sign for every Morse number; right-boundary neighbors swap it
# when the Morse number is even.
_SLOT_TABLE = tuple(
    (slot, *row)
    for slot, row in zip(NEIGHBOR_SLOTS, ((True, 1), (True, 0), (False, 1), (False, 0)))
)


class MinimaxReport(NamedTuple):
    """The minimax analysis of one unstable equilibrium.

    ``target_sets`` holds every signed level ``"k+"``/``"k-"`` below the
    base's Morse number in the order ``"0+", "0-", "1+", ...``, empty ones
    included; ``extrema`` holds the non-empty ones only, in the same
    order; ``cases`` holds one record per neighbor slot.
    """

    base: int
    n: int
    neighbors: NeighborQuartet
    target_sets: dict[str, tuple[int, ...]]
    extrema: dict[str, MinimaxExtrema]
    cases: tuple[MinimaxCase, ...]

    @property
    def applicable_cases(self) -> tuple[MinimaxCase, ...]:
        return tuple(c for c in self.cases if c.applicable)

    @property
    def passed(self) -> bool:
        """The theorem: every applicable case passes."""
        return all(c.passed for c in self.applicable_cases)

    @property
    def extended_passed(self) -> bool:
        """The minimax equality at every non-empty signed level, beyond
        the theorem's hypothesis (reported only)."""
        return all(ex.minimax_holds for ex in self.extrema.values())


def minimax_report(model: AttractorModel, base: int) -> MinimaxReport:
    """Check the minimax property at one unstable equilibrium.

    For each boundary neighbor with Morse number one below the base, the
    member of the associated signed target set closest to the base at the
    neighbor's boundary must be the one most distant at the opposite
    boundary. Levels below the top one are evaluated as well and reported
    separately; they are not part of the theorem's hypothesis. A level
    with one member w gets the process-wide ``MinimaxExtrema(w, w, w, w)``,
    which every report shares; a larger level gets its own.

    >>> model = build_model(SturmPermutation((1, 4, 5, 6, 3, 2, 7)))
    >>> report = minimax_report(model, 3)
    >>> report.target_sets["1+"], report.extrema["1+"]
    ((4, 5, 6), MinimaxExtrema(closest_at_0=4, closest_at_1=6, farthest_at_0=6, farthest_at_1=4))
    >>> [(c.slot, c.neighbor, c.closest, c.farthest_opposite) for c in report.cases]
    [('w0_minus', 2, 2, 2), ('w0_plus', 4, 4, 4), ('w1_minus', 6, 6, 6), ('w1_plus', 2, 2, 2)]
    >>> report.passed, report.extended_passed
    (True, True)
    """
    n_base = _unstable_morse(model, base)
    names = _LEVEL_NAMES.upto(2 * n_base)[: 2 * n_base]
    single = _SINGLETONS.upto(model.n + 1)
    target_sets = dict(zip(names, map(tuple, _buckets(model, base))))
    p = model.p
    extrema = {
        key: single[ws[0]] if len(ws) == 1 else _extrema(p, base, ws)
        for key, ws in target_sets.items()
        if ws
    }
    neighbors = _neighbors(p, base)
    # A neighbor one Morse level down reads the top level of its
    # associated sign: names[top + s] names bucket offset s of that level.
    morse, below, top, swap = model.morse, n_base - 1, 2 * n_base - 2, n_base % 2 == 0
    cases = []
    for (slot, left, own), neighbor in zip(_SLOT_TABLE, neighbors):
        if neighbor is None or morse[neighbor - 1] != below:
            cases.append(_tuple_new(MinimaxCase, (slot, neighbor, False, None, None, None, None)))
            continue
        s = own if left or not swap else 1 - own
        key = names[top + s]
        ex = extrema.get(key)
        if ex is None:
            raise ValueError(f"target set {key} of {base} is empty")
        if left:
            case = (slot, neighbor, True, "+-"[s], 0, ex.closest_at_0, ex.farthest_at_1)
        else:
            case = (slot, neighbor, True, "+-"[s], 1, ex.closest_at_1, ex.farthest_at_0)
        cases.append(_tuple_new(MinimaxCase, case))
    report = (base, n_base, neighbors, target_sets, extrema, tuple(cases))
    return _tuple_new(MinimaxReport, report)


# A permutation's model and the minimax report of each unstable base.
Analysis = tuple[AttractorModel, dict[int, MinimaxReport]]


def _analyze(p: SturmPermutation) -> Analysis:
    model = build_model(p)
    return model, {base: minimax_report(model, base) for base in model.unstable()}

