"""Connection structure of the attractor encoded by a Sturm permutation.

Morse numbers and zero numbers determine all heteroclinic connections:
a source runs to a target exactly when its Morse number is larger and no
third equilibrium between them (in left-boundary order) realizes the
triple zero-number equality that blocks the connection. Connections
cascade (Fiedler & Rocha, J. Differential Equations 125, 1996), so only
edges that drop the Morse number by one are tested, then closed.

On top of the connection criterion this module identifies, for a chosen
unstable equilibrium, its four boundary neighbors, the signed target
sets, and the minimax equilibria (closest at one boundary, most distant
at the other), and machine-checks the minimax property relating them.
A signed target set is a slice of the connection set: the successors of
the base whose signed zero number against it is the given level. One
pass over a base's successors buckets them all, and the whole analysis of
that base is derived from those buckets in one ``MinimaxReport``. Almost
every signed level has one member, which is every extremum and trivially
minimax; such levels share one immutable ``MinimaxExtrema`` per label and
model, built once with the model's first report. The level names
``"0+", "0-", "1+", ...`` are likewise built once per model, up to its
largest Morse number, and each report reads its own as a slice, so a base
formats no names.
"""
from __future__ import annotations

from functools import cached_property
from typing import TYPE_CHECKING, Callable, Iterator, Literal, NamedTuple, Optional, Sequence

from .perm import SturmPermutation, _check_labels, _echo_int, _Frozen, _require_sturm
from .zeros import Sign, ZeroMatrix, z_matrix

if TYPE_CHECKING:
    # networkx, an optional extra, is imported inside the function that
    # uses it, so importing the package does not load it.
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
    "MinimaxCase",
    "MinimaxReport",
    "minimax_report",
    "NEIGHBOR_SLOTS",
]

Iota = Literal[0, 1]

NEIGHBOR_SLOTS = ("w0_minus", "w0_plus", "w1_minus", "w1_plus")


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

    @cached_property
    def _singletons(self) -> tuple[MinimaxExtrema, ...]:
        # At index w, the extrema of a one-member signed level {w}: w at
        # every boundary. Immutable, so every report of the model shares them.
        return tuple([MinimaxExtrema(w, w, w, w) for w in range(self.n + 1)])

    @cached_property
    def _level_names(self) -> tuple[str, ...]:
        # "0+", "0-", "1+", ... up to the largest Morse number: a base of
        # Morse number m names its 2m signed levels with the first 2m.
        return tuple([f"{k}{sign}" for k in range(max(self.morse)) for sign in "+-"])


def _blocker(rows, j: int, k: int) -> Optional[int]:
    # The smallest blocking label; rows are zero-number matrix rows.
    row_j, row_k = rows[j - 1], rows[k - 1]
    level = row_j[k - 1]
    for w in range(min(j, k) + 1, max(j, k)):
        if row_j[w - 1] == level and row_k[w - 1] == level:
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
    _check_labels(model.n, j=j, k=k)
    w = _blocker(model.z.values, j, k)
    return (w is None), w


def connects(model: AttractorModel, j: int, k: int) -> bool:
    """Heteroclinic connection criterion: Morse drop plus z-adjacency."""
    if j == k:
        raise ValueError("connection test requires distinct labels")
    _check_labels(model.n, j=j, k=k)
    return model.morse[j - 1] > model.morse[k - 1] and _blocker(model.z.values, j, k) is None


def build_model(p: SturmPermutation) -> AttractorModel:
    """Assemble Morse vector, zero numbers, and all connections.

    >>> build_model(SturmPermutation((1, 2, 3))).successors
    ((), (), (1, 3), ())
    """
    _require_sturm(p)
    morse = p.morse
    z = z_matrix(p)
    # Ascending Morse order: reach[j] gets bit k for each target k of j,
    # from each unblocked drop-one edge j -> k and the targets of k, which
    # are complete since level[m] holds the visited labels of Morse number m.
    reach = [0] * (p.n + 1)
    level: dict[int, list[int]] = {}
    for j in sorted(range(1, p.n + 1), key=lambda v: morse[v - 1]):
        for k in level.get(morse[j - 1] - 1, ()):
            if _blocker(z.values, j, k) is None:
                reach[j] |= (1 << k) | reach[k]
        level.setdefault(morse[j - 1], []).append(j)
    successors = tuple([tuple([k for k, b in enumerate(bin(r)[::-1]) if b == "1"]) for r in reach])
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


def boundary_neighbors(model: AttractorModel, base: int) -> NeighborQuartet:
    """The four boundary neighbors of an equilibrium.

    At the left boundary the order is the label order itself; at the
    right boundary it is the axis order, read through the permutation.

    >>> model = build_model(SturmPermutation((1, 4, 5, 6, 3, 2, 7)))
    >>> boundary_neighbors(model, 3)
    NeighborQuartet(w0_minus=2, w0_plus=4, w1_minus=6, w1_plus=2)
    """
    _check_labels(model.n, base=base)
    return _neighbors(model.p, base)


def _neighbors(p: SturmPermutation, base: int) -> NeighborQuartet:
    # base must be a checked label, so the raw tuples skip the accessors' checks
    n = p.n
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
    n_base = _unstable_morse(model, base)
    if not 0 <= k < n_base:
        raise ValueError(f"level k={_echo_int(k)} out of range 0..{n_base - 1}")
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
    _check_labels(model.n, base=base)
    n_base = model.morse[base - 1]
    if n_base < 1:
        raise ValueError(f"equilibrium {base} is stable")
    return n_base


def _associated_sign(slot: str, n_base: int) -> Sign:
    # The sign of the minimax equilibrium a neighbor identifies with.
    # Left-boundary neighbors keep their own sign for every Morse number;
    # right-boundary neighbors swap sign when the Morse number is even.
    own: Sign = "+" if slot.endswith("plus") else "-"
    if slot.startswith("w0") or n_base % 2 == 1:
        return own
    return "+" if own == "-" else "-"


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


def _case(
    model: AttractorModel,
    base: int,
    n_base: int,
    slot: str,
    neighbor: Optional[int],
    names: tuple[str, ...],
    extrema: dict[str, MinimaxExtrema],
) -> MinimaxCase:
    # names are the base's level names, so the last two are the top level's
    if neighbor is None or model.morse[neighbor - 1] != n_base - 1:
        return MinimaxCase(slot=slot, neighbor=neighbor, applicable=False)
    sign = _associated_sign(slot, n_base)
    key = names[-1] if sign == "-" else names[-2]
    if key not in extrema:
        raise ValueError(f"target set {key} of {base} is empty")
    ex = extrema[key]
    if slot.startswith("w0"):
        return MinimaxCase(slot, neighbor, True, sign, 0, ex.closest_at_0, ex.farthest_at_1)
    return MinimaxCase(slot, neighbor, True, sign, 1, ex.closest_at_1, ex.farthest_at_0)


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
    with one member w gets the model's shared ``MinimaxExtrema(w, w, w, w)``,
    so reports of one model share these objects; a larger level gets its own.

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
    names = model._level_names[: 2 * n_base]
    target_sets = dict(zip(names, map(tuple, _buckets(model, base))))
    p, single = model.p, model._singletons
    extrema = {
        key: single[ws[0]] if len(ws) == 1 else _extrema(p, base, ws)
        for key, ws in target_sets.items()
        if ws
    }
    neighbors = _neighbors(p, base)
    cases = tuple(
        [
            _case(model, base, n_base, slot, neighbor, names, extrema)
            for slot, neighbor in zip(NEIGHBOR_SLOTS, neighbors)
        ]
    )
    return MinimaxReport(base, n_base, neighbors, target_sets, extrema, cases)


# A permutation's model and the minimax report of each unstable base.
Analysis = tuple[AttractorModel, dict[int, MinimaxReport]]


def _analyze(p: SturmPermutation) -> Analysis:
    model = build_model(p)
    return model, {base: minimax_report(model, base) for base in model.unstable()}


def _levels(
    report: MinimaxReport,
    relabel: Callable[[int], int] = lambda w: w,
    shift: int = 0,
    flips: Callable[[int], bool] = lambda k: False,
    swap: bool = False,
) -> dict[str, tuple[tuple[int, ...], MinimaxExtrema]]:
    """The non-empty signed levels ``{"k±": (members, extrema)}`` of a
    report seen through a symmetry: labels relabelled (members sorted),
    level k moved to k + shift, the sign flipped where ``flips(k)``, and
    the two boundaries exchanged when ``swap``. The defaults give the
    report itself, so two reports correspond under a symmetry exactly when
    the image of one equals the levels of the other."""
    out: dict[str, tuple[tuple[int, ...], MinimaxExtrema]] = {}
    for key, ex in report.extrema.items():
        k, sign = int(key[:-1]), key[-1]
        if flips(k):
            sign = "+" if sign == "-" else "-"
        if swap:
            ex = MinimaxExtrema(
                ex.closest_at_1, ex.closest_at_0, ex.farthest_at_1, ex.farthest_at_0
            )
        out[f"{k + shift}{sign}"] = (
            tuple(sorted(map(relabel, report.target_sets[key]))),
            MinimaxExtrema(*map(relabel, ex)),
        )
    return out
