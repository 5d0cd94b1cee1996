"""Independent oracles for the combinatorial routines.

The two geometric oracles work on the rendered geometry of the canonical
diagram (crossings at integer abscissae, arcs as true semicircles) with
float arithmetic, so they share no code path with the sign-bookkeeping
they cross-check; they read only the arcs of ``build_diagram`` and sort
them by side themselves. The numpy zero-number oracle is the vectorized
form of the descending recursion that ``zeros._zero_matrix_values`` runs
row by row in plain Python. The connection oracles compute the connection set
without the cascade that ``build_model`` relies on: one tests every
Morse-dropping pair with numpy, one source row at a time, the other
applies the scalar criterion (Morse drop plus ``is_z_adjacent``) pair by
pair. That scalar criterion shares its blocker scan with ``build_model``,
so the numpy blocker oracle witnesses the scan itself: it finds the
smallest blocking label of each pair by whole-row comparisons on the
numpy zero numbers, where ``attractor._blockers`` jumps between the
labels at which one row reads the pair's level. The target-set oracle
scans every label for the bucketed target sets and applies the same
scalar criterion inline. The distance-extrema
oracle takes the min and max of each boundary distance over a set in any
order, where ``attractor._extrema`` reads boundary 0 off the ascending members.
The JSON oracle is the standard library encoder that ``report.to_json``
replaces. The prefix backtrack oracle is the enumerator that checks Morse
numbers only over complete label prefixes, through its own table-driven
stack step (each label's arcs listed with their sides), where
``enumeration`` prunes at every decided step, from both ends, and reads
the sides off label parity inline. The minimax record oracle builds each
record from the report's NamedTuples with ``_asdict``, where
``report.minimax_record`` writes dict displays and zips field names onto
the tuples. The loop crossing oracle adds up the signed crossings one
curve step at a time, where ``crossing._prefix_line`` builds all prefix
counts of one line in a single C-level pass and its readers take the
difference of two entries; the loop window oracle runs the pairwise
identity over it pair by pair, where ``window.window_z`` reads each row
off one prefix line. The minimax
case oracle derives each neighbor slot's case from the paper's rule, with
the neighbors read off label and axis order, the top-level target set from
the label scan and the extrema from the distance-extrema oracle, where
``attractor.minimax_report`` reads the cases off its slot table and the
report's own buckets and extrema.
"""
import json
import math

import numpy as np

from sturm import (
    NEIGHBOR_SLOTS,
    MinimaxCase,
    MinimaxExtrema,
    SturmPermutation,
    WindowError,
    build_diagram,
    is_z_adjacent,
    window_morse,
    z_matrix,
)


def geometric_crossing(p: SturmPermutation, j: int, k: int, ell: int) -> int:
    """Signed crossings of the curve segment with the vertical line at ell,
    counted from cross products at the actual intersection points."""
    lo, hi = min(j, k), max(j, k)
    x_line = float(p.position(ell))
    arcs = {a.curve_step: a for a in build_diagram(p).arcs}
    total = 0
    for m in range(lo, hi):
        arc = arcs[m]
        x1, x2 = float(arc.from_pos), float(arc.to_pos)
        if not min(x1, x2) < x_line < max(x1, x2):
            # Misses the line, or touches it only at the crossing point
            # ell itself, which is ignored by convention.
            continue
        center = (x1 + x2) / 2.0
        radius = abs(x2 - x1) / 2.0
        cos_phi = (x_line - center) / radius
        sin_phi = math.sqrt(max(0.0, 1.0 - cos_phi * cos_phi))
        if arc.side == "below":
            sin_phi = -sin_phi
        point_y = radius * sin_phi
        # Angle decreases along the motion exactly for above arcs that
        # run left to right (and below arcs right to left).
        dphi = -1.0 if (arc.side == "above") == (x2 > x1) else 1.0
        velocity = (-sin_phi * dphi, cos_phi * dphi)
        # Rotation sense around the line's base point: z-component of
        # (P - L) x V; clockwise (negative) counts +1.
        omega = 0.0 * velocity[1] - point_y * velocity[0]
        total += 1 if omega < 0 else -1
    return total if j <= k else -total


def loop_crossings(xs, anchor: int, lo: int, hi: int, ell: int) -> int:
    """Signed crossings of the steps lo..hi-1 with the vertical line at
    label ell, step by step: step m adds the change of side between its
    two labels, signed by the parity of ``anchor + m``, unless its arc
    ends at ell."""
    x = xs[ell - 1]
    doubled = 0
    for m in range(lo, hi):
        if m == ell or m + 1 == ell:
            continue
        diff = ((xs[m] > x) - (xs[m] < x)) - ((xs[m - 1] > x) - (xs[m - 1] < x))
        doubled += diff if (anchor + m) % 2 == 1 else -diff
    assert doubled % 2 == 0, "crossing count must be an integer"
    return doubled // 2


def loop_window_z(win) -> tuple[tuple[int, ...], ...]:
    """Zero numbers of all window pairs by the pairwise identity, one pair
    and one curve step at a time through :func:`loop_crossings`; raises
    the ``WindowError`` of the first negative pair, row by row."""
    morse = window_morse(win)
    L = win.length
    out = [[morse[s] if s == t else 0 for t in range(L)] for s in range(L)]
    for s in range(1, L):
        for t in range(s + 1, L + 1):
            value = morse[s - 1] - (morse[s] < morse[s - 1])
            value += loop_crossings(win.axis_rank, win.anchor_morse, s + 1, t, s)
            if value < 0:
                raise WindowError(
                    f"window pair ({s}, {t}) gets zero number {value}; "
                    "window is inconsistent with any Sturm completion"
                )
            out[s - 1][t - 1] = out[t - 1][s - 1] = value
    return tuple(map(tuple, out))


def _circles_cross(a, b) -> bool:
    c1 = (a.from_pos + a.to_pos) / 2.0
    r1 = abs(a.to_pos - a.from_pos) / 2.0
    c2 = (b.from_pos + b.to_pos) / 2.0
    r2 = abs(b.to_pos - b.from_pos) / 2.0
    d = abs(c1 - c2)
    return abs(r1 - r2) < d < r1 + r2


def geometric_is_meander(p: SturmPermutation) -> bool:
    """Meander test from circle intersections of same-side semicircles."""
    all_arcs = build_diagram(p).arcs
    for side in ("above", "below"):
        arcs = [a for a in all_arcs if a.side == side]
        for i in range(len(arcs)):
            for j in range(i + 1, len(arcs)):
                if _circles_cross(arcs[i], arcs[j]):
                    return False
    return True


def scan_target_set(model, base: int, k: int, sign: str) -> set[int]:
    """Signed target set by a scan over every label: signed zero number
    at the level, then the scalar connection criterion for each one."""
    return {
        w
        for w in range(1, model.n + 1)
        if w != base
        and (model.z.pair(base, w), "+" if w > base else "-") == (k, sign)
        and model.morse[base - 1] > model.morse[w - 1]
        and is_z_adjacent(model, base, w)[0]
    }


def scalar_connections(model) -> set[tuple[int, int]]:
    """Connection set by the scalar criterion: Morse drop plus z-adjacency."""
    return {
        (j, k)
        for j in range(1, model.n + 1)
        for k in range(1, model.n + 1)
        if j != k and model.morse[j - 1] > model.morse[k - 1] and is_z_adjacent(model, j, k)[0]
    }


def numpy_z_values(p: SturmPermutation) -> np.ndarray:
    """Zero-number matrix by the descending recursion, vectorized over
    whole rows, Morse numbers on the diagonal."""
    n = p.n
    out = np.zeros((n, n), dtype=np.int64)
    if n > 1:
        pos = np.asarray(p.inv, dtype=np.int64)
        # d[j, m] = sign(position(m+1) - position(j+1)) for 0-based j, m
        d = np.sign(pos[None, :] - pos[:, None])
        # doubled increment of row j at 1-based step m: (-1)^m (d[j,m+1]-d[j,m])
        alt = np.where(np.arange(1, n) % 2 == 0, 1, -1)  # (-1)^m for m = 1..n-1
        twostep = alt[None, :] * (d[:, 1:] - d[:, :-1])
        # z_{j,k} sums the steps m = k..n-1 (descending recursion from z_{j,n} = 0)
        suffix = np.flip(np.cumsum(np.flip(twostep, axis=1), axis=1), axis=1)
        for j in range(n - 1):
            seg = suffix[j, j + 1 : n - 1]
            assert not np.any(seg % 2), "doubled recursion must stay even"
            out[j, j + 1 : n - 1] = seg // 2
            # column k = n stays at the boundary value 0
        out = out + out.T
    out[np.diag_indices(n)] = p.morse
    return out


def scan_connections(p: SturmPermutation) -> frozenset[tuple[int, int]]:
    """Connection set by a vectorized scan of every Morse-dropping pair."""
    morse = p.morse
    zv = np.asarray(z_matrix(p).values)
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
    return frozenset(edges)


def numpy_blockers(p: SturmPermutation) -> dict[tuple[int, int], int | None]:
    """Smallest blocking label of every Morse-dropping ordered pair (j, k),
    or None, from the numpy zero-number oracle: a mask of every label
    strictly between, then the first hit of a whole-row comparison."""
    morse = np.asarray(p.morse)
    zv = numpy_z_values(p)
    idx = np.arange(1, p.n + 1)
    out = {}
    for j in range(1, p.n + 1):
        for k in np.flatnonzero(morse < morse[j - 1]) + 1:
            level = zv[j - 1, k - 1]
            hits = (
                (idx > min(j, k)) & (idx < max(j, k))
                & (zv[j - 1] == level) & (zv[k - 1] == level)
            )
            out[j, int(k)] = int(idx[hits.argmax()]) if hits.any() else None
    return out


def distance_extrema(p: SturmPermutation, base: int, members) -> MinimaxExtrema:
    """Closest and most distant members at each boundary by key-based
    min/max: label distance at boundary 0, axis-position distance at
    boundary 1, a tie going to the smaller label."""

    def d0(w: int) -> int:
        return abs(w - base)

    def d1(w: int) -> int:
        return abs(p.position(w) - p.position(base))

    return MinimaxExtrema(
        closest_at_0=min(members, key=lambda w: (d0(w), w)),
        closest_at_1=min(members, key=lambda w: (d1(w), w)),
        farthest_at_0=max(members, key=lambda w: (d0(w), -w)),
        farthest_at_1=max(members, key=lambda w: (d1(w), -w)),
    )


def paper_cases(model, base: int) -> tuple:
    """The ``MinimaxCase`` of each neighbor slot of an unstable base, by
    the paper's rule. A neighbor one Morse level below the base makes its
    case applicable. Left-boundary neighbors keep their own sign; right-
    boundary neighbors swap it when the base's Morse number is even. The
    case reads the top-level target set of that sign: its closest member
    at the neighbor's boundary and its most distant one at the other."""
    p, top = model.p, model.morse[base - 1] - 1
    at_axis = {p.position(w): w for w in range(1, p.n + 1)}
    neighbors = (
        base - 1 if base > 1 else None,
        base + 1 if base < p.n else None,
        at_axis.get(p.position(base) - 1),
        at_axis.get(p.position(base) + 1),
    )
    cases = []
    for slot, neighbor in zip(NEIGHBOR_SLOTS, neighbors):
        if neighbor is None or model.morse[neighbor - 1] != top:
            cases.append(MinimaxCase(slot, neighbor, False))
            continue
        left, own = slot.startswith("w0"), slot.endswith("plus")
        plus = own if left or top % 2 == 0 else not own
        sign = "+" if plus else "-"
        ex = distance_extrema(p, base, scan_target_set(model, base, top, sign))
        if left:
            found = (0, ex.closest_at_0, ex.farthest_at_1)
        else:
            found = (1, ex.closest_at_1, ex.farthest_at_0)
        cases.append(MinimaxCase(slot, neighbor, True, sign, *found))
    return tuple(cases)


def json_oracle(record) -> str:
    """The reference serialization of a report record."""
    return json.dumps(record, indent=2) + "\n"


def asdict_minimax_record(report) -> dict:
    """The minimax record of a report, built from ``_asdict()`` copies:
    each applicable verdict is its case minus ``slot``, plus the case's
    ``neighbor_is_closest`` and ``passed``."""
    top = report.n - 1
    verdicts = {}
    for case in report.cases:
        if case.applicable:
            verdict = case._asdict()
            del verdict["slot"]
            verdict.update(neighbor_is_closest=case.neighbor_is_closest, passed=case.passed)
        else:
            verdict = {"neighbor": case.neighbor, "applicable": False}
        verdicts[case.slot] = verdict
    extended = [
        {
            "k": int(key[:-1]),
            "sign": key[-1],
            "empty": not members,
            "passed": report.extrema[key].minimax_holds if members else None,
        }
        for key, members in report.target_sets.items()
    ]
    return {
        "O": report.base,
        "n": report.n,
        "neighbors": report.neighbors._asdict(),
        "target_sets": {key: list(members) for key, members in report.target_sets.items()},
        "minimax": {
            key: report.extrema[key]._asdict()
            for key in (f"{top}+", f"{top}-")
            if key in report.extrema
        },
        "verdicts": verdicts,
        "extended": extended,
        "passed": report.passed,
    }


def _arcs(n: int):
    """For each label, the ``(side, partner)`` of its one or two arcs.

    Arc (m, m+1) lies above the axis (side 0) for odd m and below it
    (side 1) for even m, as in ``build_diagram``. Entry 0 is unused.
    """
    return tuple(
        tuple(
            (0 if min(label, partner) % 2 else 1, partner)
            for partner in (label - 1, label + 1)
            if 1 <= partner <= n
        )
        for label in range(n + 1)
    )


def _fits(arcs, stacks, placed, label: int) -> bool:
    """Whether ``label`` may take the next axis position: each arc whose
    partner is already placed closes at ``label``, so it must be the
    innermost open arc on its side (the top of that side's stack)."""
    for side, partner in arcs[label]:
        if placed[partner] and stacks[side][-1] != label:
            return False
    return True


def _place(arcs, stacks, placed, label: int) -> None:
    """Stack step of a label that fits: pop each arc it closes and push
    the partner of each arc it opens. The caller marks the label placed."""
    for side, partner in arcs[label]:
        if placed[partner]:
            stacks[side].pop()
        else:
            stacks[side].append(partner)


def prefix_backtrack(n: int):
    """Sturm permutations of odd size n in lexicographic order: the axis
    grows left to right through the table-driven stack step of
    ``_arcs``, ``_fits`` and ``_place``, and a prefix is dropped when a
    Morse number over the longest complete label prefix goes negative."""
    arcs = _arcs(n)
    placed = [0] * (n + 1)  # label -> axis position, 0 when unplaced
    stacks = ([], [])  # partners closing open arcs, per side
    axis = []
    morse = [0] * (n + 1)

    def search(pos, frontier):
        # Every open arc still needs its own unplaced closing label.
        remaining = n - pos + 1
        if len(stacks[0]) > remaining or len(stacks[1]) > remaining:
            return
        if pos > n:
            yield tuple(axis)
            return
        # Position and label parity agree; label n takes the last slot.
        for label in (n,) if pos == n else range(2 - pos % 2, n, 2):
            if placed[label] or not _fits(arcs, stacks, placed, label):
                continue
            _place(arcs, stacks, placed, label)
            placed[label] = pos
            axis.append(label)
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
