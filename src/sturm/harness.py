"""The property harness: every documented invariant over whole families.

``property_harness`` enumerates every Sturm permutation up to a size,
replays the invariants of every module over each family and reports the
first counterexample per property, which is how the package keeps itself
honest.
"""
from __future__ import annotations

import random
from typing import Callable, Optional

from .attractor import Analysis, MinimaxExtrema, MinimaxReport, _analyze, boundary_neighbors
from .crossing import crossing_number
from .enumeration import DEFAULT_BOUND, _check_family_size, _enumerate_filter, enumerate_sturm
from .perm import SturmPermutation, _check_size, apply_kappa, apply_tau
from .suspension import _suspend_labels, _suspension_items, suspend
from .window import MeanderWindow, window_z
from .zeros import z_pair_nsl


class PropertyResult:
    """Tally of one harness property: checks run, failures and the first
    counterexample."""

    def __init__(self, name: str):
        self.name = name
        self.checked = 0
        self.failures = 0
        self.first_counterexample: Optional[str] = None

    def record(self, ok: bool, context: str) -> None:
        self.checked += 1
        if not ok:
            self.failures += 1
            if self.first_counterexample is None:
                self.first_counterexample = context

    @property
    def passed(self) -> bool:
        return self.failures == 0


class HarnessReport:
    """What :func:`property_harness` found up to size ``n_max``: family
    counts by size and one :class:`PropertyResult` per property."""

    def __init__(self, n_max: int):
        _check_size(n_max)
        self.n_max = n_max
        self.permutations = 0
        self.counts: dict[int, int] = {}
        self.properties: dict[str, PropertyResult] = {}

    def prop(self, name: str) -> PropertyResult:
        if name not in self.properties:
            self.properties[name] = PropertyResult(name)
        return self.properties[name]

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.properties.values())

    def text(self) -> str:
        lines = [
            f"checked {self.permutations} Sturm permutations up to size {self.n_max}",
            "counts: " + ", ".join(f"n={n}: {c}" for n, c in sorted(self.counts.items())),
        ]
        for name in sorted(self.properties):
            r = self.properties[name]
            status = "pass" if r.passed else "FAIL"
            line = f"  {status}  {name}  ({r.checked} checks"
            if r.failures:
                line += f", {r.failures} failures, first: {r.first_counterexample}"
            lines.append(line + ")")
        lines.append("overall: " + ("pass" if self.passed else "FAIL"))
        return "\n".join(lines)


def _check_permutation_properties(
    report: HarnessReport,
    p: SturmPermutation,
    analyses: dict[tuple[int, ...], Analysis],
    rng: random.Random,
) -> None:
    n = p.n
    morse = p.morse
    ctx = str(p)
    model, reports = analyses[p.map]

    r = report.prop("morse recursion starts at zero with unit steps")
    r.record(
        morse[0] == 0 and all(abs(morse[j] - morse[j - 1]) == 1 for j in range(1, n)),
        ctx,
    )
    report.prop("morse parity is opposite to label parity").record(
        all((morse[j - 1] + j) % 2 == 1 for j in range(1, n + 1)), ctx
    )
    report.prop("last Morse number is zero (empirical)").record(morse[-1] == 0, ctx)

    t, k = apply_tau(p), apply_kappa(p)
    report.prop("boundary swap and flip are commuting involutions").record(
        apply_tau(t) == p and apply_kappa(k) == p and apply_kappa(t) == apply_tau(k),
        ctx,
    )
    report.prop("boundary swap relabels Morse numbers through the permutation").record(
        all(t.morse[i] == morse[p.map[i] - 1] for i in range(n)), ctx
    )
    report.prop("flip reverses the Morse vector").record(
        k.morse == tuple(reversed(morse)), ctx
    )

    zm = model.z
    report.prop("zero matrix is symmetric with zero boundary rows").record(
        zm.values == tuple(zip(*zm.values))
        and all(zm.pair(1, j) == 0 and zm.pair(j, n) == 0 for j in range(2, n)),
        ctx,
    )
    report.prop("adjacent zero number is the smaller Morse number").record(
        all(zm.pair(j, j + 1) == min(morse[j - 1], morse[j]) for j in range(1, n)), ctx
    )
    # The pairwise formula and the crossing numbers read prefix lines, which
    # a permutation caches; a fresh copy keeps them off the family's members.
    fresh = SturmPermutation(p.map)
    r = report.prop("pairwise zero formula agrees with the matrix recursion")
    r.record(
        all(
            z_pair_nsl(fresh, j, k) == zm.pair(j, k)
            for j in range(1, n + 1)
            for k in range(1, n + 1)
            if j != k
        ),
        ctx,
    )

    r = report.prop("crossing numbers are additive and antisymmetric")
    ok = True
    for _ in range(min(20, n * n)):
        j1, j2, j3, ell = (rng.randint(1, n) for _ in range(4))
        c12 = crossing_number(fresh, j1, j2, ell).value
        c23 = crossing_number(fresh, j2, j3, ell).value
        c13 = crossing_number(fresh, j1, j3, ell).value
        if c12 + c23 != c13 or crossing_number(fresh, j2, j1, ell).value != -c12:
            ok = False
            break
    r.record(ok, ctx)
    report.prop("arc endpoints never count as crossings").record(
        all(
            crossing_number(fresh, j, j + 1, j).value == 0
            and crossing_number(fresh, j, j + 1, j + 1).value == 0
            for j in range(1, n)
        ),
        ctx,
    )

    if n >= 3:
        r = report.prop("windows reproduce the matrix sub-block")
        first = rng.randint(1, n - 1)
        last = rng.randint(first + 1, n)
        win = MeanderWindow.from_permutation(p, first, last)
        block = tuple(row[first - 1 : last] for row in zm.values[first - 1 : last])
        r.record(window_z(win) == block, f"{ctx} window {first}..{last}")

    report.prop("boundary neighbors have Morse number one off").record(
        all(
            model.morse[w - 1] in (morse[base - 1] - 1, morse[base - 1] + 1)
            for base in range(1, n + 1)
            for w in boundary_neighbors(model, base)
            if w is not None
        ),
        ctx,
    )
    report.prop("boundary-adjacent equilibria are connected").record(
        all(
            b in model.successors[a] if morse[a - 1] > morse[b - 1] else a in model.successors[b]
            for a, b in (*zip(range(1, n), range(2, n + 1)), *zip(p.map, p.map[1:]))
        ),
        ctx,
    )

    report.prop("minimax property at more-stable boundary neighbors").record(
        all(rep.passed for rep in reports.values()), ctx
    )
    report.prop("minimax property at every signed level (extended)").record(
        all(rep.extended_passed for rep in reports.values()), ctx
    )

    _check_klein_equivariance(report, p, t, k, analyses, ctx)


def _levels(
    report: MinimaxReport,
    relabel: Optional[Callable[[int], int]] = None,
    flips: Optional[Callable[[int], bool]] = None,
    swap: bool = False,
) -> dict[str, tuple[tuple[int, ...], MinimaxExtrema]]:
    """The non-empty signed levels ``{"k±": (members, extrema)}`` of a
    report seen through a symmetry: labels relabelled (members sorted),
    the sign of level k flipped where ``flips(k)``, and the two boundaries
    exchanged when ``swap``; ``None`` relabels or flips nothing. With no
    symmetry at all the result holds the report's own member tuples and
    extrema, so two reports correspond under a symmetry exactly when the
    image of one equals the levels of the other. A one-member level needs
    no sort."""
    sets = report.target_sets
    if relabel is None and flips is None and not swap:
        return {key: (sets[key], ex) for key, ex in report.extrema.items()}
    relabel = relabel or (lambda w: w)
    flips = flips or (lambda k: False)
    out: dict[str, tuple[tuple[int, ...], MinimaxExtrema]] = {}
    for key, ex in report.extrema.items():
        k, sign = int(key[:-1]), key[-1]
        if flips(k):
            sign = "+" if sign == "-" else "-"
        if swap:
            ex = MinimaxExtrema(
                ex.closest_at_1, ex.closest_at_0, ex.farthest_at_1, ex.farthest_at_0
            )
        members = sets[key]
        out[f"{k}{sign}"] = (
            tuple(sorted(map(relabel, members))) if len(members) > 1 else (relabel(members[0]),),
            MinimaxExtrema(*map(relabel, ex)),
        )
    return out


def _check_klein_equivariance(
    report: HarnessReport,
    p: SturmPermutation,
    t: SturmPermutation,
    k: SturmPermutation,
    analyses: dict[tuple[int, ...], Analysis],
    ctx: str,
) -> None:
    graph = report.prop("connection graph is equivariant under the involutions")
    levels = report.prop("minimax data is equivariant under the involutions")
    if t.map not in analyses or k.map not in analyses:
        graph.record(False, f"{ctx} (image outside the family)")
        levels.record(False, f"{ctx} (image outside the family)")
        return
    model, reports = analyses[p.map]
    # Boundary swap relabels j to its axis position. It reads each sign at
    # x = 1 instead of x = 0, which differs by the parity of the level, and
    # it swaps the two distance orders. Flip reverses labels and signs.
    rules = (
        (t, lambda w: p.inv[w - 1], {"flips": lambda lvl: lvl % 2 == 1, "swap": True}),
        (k, lambda w: p.n + 1 - w, {"flips": lambda lvl: True}),
    )
    graph_ok = levels_ok = True
    for image, relabel, rule in rules:
        model_i, reports_i = analyses[image.map]
        graph_ok &= {(relabel(a), relabel(b)) for a, b in model.edges()} == set(model_i.edges())
        levels_ok &= {
            relabel(base): _levels(r, relabel, **rule) for base, r in reports.items()
        } == {base: _levels(r) for base, r in reports_i.items()}
    graph.record(graph_ok, ctx)
    levels.record(levels_ok, ctx)


def _check_suspension(
    report: HarnessReport,
    p: SturmPermutation,
    analyses: dict[tuple[int, ...], Analysis],
    larger: dict[tuple[int, ...], Analysis],
) -> None:
    image = larger.get(_suspend_labels(p.map))
    ok = image is not None and all(i.passed for i in _suspension_items(analyses[p.map], image))
    ctx = str(p) if image is not None else f"{p} (suspension outside the family)"
    report.prop("suspension laws hold").record(ok, ctx)


def property_harness(n_max: int = 7, *, bound: int = DEFAULT_BOUND) -> HarnessReport:
    """Run every documented invariant over all Sturm permutations up to n_max.

    Each family is enumerated once, and each member's model and minimax
    reports are built once, up front; the symmetry and suspension checks
    compare those analyses.
    Size and bound are checked at the call, before any enumeration, as in
    :func:`sturm.enumeration.enumerate_sturm`.
    Randomized spot checks (crossing triples, window placement) draw from
    a generator with a fixed seed, so reports are reproducible. Suspension
    laws are checked up to n_max - 2, so the suspended sizes stay within
    the enumerated range.
    """
    _check_family_size(n_max, bound)
    rng = random.Random(20240)
    report = HarnessReport(n_max)
    families = {n: list(enumerate_sturm(n, bound=bound)) for n in range(1, n_max + 1, 2)}
    by_size = {n: {p.map: _analyze(p) for p in members} for n, members in families.items()}
    for n, members in families.items():
        analyses = by_size[n]
        for p in members:
            report.permutations += 1
            _check_permutation_properties(report, p, analyses, rng)
            if n + 2 <= n_max:
                _check_suspension(report, p, analyses, by_size[n + 2])
        report.counts[n] = len(members)

        if n <= 7:
            report.prop("both enumeration engines agree").record(
                list(_enumerate_filter(n)) == members, f"n={n}"
            )
        report.prop("the family is closed under the involutions").record(
            all(apply_tau(q).map in analyses and apply_kappa(q).map in analyses for q in members),
            f"n={n}",
        )
        if n + 2 <= n_max:
            report.prop("suspensions reappear two sizes up").record(
                all(suspend(q).suspended.map in by_size[n + 2] for q in members), f"n={n}"
            )
    return report
