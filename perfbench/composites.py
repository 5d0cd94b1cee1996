"""Seeded generator of large Sturm permutations for the benchmark.

Composites are built from the whole Sturm families of size 3..9 with
four operations that preserve the Sturm property: suspension, the two
Klein involutions (``apply_tau``, ``apply_kappa``) and concatenation,
which glues the last crossing of ``p`` to the first crossing of ``q``:
``p.map + (q.map[1:] shifted by p.n - 1)``. Every output is checked
with ``is_sturm``.

Two profiles shape the Morse numbers, which set the cost of the minimax
analysis:

* ``deep`` concatenates a core and then suspends it ``depth`` times, so
  the largest Morse number exceeds ``depth``;
* ``shallow`` concatenates many short, lightly suspended pieces, so the
  Morse numbers stay small and the attractor is wide instead of tall.

Within a profile the analysis cost still varies with the draw, so each
call draws several candidates and keeps the one with the median Morse
sum. That keeps timings comparable across seeds while the inputs
themselves change with the seed.
"""
from __future__ import annotations

import random
from dataclasses import dataclass

from sturm import SturmPermutation, apply_kappa, apply_tau, enumerate_sturm, is_sturm, suspend

# Inputs depend on the seed only through ``seed % SEED_SPACE``, so the
# digests of every input any seed can produce are pinned in
# ``digests.json``.
SEED_SPACE = 64

CANDIDATES = 8


@dataclass(frozen=True)
class Spec:
    """What to generate: a name, the exact size, the profile and its depth
    (suspensions of the core for ``deep``, at most per piece for ``shallow``)."""

    name: str
    n: int
    profile: str
    depth: int


def blocks() -> tuple[SturmPermutation, ...]:
    """All Sturm permutations of size 3..9, the seeds of every composite."""
    return tuple(p for n in (3, 5, 7, 9) for p in enumerate_sturm(n))


def concat(p: SturmPermutation, q: SturmPermutation) -> SturmPermutation:
    """Glue the last crossing of ``p`` to the first crossing of ``q``."""
    shift = p.n - 1
    return SturmPermutation(p.map + tuple(v + shift for v in q.map[1:]))


def _twist(rng: random.Random, p: SturmPermutation) -> SturmPermutation:
    r = rng.random()
    if r < 0.25:
        return apply_tau(p)
    if r < 0.5:
        return apply_kappa(p)
    return p


def _chain(rng: random.Random, pool, n: int, max_suspend: int) -> SturmPermutation:
    # Concatenate pieces until the size is exactly n; each piece is a
    # block, suspended 0..max_suspend times and twisted.
    out = SturmPermutation((1,))
    while out.n < n:
        room = n - out.n + 1
        piece = rng.choice([b for b in pool if b.n <= room])
        for _ in range(rng.randint(0, max_suspend)):
            if piece.n + 2 > room:
                break
            piece = suspend(piece).suspended
        out = concat(out, _twist(rng, piece))
    return out


def _candidate(rng: random.Random, pool, spec: Spec) -> SturmPermutation:
    if spec.profile == "deep":
        core = _chain(rng, pool, spec.n - 2 * spec.depth, max_suspend=1)
        for _ in range(spec.depth):
            core = _twist(rng, suspend(core).suspended)
        return core
    return _chain(rng, pool, spec.n, max_suspend=spec.depth)


def composite(spec: Spec, seed: int, pool=None) -> SturmPermutation:
    """One Sturm permutation of exactly ``spec.n`` crossings, drawn from ``seed``."""
    pool = blocks() if pool is None else pool
    rng = random.Random(f"{spec.name}:{seed % SEED_SPACE}")
    drawn = []
    for _ in range(CANDIDATES):
        p = _candidate(rng, pool, spec)
        if not is_sturm(p) or p.n != spec.n:
            raise AssertionError(f"composite generator produced a non-Sturm input: {p}")
        drawn.append(p)
    drawn.sort(key=lambda p: (sum(p.morse), p.map))
    return drawn[len(drawn) // 2]


def describe(p: SturmPermutation, edges: int) -> dict:
    """The input properties the timings depend on."""
    return {"n": p.n, "max_morse": max(p.morse), "morse_sum": sum(p.morse), "edges": edges}
