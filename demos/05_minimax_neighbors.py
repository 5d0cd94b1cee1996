#!/usr/bin/env python3
# The minimax property: the target-set member closest to the reference
# equilibrium at one boundary is the most distant one at the other.
from sturm import (
    SturmPermutation,
    boundary_neighbors,
    build_model,
    minimax,
    minimax_report,
    target_set,
)

star = SturmPermutation((1, 14, 13, 6, 5, 4, 7, 12, 11, 8, 9, 10, 3, 2, 15))
model = build_model(star)
base = 3
n = model.morse[base - 1]
print(f"reference equilibrium v{base} with Morse index {n}")
print("boundary neighbors:", boundary_neighbors(model, base))

members = sorted(target_set(model, base, n - 1, "+"))
print(f"\ntargets at level {n-1}+: {members}")
for w in members:
    print(f"  v{w}: label distance {abs(w - base)}, axis distance {abs(star.position(w) - star.position(base))}")

ex = minimax(model, base, n - 1, "+")
print(f"\nclosest at x=0: v{ex.closest_at_0}   most distant at x=1: v{ex.farthest_at_1}")
print(f"closest at x=1: v{ex.closest_at_1}   most distant at x=0: v{ex.farthest_at_0}")

report = minimax_report(model, base)
print(f"\nminimax property verified: {report.passed}")
for case in report.applicable_cases:
    print(
        f"  {case.slot}: neighbor v{case.neighbor} is the closest member "
        f"({case.neighbor_is_closest}) and equals the opposite extreme ({case.passed})"
    )
