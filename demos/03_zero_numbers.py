#!/usr/bin/env python3
# Zero numbers of equilibrium differences, two ways.
from sturm import SturmPermutation, matrix_text, signed_z, z_matrix, z_pair_nsl

p = SturmPermutation((1, 4, 5, 6, 3, 2, 7))
zm = z_matrix(p)

print("zero-number matrix (Morse numbers on the diagonal):")
print(matrix_text(zm.values))
print()

# The same numbers drop out of a pairwise formula built from Morse
# numbers and crossing counts; the matrix recursion never enters.
mismatches = 0
for j in range(1, p.n + 1):
    for k in range(1, p.n + 1):
        if j != k and z_pair_nsl(p, j, k) != zm.pair(j, k):
            mismatches += 1
print(f"pairwise formula vs matrix recursion: {mismatches} mismatches")
print()

# Signed zero numbers also record which side of the base equilibrium a
# difference starts on at the left boundary.
for w in (2, 4, 6):
    print(f"z(v{w} - v3) = {signed_z(p, 3, w)}")

# Rows against the extremes vanish: the first and last equilibria bound
# everything else pointwise.
print()
print("row of equilibrium 1:", list(zm.values[0]))
