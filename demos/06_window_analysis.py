#!/usr/bin/env python3
# Local analysis: a meander segment alone already determines the Morse
# numbers and zero numbers of its labels.
from sturm import MeanderWindow, SturmPermutation, matrix_text, window_morse, window_z, z_matrix

# Twelve consecutive labels, given only by their order along the axis
# (1 = first window label, 12 = last) and one anchoring Morse number.
order = (12, 11, 4, 3, 2, 5, 10, 9, 6, 7, 8, 1)
win = MeanderWindow.from_axis_order(order, anchor_morse=2)

print("window Morse numbers:", list(window_morse(win)))
print("window zero numbers:")
print(matrix_text(window_z(win)))

# The same twelve labels sit inside a full fifteen-crossing permutation;
# the window reproduces the exact sub-block of its global matrix.
star = SturmPermutation((1, 14, 13, 6, 5, 4, 7, 12, 11, 8, 9, 10, 3, 2, 15))
# Matrix rows are tuples: rows 3..14, and in each row columns 3..14.
block = tuple(row[2:14] for row in z_matrix(star).values[2:14])
print("\nmatches the global matrix block:", window_z(win) == block)
