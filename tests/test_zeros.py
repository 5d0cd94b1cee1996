import numpy as np
import pytest

from conftest import WINDOW_MORSE, WINDOW_ORDER, WINDOW_Z
from sturm import (
    MeanderWindow,
    SignedZero,
    WindowError,
    identity,
    matrix_text,
    signed_z,
    window_morse,
    window_z,
    z_matrix,
    z_pair_nsl,
)

# Hand-run of the boundary recursion on the seven-crossing example.
Z7 = np.array(
    [
        [0, 0, 0, 0, 0, 0, 0],
        [0, 1, 1, 1, 1, 1, 0],
        [0, 1, 2, 1, 1, 1, 0],
        [0, 1, 1, 1, 0, 0, 0],
        [0, 1, 1, 0, 0, 0, 0],
        [0, 1, 1, 0, 0, 1, 0],
        [0, 0, 0, 0, 0, 0, 0],
    ]
)


class TestZMatrix:
    def test_worked_example(self, perm7):
        assert np.array_equal(z_matrix(perm7).values, Z7)

    def test_spot_values(self, perm7):
        zm = z_matrix(perm7)
        assert zm.pair(2, 3) == 1
        assert zm.pair(2, 6) == 1
        assert zm.pair(4, 5) == 0
        assert zm.pair(3, 5) == 1

    def test_identity_3_off_diagonal_zero(self):
        zm = z_matrix(identity(3))
        assert zm.pair(1, 2) == zm.pair(2, 3) == zm.pair(1, 3) == 0
        assert [zm.morse(j) for j in (1, 2, 3)] == [0, 1, 0]

    def test_boundary_rows(self, pool):
        for p in pool[7]:
            zm = z_matrix(p)
            for j in range(2, p.n):
                assert zm.pair(1, j) == 0
                assert zm.pair(j, p.n) == 0

    def test_symmetry_and_adjacency_law(self, pool):
        for n in (5, 7):
            for p in pool[n]:
                zm = z_matrix(p)
                assert np.array_equal(zm.values, zm.values.T)
                for j in range(1, p.n):
                    assert zm.pair(j, j + 1) == min(p.morse[j - 1], p.morse[j])

    def test_diagonal_is_not_a_zero_number(self, perm7):
        with pytest.raises(ValueError):
            z_matrix(perm7).pair(3, 3)

    def test_labels_out_of_range_rejected(self, perm7):
        # numpy would wrap label 0 or a negative label to the last row
        zm = z_matrix(perm7)
        reads = [
            (lambda: zm.pair(0, 3), "j=0"),
            (lambda: zm.pair(-1, 2), "j=-1"),
            (lambda: zm.pair(3, 0), "k=0"),
            (lambda: zm.pair(2, 8), "k=8"),
            (lambda: zm.morse(0), "j=0"),
        ]
        for read, message in reads:
            with pytest.raises(ValueError, match=rf"^label {message} out of range 1\.\.7$"):
                read()

    def test_values_are_immutable(self, perm7):
        with pytest.raises(ValueError):
            z_matrix(perm7).values[0, 0] = 5


class TestPairFormula:
    def test_worked_example(self, perm7):
        assert z_pair_nsl(perm7, 3, 5) == 1

    def test_boundary_pair(self, perm7):
        assert z_pair_nsl(perm7, 1, 7) == 0

    def test_swapped_arguments(self, perm7):
        assert z_pair_nsl(perm7, 5, 3) == z_pair_nsl(perm7, 3, 5)

    def test_window_pair_of_15(self, perm15):
        # labels 4 and 7 sit one and four steps after the reference label
        assert z_pair_nsl(perm15, 4, 7) == 0

    def test_equal_labels_rejected(self, perm7):
        with pytest.raises(ValueError):
            z_pair_nsl(perm7, 3, 3)

    @pytest.mark.parametrize("j, k, message", [(0, 3, "j=0"), (3, 8, "k=8"), (8, 3, "k=8")])
    def test_labels_out_of_range_rejected(self, perm7, j, k, message):
        # the smaller label is reported as j, the larger as k
        with pytest.raises(ValueError, match=rf"^label {message} out of range 1\.\.7$"):
            z_pair_nsl(perm7, j, k)

    def test_agrees_with_matrix_everywhere(self, pool):
        for n in (1, 3, 5, 7):
            for p in pool[n]:
                zm = z_matrix(p)
                for j in range(1, n + 1):
                    for k in range(1, n + 1):
                        if j != k:
                            assert z_pair_nsl(p, j, k) == zm.pair(j, k)


class TestSignedZ:
    def test_below_base(self, perm7):
        assert signed_z(perm7, 3, 2) == SignedZero(1, "-")

    def test_above_base(self, perm7):
        assert signed_z(perm7, 3, 4) == SignedZero(1, "+")

    def test_adjacent_rise(self, pool):
        for p in pool[7]:
            for j in range(1, p.n):
                if p.morse[j] == p.morse[j - 1] + 1:
                    assert signed_z(p, j, j + 1) == SignedZero(p.morse[j - 1], "+")

    def test_same_label_rejected(self, perm7):
        with pytest.raises(ValueError):
            signed_z(perm7, 3, 3)

    def test_label_out_of_range_rejected(self, perm7):
        with pytest.raises(ValueError, match="out of range"):
            signed_z(perm7, 0, 3)

    def test_str(self):
        assert str(SignedZero(1, "-")) == "1-"


class TestWindow:
    def test_template_morse(self):
        win = MeanderWindow.from_axis_order(WINDOW_ORDER, anchor_morse=2)
        assert window_morse(win) == WINDOW_MORSE

    def test_two_label_window(self):
        win = MeanderWindow.from_axis_order((1, 2), anchor_morse=0)
        assert window_morse(win) == (0, 1)

    def test_window_of_full_permutation(self, perm7):
        win = MeanderWindow.from_permutation(perm7, 3, 5)
        assert window_morse(win) == (2, 1, 0)

    def test_template_z(self):
        win = MeanderWindow.from_axis_order(WINDOW_ORDER, anchor_morse=2)
        assert np.array_equal(window_z(win), np.array(WINDOW_Z))

    def test_two_label_z(self):
        # odd anchor Morse number means an even anchor label, so the
        # outgoing step runs against the axis order
        win = MeanderWindow.from_axis_order((1, 2), anchor_morse=3)
        assert window_z(win).tolist() == [[3, 2], [2, 2]]
        win = MeanderWindow.from_axis_order((2, 1), anchor_morse=3)
        assert window_z(win).tolist() == [[3, 3], [3, 4]]

    def test_sub_block_of_full_matrix(self, perm7):
        win = MeanderWindow.from_permutation(perm7, 2, 6)
        block = z_matrix(perm7).values[1:6, 1:6]
        assert np.array_equal(window_z(win), block)

    def test_window_faithfulness_over_pool(self, pool):
        for n in (5, 7):
            for p in pool[n]:
                zm = z_matrix(p).values
                for first in range(1, n):
                    for last in range(first + 1, n + 1):
                        win = MeanderWindow.from_permutation(p, first, last)
                        assert np.array_equal(
                            window_z(win), zm[first - 1 : last, first - 1 : last]
                        )

    def test_inconsistent_window(self):
        win = MeanderWindow.from_axis_order((2, 1), anchor_morse=0)
        with pytest.raises(WindowError):
            window_morse(win)
        with pytest.raises(WindowError):
            window_z(win)

    def test_validation(self):
        with pytest.raises(ValueError):
            MeanderWindow.from_axis_order((1,), anchor_morse=0)
        with pytest.raises(ValueError):
            MeanderWindow.from_axis_order((1, 3), anchor_morse=0)
        with pytest.raises(ValueError):
            MeanderWindow(axis_rank=(1, 2), anchor_morse=-1)
        with pytest.raises(ValueError):
            MeanderWindow.from_permutation(identity(3), 2, 2)

    def test_matrix_text(self):
        win = MeanderWindow.from_axis_order((1, 2), anchor_morse=0)
        assert matrix_text(window_z(win)) == "0 0\n0 1"


class TestLargeInputs:
    """The pairwise kernel against the descending recursion far beyond
    the exhaustive sizes: suspension-chain members up to n=61 and three
    concatenations."""

    def test_pair_formula_agrees_with_matrix(self, large_inputs):
        for p in large_inputs:
            zm = z_matrix(p)
            for j in range(1, p.n + 1):
                for k in range(1, p.n + 1):
                    if j != k:
                        assert z_pair_nsl(p, j, k) == zm.pair(j, k), (p, j, k)

    def test_full_range_window_reproduces_matrix(self, large_inputs):
        for p in large_inputs:
            win = MeanderWindow.from_permutation(p, 1, p.n)
            assert np.array_equal(window_z(win), z_matrix(p).values), p
