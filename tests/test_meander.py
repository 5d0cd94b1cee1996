import itertools
import random

import pytest

from oracles import geometric_crossing, geometric_is_meander
from sturm import (
    NotSturmError,
    SturmPermutation,
    apply_kappa,
    apply_tau,
    build_diagram,
    crossing_number,
    identity,
    is_dissipative,
    is_meander,
    is_sturm,
    quadrant_parity,
)


class TestDiagram:
    def test_worked_example_arcs(self, perm7):
        diagram = build_diagram(perm7)
        above = {a.span for a in diagram.side("above")}
        below = {a.span for a in diagram.side("below")}
        assert above == {(1, 6), (2, 5), (3, 4)}
        assert below == {(5, 6), (2, 3), (4, 7)}
        # curve orientation is preserved in the endpoints
        assert [(a.from_pos, a.to_pos) for a in diagram.side("above")] == [
            (1, 6),
            (5, 2),
            (3, 4),
        ]

    def test_identity_3(self):
        arcs = build_diagram(identity(3)).arcs
        assert [(a.from_pos, a.to_pos, a.side) for a in arcs] == [
            (1, 2, "above"),
            (2, 3, "below"),
        ]

    def test_identity_5_has_four_alternating_arcs(self):
        arcs = build_diagram(identity(5)).arcs
        assert len(arcs) == 4
        assert [a.side for a in arcs] == ["above", "below", "above", "below"]

    def test_side_matches_morse_parity(self, pool):
        # the arc leaving a crossing lies above exactly when the Morse
        # number there is even
        for p in pool[7]:
            for arc in build_diagram(p).arcs:
                assert (arc.side == "above") == (p.morse[arc.curve_step - 1] % 2 == 0)


class TestIsMeander:
    def test_worked_example(self, perm7):
        assert is_meander(perm7)

    def test_above_arcs_cross(self):
        assert not is_meander(SturmPermutation((1, 3, 2, 4, 5)))

    def test_below_arcs_cross(self):
        assert not is_meander(SturmPermutation((1, 2, 4, 3, 5)))

    def test_geometric_oracle_small(self):
        # every labeling, dissipative or not: labels 1 and n keep one arc
        # each wherever they sit
        for n in (1, 3, 5, 7):
            for word in itertools.permutations(range(1, n + 1)):
                p = SturmPermutation(word)
                assert is_meander(p) == geometric_is_meander(p), word

    def test_geometric_oracle_endpoint_fixing_7(self):
        for middle in itertools.permutations(range(2, 7)):
            p = SturmPermutation((1,) + middle + (7,))
            assert is_meander(p) == geometric_is_meander(p), p

    def test_geometric_oracle_endpoint_fixing_9(self):
        agree = sum(
            is_meander(p) == geometric_is_meander(p)
            for middle in itertools.permutations(range(2, 9))
            for p in [SturmPermutation((1,) + middle + (9,))]
        )
        assert agree == 5040

    def test_geometric_oracle_beyond_nine(self, large_inputs):
        rng = random.Random(19)
        meanders = [f(p) for p in large_inputs for f in (lambda p: p, apply_tau, apply_kappa)]
        # The axis reversal of a Sturm permutation is a meander that
        # moves both end labels to the wrong ends.
        reversals = [SturmPermutation(p.map[::-1]) for p in meanders]
        for p in meanders + reversals:
            assert is_meander(p) and geometric_is_meander(p), p.map
        assert not any(is_dissipative(p) for p in reversals)
        # Two swapped axis entries keep the meander property only now and then.
        swapped = []
        for p in meanders + reversals:
            for _ in range(20):
                word = list(p.map)
                a, b = rng.sample(range(p.n), 2)
                word[a], word[b] = word[b], word[a]
                swapped.append(SturmPermutation(word))
        words = [rng.sample(range(1, n + 1), n) for n in range(11, 62, 2) for _ in range(40)]
        kept = 0
        for p in swapped + [SturmPermutation(w) for w in words]:
            verdict = is_meander(p)
            assert verdict == geometric_is_meander(p), p.map
            kept += verdict
        assert 0 < kept < len(swapped)


class TestIsSturm:
    def test_worked_example(self, perm7):
        assert is_sturm(perm7)

    def test_five_crossing_member(self):
        assert is_sturm(SturmPermutation((1, 4, 3, 2, 5)))

    def test_crossing_below(self):
        assert not is_sturm(SturmPermutation((1, 3, 4, 2, 5)))


class TestCrossingNumber:
    def test_single_clockwise_crossing(self, perm7):
        assert crossing_number(perm7, 1, 7, 4).value == 1

    def test_touching_arcs_do_not_count(self, perm7):
        assert crossing_number(perm7, 3, 5, 3).value == 0

    def test_empty_segment(self, perm7):
        for ell in range(1, 8):
            assert crossing_number(perm7, 4, 4, ell).value == 0

    def test_reversal_negates(self, perm7):
        for j, k, ell in itertools.product(range(1, 8), repeat=3):
            assert (
                crossing_number(perm7, j, k, ell).value
                == -crossing_number(perm7, k, j, ell).value
            )

    def test_additivity(self, pool):
        for p in pool[5] + pool[7]:
            n = p.n
            for j1, j2, j3, ell in itertools.product(range(1, n + 1), repeat=4):
                c12 = crossing_number(p, j1, j2, ell).value
                c23 = crossing_number(p, j2, j3, ell).value
                c13 = crossing_number(p, j1, j3, ell).value
                assert c12 + c23 == c13

    def test_endpoints_are_ignored(self, pool):
        for p in pool[7]:
            for j in range(1, p.n):
                assert crossing_number(p, j, j + 1, j).value == 0
                assert crossing_number(p, j, j + 1, j + 1).value == 0

    def test_out_of_range(self, perm7):
        with pytest.raises(ValueError):
            crossing_number(perm7, 0, 7, 4)
        with pytest.raises(ValueError):
            crossing_number(perm7, 1, 7, 8)

    def test_geometric_oracle_full_sweep(self, pool):
        for p in pool[5] + pool[7]:
            n = p.n
            for j, k, ell in itertools.product(range(1, n + 1), repeat=3):
                assert crossing_number(p, j, k, ell).value == geometric_crossing(
                    p, j, k, ell
                ), (p.map, j, k, ell)

    def test_geometric_oracle_sampled_9(self, pool9):
        import random

        rng = random.Random(7)
        for p in rng.sample(pool9, 8):
            for _ in range(200):
                j, k, ell = (rng.randint(1, 9) for _ in range(3))
                assert crossing_number(p, j, k, ell).value == geometric_crossing(
                    p, j, k, ell
                )


class TestQuadrantParity:
    def test_worked_example(self, perm7):
        assert quadrant_parity(perm7, 2) == "odd"
        assert quadrant_parity(perm7, 3) == "even"

    def test_identity(self):
        assert quadrant_parity(identity(3), 1) == "odd"

    def test_last_label_has_no_arc(self, perm7):
        with pytest.raises(ValueError):
            quadrant_parity(perm7, 7)

    def test_requires_sturm(self):
        with pytest.raises(NotSturmError):
            quadrant_parity(SturmPermutation((1, 3, 2, 4, 5)), 1)
