import itertools
import pickle
import random
import sys
import threading

import pytest

from oracles import geometric_crossing, geometric_is_meander, loop_crossings
from sturm import (
    SturmPermutation,
    apply_kappa,
    apply_tau,
    build_diagram,
    crossing_number,
    identity,
    is_dissipative,
    is_meander,
    is_sturm,
    z_pair_nsl,
)
from sturm.crossing import _prefix_line


class TestDiagram:
    def test_worked_example_arcs(self, perm7):
        arcs = build_diagram(perm7).arcs
        above = [a for a in arcs if a.side == "above"]
        below = [a for a in arcs if a.side == "below"]
        assert {tuple(sorted((a.from_pos, a.to_pos))) for a in above} == {(1, 6), (2, 5), (3, 4)}
        assert {tuple(sorted((a.from_pos, a.to_pos))) for a in below} == {(5, 6), (2, 3), (4, 7)}
        # curve orientation is preserved in the endpoints
        assert [(a.from_pos, a.to_pos) for a in above] == [
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
        # the first bad label is named, in the order j, k, ell
        cases = [(0, 7, 4, "j=0"), (1, -1, 4, "k=-1"), (1, 7, 8, "ell=8"), (9, 0, 0, "j=9")]
        for j, k, ell, message in cases:
            with pytest.raises(ValueError, match=rf"^label {message} out of range 1\.\.7$"):
                crossing_number(perm7, j, k, ell)

    def test_kernel_matches_the_loop_oracle(self, pool, pool9):
        # Every segment j..k, reversed and empty ones included, and every
        # line from ell = 1 to ell = n, over the axis positions of all
        # Sturm permutations up to n = 9 and over every rank tuple of up
        # to six window labels under anchors 0..3.
        cases = [(p.inv, a) for members in (*pool.values(), pool9) for p in members for a in (0, 1)]
        cases += [
            (ranks, a)
            for size in range(1, 7)
            for ranks in itertools.permutations(range(1, size + 1))
            for a in range(4)
        ]
        for xs, anchor in cases:
            labels = range(1, len(xs) + 1)
            for ell in labels:
                line = _prefix_line(xs, anchor, ell)
                assert len(line) == len(xs) and line[0] == 0
                for j, k in itertools.product(labels, repeat=2):
                    lo, hi = min(j, k), max(j, k)
                    count = loop_crossings(xs, anchor, lo, hi, ell)
                    assert line[k - 1] - line[j - 1] == (count if j <= k else -count), (
                        xs, anchor, j, k, ell
                    )

    def test_cached_lines_change_no_answer(self, pool9):
        # A permutation keeps each prefix line it builds. The answers of a
        # fresh permutation, of one whose lines were built in another call
        # order and of its pickled copy are the same, and the filled cache
        # changes neither equality nor hash.
        rng = random.Random(9)
        labels = range(1, 10)
        calls = [("crossing", *jkl) for jkl in itertools.product(labels, repeat=3)]
        calls += [("pair", j, k) for j, k in itertools.product(labels, repeat=2) if j != k]

        def answers(p, order):
            return {
                call: crossing_number(p, *call[1:]).value
                if call[0] == "crossing"
                else z_pair_nsl(p, *call[1:])
                for call in order
            }

        for member in rng.sample(pool9, 6):
            # one fresh permutation per call: no line is ever reused
            expected = {call: answers(SturmPermutation(member.map), [call])[call] for call in calls}
            assert answers(SturmPermutation(member.map), calls) == expected
            shuffled = calls[:]
            rng.shuffle(shuffled)
            warm = SturmPermutation(member.map)
            answers(warm, shuffled[:5])
            assert 0 < len(warm._lines) < 9
            assert answers(warm, shuffled) == expected
            assert answers(warm, calls[::-1]) == expected
            assert sorted(warm._lines) == list(labels)
            copied = pickle.loads(pickle.dumps(warm))
            assert copied == warm == SturmPermutation(member.map)
            assert hash(copied) == hash(warm) == hash(SturmPermutation(member.map))
            assert answers(copied, calls) == expected

    def test_threads_share_one_permutation(self, large_inputs):
        # Racing threads may build the same line twice, but every line they
        # store is equal, so each thread gets the single-threaded answers.
        member = large_inputs[3]
        n = member.n
        calls = list(itertools.product(range(1, n + 1, 3), range(1, n + 1, 5), range(1, n + 1, 2)))
        expected = [crossing_number(SturmPermutation(member.map), *c).value for c in calls]
        shared = SturmPermutation(member.map)
        results = {}

        def work(seed):
            order = list(range(len(calls)))
            random.Random(seed).shuffle(order)
            got = {i: crossing_number(shared, *calls[i]).value for i in order}
            results[seed] = [got[i] for i in range(len(calls))]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(seed,)) for seed in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert results == {seed: expected for seed in range(6)}
        assert sorted(shared._lines) == list(range(1, n + 1, 2))

    def test_geometric_oracle_on_large_inputs(self, large_inputs):
        # The line before the segment, inside it, at either end and after
        # it, for sampled and whole-curve segments of members up to n = 61.
        rng = random.Random(61)
        seen = set()
        for p in large_inputs:
            n = p.n
            segments = [tuple(sorted(rng.sample(range(1, n + 1), 2))) for _ in range(12)]
            for lo, hi in segments + [(1, n), (2, n - 1)]:
                lines = [lo, hi]
                if lo > 1:
                    lines.append(rng.randint(1, lo - 1))
                if hi - lo > 1:
                    lines += rng.sample(range(lo + 1, hi), min(3, hi - lo - 1))
                if hi < n:
                    lines.append(rng.randint(hi + 1, n))
                for ell in lines:
                    for j, k in ((lo, hi), (hi, lo)):
                        value = crossing_number(p, j, k, ell).value
                        assert value == geometric_crossing(p, j, k, ell), (p.map, j, k, ell)
                        seen.add(value)
        assert max(seen) >= 2 and min(seen) <= -2

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
