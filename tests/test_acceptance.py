"""Acceptance suite: one test per criterion, each printing a verdict line.

Everything here is exact integer combinatorics; every tolerance is zero
(equality) except the explicit wall-clock budget of criterion 1.
"""
import json
import random
import subprocess
import sys
import time

from conftest import PERM15, PERM7, WINDOW_ORDER, WINDOW_Z, block
from sturm import (
    MeanderWindow,
    SturmPermutation,
    boundary_neighbors,
    build_model,
    count_sturm,
    enumerate_sturm,
    format_permutation,
    is_sturm,
    minimax,
    minimax_report,
    parse_permutation,
    suspend,
    target_set,
    verify_suspension,
    window_z,
    z_matrix,
    z_pair_nsl,
)
from sturm.enumeration import _enumerate_filter


def _verdict(num: int, label: str, ok: bool) -> None:
    print(f"criterion {num:2d} ({label}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} failed: {label}"


def test_criterion_01_worked_example_validates():
    p = parse_permutation("1 4 5 6 3 2 7")
    ok = is_sturm(p) and p.morse == (0, 1, 2, 1, 0, 1, 0)

    best = float("inf")
    for _ in range(20):
        start = time.perf_counter()
        q = parse_permutation("1 4 5 6 3 2 7")
        is_sturm(q)
        tuple(q.morse)
        best = min(best, time.perf_counter() - start)
    _verdict(1, "seven-crossing fixture validates in under 1 ms", ok and best < 1e-3)


def test_criterion_02_suspension_fixture():
    result = suspend(SturmPermutation(PERM7))
    ok = (
        format_permutation(result.suspended, zero_based=True) == "0 7 2 3 6 5 4 1 8"
        and result.suspended.morse == (0, 1, 2, 3, 2, 1, 2, 1, 0)
    )
    proc = subprocess.run(
        [sys.executable, "-m", "sturm", "suspend", "1 4 5 6 3 2 7", "--zero-based"],
        capture_output=True,
        text=True,
    )
    ok = ok and proc.returncode == 0 and proc.stdout == "0 7 2 3 6 5 4 1 8\n"
    _verdict(2, "suspension prints the zero-based fixture exactly", ok)


def test_criterion_03_window_fixture():
    star = SturmPermutation(PERM15)
    ok = is_sturm(star)
    win = MeanderWindow.from_axis_order(WINDOW_ORDER, anchor_morse=2)
    ok = ok and window_z(win) == WINDOW_Z
    win2 = MeanderWindow.from_permutation(star, 3, 14)
    ok = ok and window_z(win2) == WINDOW_Z
    ok = ok and block(z_matrix(star).values, 3, 14) == WINDOW_Z
    model = build_model(star)
    ok = ok and target_set(model, 3, 1, "+") == {4, 7, 8, 9, 10}
    _verdict(3, "fifteen-crossing window block and target set match", ok)


def test_criterion_04_minimax_identities():
    model = build_model(SturmPermutation(PERM15))
    quartet = boundary_neighbors(model, 3)
    ex = minimax(model, 3, 1, "+")
    ok = (
        quartet.w0_plus == 4
        and ex.closest_at_0 == 4
        and ex.farthest_at_1 == 4
        and quartet.w1_minus == 10
        and ex.closest_at_1 == 10
        and ex.farthest_at_0 == 10
    )
    _verdict(4, "boundary neighbors are the minimax equilibria", ok)


def test_criterion_05_theorem_exhaustive():
    checked = 0
    ok = True
    for n in (1, 3, 5, 7, 9):
        for p in enumerate_sturm(n):
            model = build_model(p)
            for base in model.unstable():
                checked += 1
                if not minimax_report(model, base).passed:
                    ok = False
    _verdict(5, f"minimax property at every unstable equilibrium ({checked} cases)", ok and checked > 0)


def test_criterion_06_zero_number_routes_agree():
    pairs = 0
    ok = True
    for n in (1, 3, 5, 7, 9):
        for p in enumerate_sturm(n):
            zm = z_matrix(p)
            for j in range(1, n + 1):
                for k in range(1, n + 1):
                    if j != k:
                        pairs += 1
                        if z_pair_nsl(p, j, k) != zm.pair(j, k):
                            ok = False
    _verdict(6, f"both zero-number routes agree on all pairs ({pairs} pairs)", ok)


def test_criterion_07_suspension_sweep():
    ok = all(
        verify_suspension(p).passed for n in (1, 3, 5, 7) for p in enumerate_sturm(n)
    )
    _verdict(7, "suspension laws hold for all sizes up to 7", ok)


def test_criterion_08_enumeration_baselines():
    ok = count_sturm(1) == 1 and count_sturm(3) == 1 and count_sturm(5) == 2
    for n in (1, 3, 5, 7):
        ok = ok and list(_enumerate_filter(n)) == list(enumerate_sturm(n))
    # regression values pinned at first computation
    ok = ok and count_sturm(7) == 7 and count_sturm(9) == 32
    _verdict(8, "enumeration counts and engine agreement", ok)


def test_criterion_09_window_faithfulness_sampled():
    rng = random.Random(51366)
    pools = {n: list(enumerate_sturm(n)) for n in (3, 5, 7, 9)}
    ok = True
    for _ in range(1000):
        n = rng.choice((3, 5, 7, 9))
        p = rng.choice(pools[n])
        first = rng.randint(1, n - 1)
        last = rng.randint(first + 1, n)
        win = MeanderWindow.from_permutation(p, first, last)
        if window_z(win) != block(z_matrix(p).values, first, last):
            ok = False
    _verdict(9, "1000 sampled windows equal their matrix blocks", ok)


def test_criterion_10_determinism():
    def run(*args):
        proc = subprocess.run(
            [sys.executable, "-m", "sturm", *args], capture_output=True, text=True
        )
        assert proc.returncode == 0
        return proc.stdout

    analyze = [run("analyze", "1 4 5 6 3 2 7") for _ in range(2)]
    svg = [run("render", "1 4 5 6 3 2 7") for _ in range(2)]
    dot = [run("render", "--format", "dot", "1 4 5 6 3 2 7") for _ in range(2)]
    ok = analyze[0] == analyze[1] and svg[0] == svg[1] and dot[0] == dot[1]
    ok = ok and json.loads(analyze[0])["index_base"] == 1
    _verdict(10, "repeated analyze and render runs are byte-identical", ok)
