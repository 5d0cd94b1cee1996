import pytest

from sturm import (
    SturmPermutation,
    apply_kappa,
    apply_tau,
    build_model,
    enumerate_sturm,
    is_sturm,
    suspend,
)

# Seven-crossing workhorse example used throughout the suite.
PERM7 = (1, 4, 5, 6, 3, 2, 7)

# Fifteen-crossing completion of the twelve-label window template, with
# the reference equilibrium at label 3 (axis position 13, Morse number 2).
PERM15 = (1, 14, 13, 6, 5, 4, 7, 12, 11, 8, 9, 10, 3, 2, 15)

# The twelve-label window template: window labels (1-based offsets) in
# axis order, read left to right.
WINDOW_ORDER = (12, 11, 4, 3, 2, 5, 10, 9, 6, 7, 8, 1)

WINDOW_MORSE = (2, 1, 2, 1, 0, 1, 0, 1, 2, 1, 2, 1)

# Zero numbers of all window pairs, Morse numbers on the diagonal.
WINDOW_Z = (
    (2, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1),
    (1, 1, 1, 1, 0, 0, 0, 0, 0, 0, 1, 1),
    (1, 1, 2, 1, 0, 0, 0, 0, 0, 0, 1, 1),
    (1, 1, 1, 1, 0, 0, 0, 0, 0, 0, 1, 1),
    (1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1),
    (1, 0, 0, 0, 0, 1, 0, 0, 1, 1, 1, 1),
    (1, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1),
    (1, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1),
    (1, 0, 0, 0, 0, 1, 1, 1, 2, 1, 1, 1),
    (1, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1, 1),
    (1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 2, 1),
    (1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1),
)


@pytest.fixture
def perm7():
    return SturmPermutation(PERM7)


@pytest.fixture
def perm15():
    return SturmPermutation(PERM15)


@pytest.fixture
def model7(perm7):
    return build_model(perm7)


@pytest.fixture(scope="session")
def pool():
    """All Sturm permutations of size 1..7, keyed by size."""
    return {n: tuple(enumerate_sturm(n)) for n in (1, 3, 5, 7)}


@pytest.fixture(scope="session")
def pool9():
    return tuple(enumerate_sturm(9))


def _concat(p, q):
    """Glue the last crossing of p to the first crossing of q."""
    return SturmPermutation(p.map + tuple(v + p.n - 1 for v in q.map[1:]))


def _suspended(p, times):
    for _ in range(times):
        p = suspend(p).suspended
    return p


@pytest.fixture(scope="session")
def large_inputs(pool9):
    """Suspension-chain members up to n=61 and a few concatenations."""
    p7, p15 = SturmPermutation(PERM7), SturmPermutation(PERM15)
    chain = [_suspended(p7, t) for t in (1, 2, 5, 12, 20, 27)]
    glued = [
        _concat(p7, p15),
        _concat(_suspended(p15, 3), apply_kappa(p7)),
        _concat(_concat(pool9[5], apply_tau(pool9[17])), _suspended(pool9[30], 5)),
    ]
    assert [p.n for p in chain] == [9, 11, 17, 31, 47, 61]
    assert all(is_sturm(p) for p in glued)
    return chain + glued
