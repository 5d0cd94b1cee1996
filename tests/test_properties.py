"""Property-based checks over random bijections and the enumerated family."""
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import block
from sturm import (
    MeanderWindow,
    SturmPermutation,
    build_model,
    crossing_number,
    enumerate_sturm,
    format_permutation,
    minimax_report,
    parse_permutation,
    signed_z,
    suspend,
    verify_suspension,
    window_z,
    z_matrix,
    z_pair_nsl,
)

STURM_POOL = [p for n in (1, 3, 5, 7) for p in enumerate_sturm(n)]
UNSTABLE_POOL = [p for p in STURM_POOL if max(p.morse) > 0]


@st.composite
def bijections(draw, sizes=(1, 3, 5, 7, 9)):
    n = draw(st.sampled_from(sizes))
    word = draw(st.permutations(range(1, n + 1)))
    return SturmPermutation(tuple(word))


@given(bijections())
def test_parse_format_round_trip(p):
    assert parse_permutation(format_permutation(p)) == p
    assert parse_permutation(format_permutation(p, zero_based=True), zero_based=True) == p


@given(bijections())
def test_inverse_is_an_involution(p):
    q = SturmPermutation(p.inv)
    assert SturmPermutation(q.inv) == p
    assert all(q.map[p.map[k] - 1] == k + 1 for k in range(p.n))


@given(bijections())
def test_morse_recursion_shape(p):
    morse = p.morse
    assert morse[0] == 0
    assert all(abs(morse[j] - morse[j - 1]) == 1 for j in range(1, p.n))


@given(st.sampled_from(STURM_POOL), st.data())
def test_crossing_additivity_and_antisymmetry(p, data):
    n = p.n
    labels = st.integers(1, n)
    j1, j2, j3, ell = (data.draw(labels) for _ in range(4))
    c12 = crossing_number(p, j1, j2, ell).value
    c23 = crossing_number(p, j2, j3, ell).value
    assert c12 + c23 == crossing_number(p, j1, j3, ell).value
    assert crossing_number(p, j2, j1, ell).value == -c12


@given(st.sampled_from([p for p in STURM_POOL if p.n >= 3]), st.data())
def test_pairwise_zero_formula_matches_matrix(p, data):
    j = data.draw(st.integers(1, p.n))
    k = data.draw(st.integers(1, p.n).filter(lambda v: v != j))
    assert z_pair_nsl(p, j, k) == z_matrix(p).pair(j, k)


@given(st.sampled_from([p for p in STURM_POOL if p.n >= 3]), st.data())
def test_signed_zero_sign_tracks_label_order(p, data):
    base = data.draw(st.integers(1, p.n))
    w = data.draw(st.integers(1, p.n).filter(lambda v: v != base))
    sz = signed_z(p, base, w)
    assert sz.sign == ("+" if w > base else "-")
    assert sz.z == z_matrix(p).pair(base, w)


@given(st.sampled_from([p for p in STURM_POOL if p.n >= 3]), st.data())
def test_window_reproduces_matrix_block(p, data):
    first = data.draw(st.integers(1, p.n - 1))
    last = data.draw(st.integers(first + 1, p.n))
    win = MeanderWindow.from_permutation(p, first, last)
    assert window_z(win) == block(z_matrix(p).values, first, last)


@settings(max_examples=40)
@given(st.sampled_from(UNSTABLE_POOL), st.data())
def test_minimax_theorem_over_family(p, data):
    model = build_model(p)
    unstable = [j for j in model.unstable()]
    base = data.draw(st.sampled_from(unstable))
    report = minimax_report(model, base)
    assert report.passed
    assert report.extended_passed


@settings(max_examples=20)
@given(st.sampled_from(STURM_POOL))
def test_suspension_laws_over_family(p):
    assert verify_suspension(p).passed


@settings(max_examples=20)
@given(st.sampled_from(STURM_POOL))
def test_suspension_raises_every_morse_number(p):
    q = suspend(p).suspended
    assert q.morse == (0,) + tuple(i + 1 for i in p.morse) + (0,)
