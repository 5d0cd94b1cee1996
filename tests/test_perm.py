import pytest

import sturm.meander
from sturm import (
    KleinOrbit,
    MeanderWindow,
    NotSturmError,
    ParseError,
    SturmPermutation,
    apply_kappa,
    apply_tau,
    build_model,
    connects,
    crossing_number,
    format_permutation,
    identity,
    inverse,
    is_dissipative,
    is_morse,
    is_z_adjacent,
    klein_orbit,
    morse_indices,
    parse_permutation,
    quadrant_parity,
    suspend,
    target_set,
    z_matrix,
    z_pair_nsl,
)
from sturm.perm import _decimal, _echo_int


class TestParse:
    def test_worked_example(self):
        assert parse_permutation("1 4 5 6 3 2 7").map == (1, 4, 5, 6, 3, 2, 7)

    def test_commas_and_whitespace(self):
        assert parse_permutation(" 1, 4,5  6 3\t2 7 ").map == (1, 4, 5, 6, 3, 2, 7)

    def test_singleton(self):
        p = parse_permutation("1")
        assert p.n == 1 and p.map == (1,)

    def test_zero_based_input(self):
        assert parse_permutation("0 1 2", zero_based=True).map == (1, 2, 3)

    def test_duplicate_reports_position(self):
        with pytest.raises(ParseError) as err:
            parse_permutation("1 2 2")
        assert err.value.position == 3

    def test_non_integer_token(self):
        with pytest.raises(ParseError) as err:
            parse_permutation("1 x 3")
        assert err.value.position == 2

    @pytest.mark.parametrize("text", ["1 2 \uff13", "1 2 3_0", "1 2 \u0663"])
    def test_non_ascii_decimal_token(self, text):
        # int() reads each of these tokens as a number
        with pytest.raises(ParseError) as err:
            parse_permutation(text)
        assert err.value.position == 3

    @pytest.mark.parametrize("token", ["+7", "-7", "007", "7"])
    def test_decimal_accepts(self, token):
        assert _decimal(token) == int(token)

    @pytest.mark.parametrize("token", ["", "+", "+-1", " 1", "1 ", "1_0", "\uff11", "1.0", "0x1"])
    def test_decimal_refuses(self, token):
        with pytest.raises(ValueError):
            _decimal(token)

    def test_echo_int_cuts_after_twenty_digits(self):
        for digits in range(1, 4300, 7):
            for magnitude in (10**digits - 1, 10 ** (digits - 1), 10**digits // 7):
                text = str(magnitude)
                want = text if len(text) <= 20 else text[:20] + "..."
                assert _echo_int(magnitude) == want
                assert _echo_int(-magnitude) == ("-" + want if magnitude else "0")

    def test_echo_int_beyond_str_limit(self):
        # str() refuses an int of more than 4,300 digits
        assert _echo_int(10**4300) == "1" + "0" * 19 + "..."
        assert _echo_int(-(3 * 10**9000 + 7)) == "-3" + "0" * 19 + "..."

    def test_echo_int_shows_other_numbers_as_str(self):
        assert _echo_int(1e30) == "1e+30"
        with pytest.raises(ValueError, match=r"^label j=1e\+30 out of range 1\.\.3$"):
            SturmPermutation((1, 2, 3)).position(1e30)

    def test_out_of_range(self):
        with pytest.raises(ParseError):
            parse_permutation("1 5 3")

    def test_even_length(self):
        with pytest.raises(ParseError):
            parse_permutation("1 2")

    def test_empty(self):
        with pytest.raises(ParseError):
            parse_permutation("   ")

    def test_round_trip(self, perm7):
        assert parse_permutation(format_permutation(perm7)) == perm7
        assert parse_permutation(format_permutation(perm7, zero_based=True), zero_based=True) == perm7


class TestConstruction:
    def test_rejects_even_size(self):
        with pytest.raises(ValueError, match=r"^crossing count must be odd, got 2$"):
            SturmPermutation((1, 2))

    def test_rejects_non_bijection(self):
        with pytest.raises(ValueError, match=r"^not a bijection of 1\.\.3: \(1, 1, 3\)$"):
            SturmPermutation((1, 1, 3))

    def test_non_bijection_is_cut_after_twenty_entries(self):
        shown = ", ".join(map(str, (1, 1, *range(3, 21), "...")))
        with pytest.raises(ValueError) as info:
            SturmPermutation((1, 1, *range(3, 2002)))
        assert str(info.value) == f"not a bijection of 1..2001: ({shown})"

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match=r"^empty permutation$"):
            SturmPermutation(())

    def test_value_record(self, perm7):
        assert repr(SturmPermutation((1, 2, 3))) == "SturmPermutation(map=(1, 2, 3))"
        twin = SturmPermutation(map=list(perm7.map))
        assert twin == perm7 and twin is not perm7 and twin.map == perm7.map
        assert len({perm7, SturmPermutation(perm7.map)}) == 1
        assert perm7 != identity(7) and perm7 != perm7.map

    def test_fields_are_read_only(self, perm7):
        with pytest.raises(AttributeError):
            perm7.map = (1,)
        with pytest.raises(AttributeError):
            del perm7.map
        assert perm7.map == (1, 4, 5, 6, 3, 2, 7)

    def test_accessors(self, perm7):
        assert perm7.sigma(2) == 4
        assert perm7.position(4) == 2
        assert str(perm7) == "1 4 5 6 3 2 7"

    @pytest.mark.parametrize("value", [0, -1, 8])
    def test_accessors_reject_out_of_range(self, perm7, value):
        # 0 and -1 used to wrap to the last entries through negative indexing
        with pytest.raises(ValueError, match=rf"^label k={value} out of range 1\.\.7$"):
            perm7.sigma(value)
        with pytest.raises(ValueError, match=rf"^label j={value} out of range 1\.\.7$"):
            perm7.position(value)


class TestInverse:
    def test_worked_example(self, perm7):
        assert inverse(perm7).map == (1, 6, 5, 2, 3, 4, 7)

    def test_identity(self):
        assert inverse(identity(5)) == identity(5)

    def test_self_inverse_involution(self):
        p = SturmPermutation((1, 4, 3, 2, 5))
        assert inverse(p) == p

    def test_double_inverse(self, pool):
        for p in pool[7]:
            assert inverse(inverse(p)) == p


class TestDissipative:
    def test_worked_example(self, perm7):
        assert is_dissipative(perm7)

    def test_moved_endpoint(self):
        assert not is_dissipative(SturmPermutation((2, 1, 3)))

    def test_singleton(self):
        assert is_dissipative(SturmPermutation((1,)))


class TestMorse:
    def test_worked_example(self, perm7):
        assert morse_indices(perm7) == (0, 1, 2, 1, 0, 1, 0)

    def test_identity(self):
        assert morse_indices(identity(5)) == (0, 1, 0, 1, 0)

    def test_nonzero_tail(self):
        # recursion climbs to 3 and ends at 2, so not a meander candidate
        assert morse_indices(SturmPermutation((1, 3, 2, 4, 5))) == (0, 1, 2, 3, 2)

    def test_is_morse(self, perm7):
        assert is_morse(perm7)
        assert is_morse(identity(3))

    def test_dipping_recursion(self):
        # hand recursion: (0, 1, 0, -1, 0)
        p = SturmPermutation((1, 2, 5, 4, 3))
        assert morse_indices(p)[3] == -1
        assert not is_morse(p)


class TestInvolutions:
    def test_tau_worked_example(self, perm7):
        t = apply_tau(perm7)
        assert t.map == (1, 6, 5, 2, 3, 4, 7)
        assert t.morse == (0, 1, 0, 1, 2, 1, 0)

    def test_kappa_coincides_here(self, perm7):
        assert apply_kappa(perm7).map == (1, 6, 5, 2, 3, 4, 7)

    def test_identity_fixed(self):
        assert apply_tau(identity(5)) == identity(5)
        assert apply_kappa(identity(5)) == identity(5)

    def test_involutions_and_commutation(self, pool):
        for n in (5, 7):
            for p in pool[n]:
                assert apply_tau(apply_tau(p)) == p
                assert apply_kappa(apply_kappa(p)) == p
                assert apply_tau(apply_kappa(p)) == apply_kappa(apply_tau(p))

    def test_morse_relabeling_laws(self, pool):
        for p in pool[7]:
            t, k = apply_tau(p), apply_kappa(p)
            n = p.n
            assert all(t.morse[i] == p.morse[p.map[i] - 1] for i in range(n))
            assert k.morse == tuple(reversed(p.morse))


# Every entry point behind the one Sturm gate, applied to a permutation.
GATED = {
    "z_matrix": z_matrix,
    "z_pair_nsl": lambda p: z_pair_nsl(p, 1, 3),
    "quadrant_parity": lambda p: quadrant_parity(p, 1),
    "build_model": build_model,
    "suspend": suspend,
    "apply_tau": apply_tau,
    "apply_kappa": apply_kappa,
    "klein_orbit": klein_orbit,
    "window_from_permutation": lambda p: MeanderWindow.from_permutation(p, 1, 5),
}


class TestSturmGate:
    @pytest.mark.parametrize("entry", GATED.values(), ids=GATED.keys())
    def test_rejects_non_sturm(self, entry):
        # arcs above the axis cross: dissipative and Morse, but no meander
        with pytest.raises(NotSturmError, match=r"^not a Sturm permutation: 1 3 2 4 5$"):
            entry(SturmPermutation((1, 3, 2, 4, 5)))

    def test_meander_test_runs_once_per_permutation(self, monkeypatch):
        seen = []
        is_meander = sturm.meander.is_meander
        monkeypatch.setattr(sturm.meander, "is_meander", lambda p: seen.append(p) or is_meander(p))
        p = suspend(SturmPermutation((1, 4, 5, 6, 3, 2, 7))).suspended
        seen.clear()
        build_model(p)
        for j in range(1, p.n + 1):
            for k in range(1, p.n + 1):
                if j != k:
                    z_pair_nsl(p, j, k)
        assert seen == [p]


class TestKleinOrbit:
    def test_worked_example_collapses_to_two(self, perm7):
        orbit = klein_orbit(perm7)
        assert isinstance(orbit, KleinOrbit)
        assert orbit.size == 2
        assert orbit.collapsed

    def test_identity_orbit(self):
        assert klein_orbit(identity(3)).size == 1

    def test_symmetric_involution(self):
        assert klein_orbit(SturmPermutation((1, 4, 3, 2, 5))).size == 1

    def test_orbit_members_are_sturm(self, pool):
        from sturm import is_sturm

        for p in pool[7]:
            for q in klein_orbit(p).members:
                assert is_sturm(q)


_P3 = SturmPermutation((1, 2, 3))
_LABEL_J = "label j={} out of range 1..3"
_HUGE_CALLS = {
    "connects": (lambda v: connects(build_model(_P3), v, 1), _LABEL_J),
    "is_z_adjacent": (lambda v: is_z_adjacent(build_model(_P3), v, 1), _LABEL_J),
    "pair": (lambda v: z_matrix(_P3).pair(v, 1), _LABEL_J),
    "position": (lambda v: _P3.position(v), _LABEL_J),
    "crossing_number": (lambda v: crossing_number(_P3, v, 1, 1), _LABEL_J),
    "inner_image": (lambda v: suspend(_P3).inner_image(v), _LABEL_J),
    "quadrant_parity": (
        lambda v: quadrant_parity(_P3, v),
        "label {} has no outgoing arc (need 1 <= j < 3)",
    ),
    "target_set_base": (
        lambda v: target_set(build_model(_P3), v, 0, "+"),
        "label base={} out of range 1..3",
    ),
    "target_set_k": (
        lambda v: target_set(build_model(_P3), 2, v, "+"),
        "level k={} out of range 0..0",
    ),
}


@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("name", sorted(_HUGE_CALLS))
def test_api_label_checks_cut_huge_integers(name, sign):
    # str() refuses an int of more than 4,300 digits; the line shows 20
    call, template = _HUGE_CALLS[name]
    shown = ("-" if sign < 0 else "") + "1" + "0" * 19 + "..."
    with pytest.raises(ValueError) as info:
        call(sign * 10**5000)
    assert str(info.value) == template.format(shown)
