import sys

import pytest

import sturm.meander
from conftest import PERM15, PERM7
from sturm import (
    HarnessReport,
    MeanderWindow,
    NotSturmError,
    ParseError,
    RenderStyle,
    SturmPermutation,
    apply_kappa,
    apply_tau,
    boundary_neighbors,
    build_model,
    count_sturm,
    crossing_number,
    enumerate_sturm,
    format_permutation,
    identity,
    is_dissipative,
    is_morse,
    is_z_adjacent,
    minimax,
    minimax_report,
    parse_permutation,
    property_harness,
    render_svg,
    signed_z,
    suspend,
    target_set,
    z_matrix,
    z_pair_nsl,
)
from sturm.cli import main
from sturm.enumeration import _enumerate_filter
from sturm.meander import is_sturm
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
        # A float label is refused for its type before its range is read.
        with pytest.raises(ValueError, match=r"^label j must be of type int, got float$"):
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

    @pytest.mark.parametrize(
        "entries, message",
        [
            # bool and float entries compare equal to ints, so a sort alone
            # took (True, 2, 3) for Sturm and (1.0, 2.0, 3.0) failed only
            # at first use, in ``inv``
            ((True, 2, 3), "entries must be of type int: (True, 2, 3)"),
            ((1.0, 2.0, 3.0), "entries must be of type int: (1.0, 2.0, 3.0)"),
            # str() showed the string "2" as the int 2
            ((1, "2", 3), "entries must be of type int: (1, '2', 3)"),
            ((1, "x" * 30, 3), f"entries must be of type int: (1, '{'x' * 19}..., 3)"),
        ],
        ids=["bool", "float", "str", "long-str"],
    )
    def test_rejects_non_int_entries(self, entries, message):
        with pytest.raises(ValueError) as info:
            SturmPermutation(entries)
        assert str(info.value) == message

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
    # SturmPermutation(p.inv) is the ungated inverse, for any bijection.
    def test_worked_example(self, perm7):
        assert SturmPermutation(perm7.inv).map == (1, 6, 5, 2, 3, 4, 7)

    def test_identity(self):
        assert SturmPermutation(identity(5).inv) == identity(5)

    def test_self_inverse_involution(self):
        p = SturmPermutation((1, 4, 3, 2, 5))
        assert SturmPermutation(p.inv) == p

    def test_double_inverse(self, pool):
        for p in pool[7]:
            assert SturmPermutation(SturmPermutation(p.inv).inv) == p


class TestDissipative:
    def test_worked_example(self, perm7):
        assert is_dissipative(perm7)

    def test_moved_endpoint(self):
        assert not is_dissipative(SturmPermutation((2, 1, 3)))

    def test_singleton(self):
        assert is_dissipative(SturmPermutation((1,)))


class TestMorse:
    def test_worked_example(self, perm7):
        assert perm7.morse == (0, 1, 2, 1, 0, 1, 0)

    def test_identity(self):
        assert identity(5).morse == (0, 1, 0, 1, 0)

    def test_nonzero_tail(self):
        # recursion climbs to 3 and ends at 2, so not a meander candidate
        assert SturmPermutation((1, 3, 2, 4, 5)).morse == (0, 1, 2, 3, 2)

    def test_is_morse(self, perm7):
        assert is_morse(perm7)
        assert is_morse(identity(3))

    def test_dipping_recursion(self):
        # hand recursion: (0, 1, 0, -1, 0)
        p = SturmPermutation((1, 2, 5, 4, 3))
        assert p.morse[3] == -1
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
    "build_model": build_model,
    "suspend": suspend,
    "apply_tau": apply_tau,
    "apply_kappa": apply_kappa,
    "window_from_permutation": lambda p: MeanderWindow.from_permutation(p, 1, 5),
}


class TestSturmGate:
    @pytest.mark.parametrize("entry", GATED.values(), ids=GATED.keys())
    def test_rejects_non_sturm(self, entry):
        # arcs above the axis cross: dissipative and Morse, but no meander
        with pytest.raises(NotSturmError, match=r"^not a Sturm permutation: 1 3 2 4 5$"):
            entry(SturmPermutation((1, 3, 2, 4, 5)))

    def test_meander_test_runs_once_per_permutation(self, monkeypatch):
        # A permutation the user built is tested at its first gate and never
        # again. What suspension and the involutions derive from it arrives
        # trusted, so no gate tests it, however many the analysis passes.
        seen = []
        is_meander = sturm.meander.is_meander
        monkeypatch.setattr(sturm.meander, "is_meander", lambda p: seen.append(p) or is_meander(p))
        p = SturmPermutation(PERM7)
        derived = [suspend(p).suspended, apply_tau(p), apply_kappa(p)]
        for q in [p, *derived]:
            build_model(q)
            for j in range(1, q.n + 1):
                for k in range(1, q.n + 1):
                    if j != k:
                        z_pair_nsl(q, j, k)
        assert seen == [p]

    def test_inputs_stay_untrusted_until_gated(self):
        # Trust comes only from a Sturm-preserving law applied to a gated
        # input; members, parsed text and built maps are all tested first.
        members = [q for n in range(1, 10, 2) for q in enumerate_sturm(n)]
        members += _enumerate_filter(7)
        parsed = [parse_permutation("1 4 5 6 3 2 7"), parse_permutation("1 3 2 4 5")]
        built = [SturmPermutation(PERM15), SturmPermutation((1, 3, 2, 4, 5)), identity(9)]
        for q in members + parsed + built:
            assert "_sturm" not in vars(q), q
        p = SturmPermutation(PERM7)
        for q in (suspend(p).suspended, apply_tau(p), apply_kappa(p)):
            assert vars(q)["_sturm"] is True
        assert vars(p)["_sturm"] is True


def _klein_images(p):
    # The tau, kappa and tau-kappa images of p under the two involutions.
    t = apply_tau(p)
    return t, apply_kappa(p), apply_kappa(t)


class TestKleinOrbit:
    def test_worked_example_collapses_to_two(self, perm7):
        t, k, tk = _klein_images(perm7)
        assert t == k != perm7
        assert tk == perm7

    def test_identity_orbit(self):
        p = identity(3)
        assert _klein_images(p) == (p, p, p)

    def test_symmetric_involution(self):
        p = SturmPermutation((1, 4, 3, 2, 5))
        assert _klein_images(p) == (p, p, p)

    def test_orbit_members_are_sturm(self, large_inputs, capsys):
        # The involutions and suspension hand out trusted results; each of
        # these laws is still proven here by the meander test itself.
        inputs = [p for n in range(1, 12, 2) for p in enumerate_sturm(n)] + large_inputs
        for p in inputs:
            q = suspend(p).suspended
            for image in (*_klein_images(p), *_klein_images(q)):
                assert is_sturm(image), (p, image)
            assert main(["suspend", str(p), "--times", "3"]) == 0
            assert is_sturm(parse_permutation(capsys.readouterr().out)), p


_P3 = SturmPermutation((1, 2, 3))
_M3 = build_model(_P3)  # morse (0, 1, 0): base 2 is unstable with level 0 only
_BIG = 10**5000  # str() refuses an int of more than 4,300 digits


def _label(name):
    # A label row's type name and its line for 0, _BIG and -_BIG alike.
    return f"label {name}", (f"label {name}={{}} out of range 1..3",) * 3


# _BIG is even, so a size refuses it as even; a bound accepts it.
_SIZE = ("size", ("size must be odd and positive, got {}",) * 3)


def _bound(n):
    line = f"size {n} exceeds the configured bound {{}}"
    return "bound", (line, None, line)


_SPAN = ("need 1 <= first < last <= 3",) * 3
_ANCHOR = (None, None, "anchor Morse number must be non-negative")

# The table of the int-argument gate, one row per public label, level and
# size argument: the argument as "qualname.parameter", a call that passes
# it the value v, the name its type line gives, and its lines for v = 0,
# _BIG and -_BIG ({} is the value as the line shows it; None where the
# value is valid). tests/test_package.py checks that no argument is missing.
_INT_ARGS = {
    "sigma": ("SturmPermutation.sigma.k", lambda v: _P3.sigma(v), *_label("k")),
    "position": ("SturmPermutation.position.j", lambda v: _P3.position(v), *_label("j")),
    "identity": ("identity.n", identity, *_SIZE),
    "crossing_number": ("crossing_number.j", lambda v: crossing_number(_P3, v, 3, 2), *_label("j")),
    "crossing_number_k": ("crossing_number.k", lambda v: crossing_number(_P3, 1, v, 2), *_label("k")),
    "crossing_number_ell": (
        "crossing_number.ell", lambda v: crossing_number(_P3, 1, 3, v), *_label("ell")
    ),
    "pair": ("ZeroMatrix.pair.j", lambda v: z_matrix(_P3).pair(v, 3), *_label("j")),
    "pair_k": ("ZeroMatrix.pair.k", lambda v: z_matrix(_P3).pair(1, v), *_label("k")),
    "z_pair_nsl": ("z_pair_nsl.j", lambda v: z_pair_nsl(_P3, v, 3), *_label("j")),
    "z_pair_nsl_k": ("z_pair_nsl.k", lambda v: z_pair_nsl(_P3, 1, v), *_label("k")),
    "signed_z": ("signed_z.base", lambda v: signed_z(_P3, v, 3), *_label("base")),
    "signed_z_w": ("signed_z.w", lambda v: signed_z(_P3, 1, v), *_label("w")),
    "window_anchor": (
        "MeanderWindow.__init__.anchor_morse",
        lambda v: MeanderWindow((1, 2), v),
        "anchor Morse number",
        _ANCHOR,
    ),
    "from_axis_order": (
        "MeanderWindow.from_axis_order.anchor_morse",
        lambda v: MeanderWindow.from_axis_order((2, 1), v),
        "anchor Morse number",
        _ANCHOR,
    ),
    "from_permutation": (
        "MeanderWindow.from_permutation.first",
        lambda v: MeanderWindow.from_permutation(_P3, v, 3),
        "first",
        _SPAN,
    ),
    "from_permutation_last": (
        "MeanderWindow.from_permutation.last",
        lambda v: MeanderWindow.from_permutation(_P3, 1, v),
        "last",
        _SPAN,
    ),
    "is_z_adjacent": ("is_z_adjacent.j", lambda v: is_z_adjacent(_M3, v, 3), *_label("j")),
    "is_z_adjacent_k": ("is_z_adjacent.k", lambda v: is_z_adjacent(_M3, 1, v), *_label("k")),
    "boundary_neighbors": (
        "boundary_neighbors.base", lambda v: boundary_neighbors(_M3, v), *_label("base")
    ),
    "target_set_base": (
        "target_set.base", lambda v: target_set(_M3, v, 0, "+"), *_label("base")
    ),
    "target_set_k": (
        "target_set.k",
        lambda v: target_set(_M3, 2, v, "+"),
        "level k",
        (None, "level k={} out of range 0..0", "level k={} out of range 0..0"),
    ),
    "minimax": ("minimax.base", lambda v: minimax(_M3, v, 0, "+"), *_label("base")),
    "minimax_k": (
        "minimax.k",
        lambda v: minimax(_M3, 2, v, "+"),
        "level k",
        (None, "level k={} out of range 0..0", "level k={} out of range 0..0"),
    ),
    "minimax_report": ("minimax_report.base", lambda v: minimax_report(_M3, v), *_label("base")),
    "enumerate_sturm": ("enumerate_sturm.n", enumerate_sturm, *_SIZE),
    "enumerate_sturm_bound": (
        "enumerate_sturm.bound",
        lambda v: enumerate_sturm(3, bound=v),
        *_bound(3),
    ),
    "count_sturm": ("count_sturm.n", count_sturm, *_SIZE),
    "count_sturm_bound": (
        "count_sturm.bound",
        lambda v: count_sturm(3, bound=v),
        *_bound(3),
    ),
    "property_harness": ("property_harness.n_max", property_harness, *_SIZE),
    "property_harness_bound": (
        "property_harness.bound",
        lambda v: property_harness(1, bound=v),
        *_bound(1),
    ),
    "harness_report": ("HarnessReport.__init__.n_max", HarnessReport, *_SIZE),
    "render_scale": (
        "RenderStyle.scale",
        lambda v: render_svg(_P3, RenderStyle(scale=v)),
        "scale",
        ("scale must be in 1..1000000, got {}",) * 3,
    ),
}


@pytest.mark.parametrize("value", [True, 2.0, "2"], ids=["bool", "float", "str"])
@pytest.mark.parametrize("name", sorted(_INT_ARGS))
def test_int_arguments_refuse_other_types(name, value):
    # bool and float compare like ints and str like nothing, so each is
    # refused for its type, before its range or any other argument is read.
    _, call, arg, _ = _INT_ARGS[name]
    with pytest.raises(ValueError) as info:
        call(value)
    assert str(info.value) == f"{arg} must be of type int, got {type(value).__name__}"


@pytest.mark.parametrize("sign", [1, -1, 0])
@pytest.mark.parametrize("name", sorted(_INT_ARGS))
def test_api_label_checks_cut_huge_integers(name, sign):
    # v = sign * _BIG: the line shows 20 digits of a value str() cannot
    # write. The row's lines for 0, _BIG and -_BIG are indexed by the sign.
    _, call, _, lines = _INT_ARGS[name]
    value, line = sign * _BIG, lines[sign]
    if line is None:
        call(value)  # a valid value: no error
        return
    with pytest.raises(ValueError) as info:
        call(value)
    assert str(info.value) == line.format(_echo_int(value))


def test_float_label_gets_no_answer():
    # crossing_number once answered CrossingCount(value=0, j=1.5, ...).
    with pytest.raises(ValueError, match=r"^label j must be of type int, got float$"):
        crossing_number(_P3, 1.5, 3, 2)


def test_identity_size_rule():
    assert identity(1).map == (1,)
    with pytest.raises(ValueError, match=r"^size must be odd and positive, got 4$"):
        identity(4)
    with pytest.raises(ValueError) as info:
        identity(_BIG + 1)
    bound = sys.maxsize
    assert str(info.value) == f"size {_echo_int(_BIG + 1)} exceeds the configured bound {bound}"
