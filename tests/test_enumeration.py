import hashlib
import time

import pytest

from conftest import PERM7, PERM15
from oracles import prefix_backtrack
from sturm import (
    SturmPermutation,
    apply_kappa,
    apply_tau,
    count_sturm,
    enumerate_sturm,
    format_permutation,
    identity,
    is_sturm,
    property_harness,
    suspend,
)
from sturm import enumeration
from sturm.attractor import _analyze
from sturm.cli import main
from sturm.crossing import crossing_number
from sturm.harness import HarnessReport, _check_klein_equivariance, _check_suspension

# Counts for sizes 7 and 9 are regression values pinned at first
# computation; sizes 1, 3, 5 were verified by hand against the filter.
# Sizes 11 to 15 are regression values of the backtrack engine, the
# default at every size.
KNOWN_COUNTS = {1: 1, 3: 1, 5: 2, 7: 7, 9: 32, 11: 175, 13: 1083, 15: 7342}

# SHA-256 of the `sturm enumerate --n N --bound N` text, pinned at the
# previous engine, so the order is fixed and not only the counts.
ENUMERATION_SHA256 = {
    13: "5bc7ba53dab140f4f5bc74e5336c060f211c54eb2c9f523737e8748079215eb7",
    15: "8f8d4a362780e2716274a2e9397c4f8c678fbb485032506065bd48b6bd76145b",
}


class TestEnumerate:
    def test_singleton(self):
        assert [p.map for p in enumerate_sturm(1)] == [(1,)]

    def test_three(self):
        assert list(enumerate_sturm(3)) == [identity(3)]

    def test_five(self):
        assert [p.map for p in enumerate_sturm(5)] == [(1, 2, 3, 4, 5), (1, 4, 3, 2, 5)]

    def test_counts(self):
        for n, expected in KNOWN_COUNTS.items():
            assert count_sturm(n, bound=n) == expected, n

    def test_enumeration_text_is_pinned(self):
        for n, digest in ENUMERATION_SHA256.items():
            text = "".join(format_permutation(p) + "\n" for p in enumerate_sturm(n, bound=n))
            assert hashlib.sha256(text.encode()).hexdigest() == digest, n

    @pytest.mark.parametrize(
        "n, kwargs, message",
        [
            (5, {"engine": "bogus"}, "unknown engine 'bogus'"),
            (5, {"engine": "auto"}, "unknown engine 'auto'"),
            # the brute-force filter is the harness's private reference
            (5, {"engine": "filter"}, "unknown engine 'filter'"),
            (4, {}, "size must be odd and positive, got 4"),
            (13, {}, "size 13 exceeds the configured bound 11"),
            (7, {"bound": 5, "engine": "filter"}, "size 7 exceeds the configured bound 5"),
            (503, {"bound": 503}, "size 503 exceeds the enumeration limit 501"),
            (503, {"bound": 503, "engine": "filter"}, "size 503 exceeds the enumeration limit 501"),
            # bool and float sizes compare like ints: 5.0 failed only at
            # the first member, True gave the n = 1 family and a bound of
            # 11.5 counted like 11
            (5.0, {}, "size must be of type int, got float"),
            (True, {}, "size must be of type int, got bool"),
            (5, {"bound": 11.5}, "bound must be of type int, got float"),
            (5, {"bound": True}, "bound must be of type int, got bool"),
        ],
        ids=[
            "engine",
            "auto-engine",
            "filter-engine",
            "even",
            "bound",
            "filter-bound",
            "limit",
            "filter-limit",
            "float-size",
            "bool-size",
            "float-bound",
            "bool-bound",
        ],
    )
    def test_arguments_checked_at_call(self, n, kwargs, message):
        # The call raises; no iteration is needed to see the error.
        with pytest.raises(ValueError, match=f"^{message}$"):
            enumerate_sturm(n, **kwargs)

    def test_engines_agree(self):
        for n in (1, 3, 5, 7, 9):
            assert list(enumeration._enumerate_filter(n)) == list(enumerate_sturm(n))

    def test_pruning_matches_the_prefix_oracle(self):
        # Pruning at every decided step and from both ends loses no member.
        for n in range(1, 14, 2):
            assert list(enumerate_sturm(n, bound=n)) == list(prefix_backtrack(n)), n

    def test_first_member_comes_at_once(self):
        # Size 21 has 3,293,148 members: a search that collects them all
        # before the first one is handed out would take minutes here.
        start = time.perf_counter()
        assert next(enumerate_sturm(21, bound=21)) == identity(21)
        assert time.perf_counter() - start < 5

    def test_size_limit_streams_its_first_member(self):
        # The backtrack engine nests a generator per axis position, so a
        # size near the recursion limit overflowed it; the limit still runs.
        assert next(enumerate_sturm(501, bound=501)) == identity(501)

    @pytest.mark.slow
    @pytest.mark.parametrize("n, count", [(17, 53372), (19, 409982)])
    def test_large_counts(self, n, count):
        assert count_sturm(n, bound=n) == count

    @pytest.mark.slow
    def test_engines_agree_at_eleven(self):
        assert list(enumeration._enumerate_filter(11)) == list(enumerate_sturm(11))

    def test_lexicographic_order(self, pool9):
        maps = [p.map for p in pool9]
        assert maps == sorted(maps)

    def test_every_member_is_sturm_and_unique(self, pool9):
        assert len(set(pool9)) == len(pool9)
        assert all(is_sturm(p) for p in pool9)

    def test_worked_example_is_enumerated(self, pool):
        assert PERM7 in {p.map for p in pool[7]}

    def test_even_size_rejected(self):
        with pytest.raises(ValueError):
            list(enumerate_sturm(4))

    def test_bound(self):
        with pytest.raises(ValueError):
            list(enumerate_sturm(13))
        # raising the bound lifts the restriction
        stream = enumerate_sturm(13, engine="backtrack", bound=13)
        assert next(stream).map == tuple(range(1, 14))


class TestHarness:
    def test_small_run_passes(self):
        report = property_harness(5)
        assert report.passed
        assert report.permutations == 4
        assert report.counts == {1: 1, 3: 1, 5: 2}

    def test_float_size_rejected_at_call(self):
        # used to raise TypeError from deep inside the enumeration
        with pytest.raises(ValueError, match="^size must be of type int, got float$"):
            property_harness(7.0)

    @pytest.mark.parametrize("n_max", [503, 1001])
    def test_size_above_the_enumeration_limit_rejected_at_call(self, monkeypatch, n_max):
        # used to enumerate every family below the limit first: n = 21 alone
        # holds 3.3 million members
        def refuse(*args, **kwargs):
            raise AssertionError("enumerated before the size check")

        monkeypatch.setattr("sturm.harness.enumerate_sturm", refuse)
        message = f"^size {n_max} exceeds the enumeration limit 501$"
        with pytest.raises(ValueError, match=message):
            property_harness(n_max, bound=n_max)

    def test_text_summary(self):
        report = property_harness(5)
        text = report.text()
        assert "overall: pass" in text
        assert "n=5: 2" in text

    def test_full_run_to_seven(self):
        report = property_harness(7)
        assert report.passed
        assert report.counts[7] == 7
        # the pairwise zero formula property must have covered every member
        prop = report.properties["pairwise zero formula agrees with the matrix recursion"]
        assert prop.checked == report.permutations and prop.passed

    def test_report_text_is_pinned(self):
        # Guards the check count of every property, not only the totals.
        text = property_harness(9).text()
        assert (
            hashlib.sha256(text.encode()).hexdigest()
            == "065a1653c833c6c1cd123ee3969f5247445a9c2b7d8bc2926984e64ec93a0714"
        )

    @pytest.mark.parametrize(
        "n_max, members, suspended",
        [(11, 218, 43), pytest.param(13, 1301, 218, marks=pytest.mark.slow)],
    )
    def test_larger_runs_are_pinned(self, n_max, members, suspended):
        # Every property's check count: one per member, except the checks
        # per size, the suspensions of all members two sizes down, and the
        # windows, which size 1 has none of.
        report = property_harness(n_max, bound=n_max)
        assert report.passed
        assert report.counts == {n: KNOWN_COUNTS[n] for n in range(1, n_max + 1, 2)}
        assert report.permutations == members
        sizes = len(report.counts)
        per_member = [
            "adjacent zero number is the smaller Morse number",
            "arc endpoints never count as crossings",
            "boundary neighbors have Morse number one off",
            "boundary swap and flip are commuting involutions",
            "boundary swap relabels Morse numbers through the permutation",
            "boundary-adjacent equilibria are connected",
            "connection graph is equivariant under the involutions",
            "crossing numbers are additive and antisymmetric",
            "flip reverses the Morse vector",
            "last Morse number is zero (empirical)",
            "minimax data is equivariant under the involutions",
            "minimax property at every signed level (extended)",
            "minimax property at more-stable boundary neighbors",
            "morse parity is opposite to label parity",
            "morse recursion starts at zero with unit steps",
            "pairwise zero formula agrees with the matrix recursion",
            "zero matrix is symmetric with zero boundary rows",
        ]
        assert {name: r.checked for name, r in report.properties.items()} == {
            **dict.fromkeys(per_member, members),
            "both enumeration engines agree": 4,
            "suspension laws hold": suspended,
            "suspensions reappear two sizes up": sizes - 1,
            "the family is closed under the involutions": sizes,
            "windows reproduce the matrix sub-block": members - 1,
        }

    def test_image_outside_the_family_is_a_failure(self):
        # PERM15 has a Klein orbit of size 4, so leaving out tau p
        # leaves out only that image
        p = SturmPermutation(PERM15)
        t, k = apply_tau(p), apply_kappa(p)
        assert len({p, t, k}) == 3
        analyses = {q.map: _analyze(q) for q in (p, k)}
        report = HarnessReport(n_max=15)
        _check_klein_equivariance(report, p, t, k, analyses, str(p))
        for name in (
            "connection graph is equivariant under the involutions",
            "minimax data is equivariant under the involutions",
        ):
            prop = report.properties[name]
            assert (prop.checked, prop.failures) == (1, 1)
            assert prop.first_counterexample.startswith(str(p))

    def test_engine_disagreement_is_a_failure(self, monkeypatch):
        # A filter engine that loses the last member of size 5 must show
        # up in the engine agreement property, and only at that size.
        real = enumeration._enumerate_filter
        monkeypatch.setattr(
            "sturm.harness._enumerate_filter",
            lambda n: list(real(n))[:-1] if n == 5 else real(n),
        )
        prop = property_harness(7).properties["both enumeration engines agree"]
        assert (prop.checked, prop.failures, prop.first_counterexample) == (4, 1, "n=5")

    def test_failed_property_is_reported(self, monkeypatch, capsys):
        # Skewing the crossing numbers of one member with j > k breaks
        # antisymmetry there, and only the crossing property fails.
        def skewed(p, j, k, ell):
            c = crossing_number(p, j, k, ell)
            return c._replace(value=c.value + 1) if p.map == (1, 4, 3, 2, 5) and j > k else c

        monkeypatch.setattr("sturm.harness.crossing_number", skewed)
        report = property_harness(5)
        assert report.passed is False
        line = (
            "  FAIL  crossing numbers are additive and antisymmetric"
            "  (4 checks, 1 failures, first: 1 4 3 2 5)"
        )
        failed = [text for text in report.text().splitlines() if "FAIL" in text]
        assert failed == [line, "overall: FAIL"]
        assert main(["harness", "--n-max", "5"]) == 1
        assert capsys.readouterr().out == report.text() + "\n"

    def test_suspension_outside_the_family_is_a_failure(self):
        p = SturmPermutation(PERM7)
        analyses = {p.map: _analyze(p)}
        report = HarnessReport(n_max=9)
        _check_suspension(report, p, analyses, {})
        q = suspend(p).suspended
        _check_suspension(report, p, analyses, {q.map: _analyze(q)})
        prop = report.properties["suspension laws hold"]
        assert (prop.checked, prop.failures) == (2, 1)
        assert prop.first_counterexample == f"{p} (suspension outside the family)"
