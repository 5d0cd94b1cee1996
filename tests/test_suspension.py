import pytest

from sturm import (
    AttractorModel,
    MinimaxExtrema,
    SturmPermutation,
    ZeroMatrix,
    format_permutation,
    suspend,
    verify_suspension,
    z_matrix,
)
from sturm.attractor import _analyze
from sturm.suspension import _suspension_items


class TestSuspend:
    def test_worked_example(self, perm7):
        result = suspend(perm7)
        assert result.suspended.map == (1, 8, 3, 4, 7, 6, 5, 2, 9)
        assert format_permutation(result.suspended, zero_based=True) == "0 7 2 3 6 5 4 1 8"

    def test_singleton(self):
        assert suspend(SturmPermutation((1,))).suspended.map == (1, 2, 3)

    def test_double_suspension_of_singleton(self):
        once = suspend(SturmPermutation((1,))).suspended
        twice = suspend(once).suspended
        assert twice.map == (1, 4, 3, 2, 5)
        assert twice.morse == (0, 1, 2, 1, 0)

    def test_inner_relation(self, pool):
        for n in (3, 5, 7):
            for p in pool[n]:
                q = suspend(p).suspended
                assert q.sigma(1) == 1 and q.sigma(n + 2) == n + 2
                for j in range(1, n + 1):
                    assert q.sigma(1 + j) == p.sigma(n + 1 - j) + 1

    def test_morse_shift(self, perm7):
        assert suspend(perm7).suspended.morse == (0, 1, 2, 3, 2, 1, 2, 1, 0)


class TestVerifySuspension:
    def test_worked_example(self, perm7):
        report = verify_suspension(perm7)
        assert report.passed
        assert [item.passed for item in report.items] == [True] * len(report.items)

    def test_zero_numbers_shift(self, perm7):
        q = suspend(perm7).suspended
        assert z_matrix(q).pair(3, 4) == z_matrix(perm7).pair(2, 3) + 1 == 2

    def test_sweep_small_sizes(self, pool):
        for n in (1, 3, 5, 7):
            for p in pool[n]:
                assert verify_suspension(p).passed, p

    def test_large_inputs(self, large_inputs):
        # every signed level of every unstable equilibrium up to n=61
        for p in large_inputs:
            assert verify_suspension(p).passed, p

    def test_item_names(self, perm7):
        names = [item.name for item in verify_suspension(perm7).items]
        assert names == [
            "suspension is Sturm",
            "extreme Morse numbers vanish",
            "inner Morse numbers shift by one",
            "inner zero numbers shift by one",
            "zero numbers against the extremes vanish",
            "inner connection graph is preserved",
            "target sets and minimax equilibria correspond",
        ]


def _edited(analysis, entries):
    """The analysis with the zero-number entries at 0-based (row, column)
    raised by one and nothing else changed."""
    model, reports = analysis
    rows = [list(row) for row in model.z.values]
    for r, c in entries:
        rows[r][c] += 1
    z = ZeroMatrix(tuple(map(tuple, rows)))
    return AttractorModel(model.p, model.morse, z, model.successors), reports


def _level_edited(analysis, base, key, members=None, extrema=None):
    """The analysis with the members or the extrema of signed level ``key``
    of ``base`` replaced and nothing else changed."""
    model, reports = analysis
    report = reports[base]
    sets, ex = dict(report.target_sets), dict(report.extrema)
    if members is not None:
        sets[key] = members
    if extrema is not None:
        ex[key] = extrema
    return model, {**reports, base: report._replace(target_sets=sets, extrema=ex)}


def _failed(analysis_q):
    p = SturmPermutation((1, 4, 5, 6, 3, 2, 7))
    items = _suspension_items(_analyze(p), analysis_q)
    return [(item.name, item.detail) for item in items if not item.passed]


class TestSuspensionItemFailures:
    # The suspension of the worked example has n = 9: inner pair (j, k)
    # sits at labels (j + 1, k + 1), that is at 0-based (j, k).
    Q = suspend(SturmPermutation((1, 4, 5, 6, 3, 2, 7))).suspended

    @pytest.mark.parametrize(
        "pairs, first",
        [
            ([(2, 5)], (2, 5)),
            ([(3, 4), (2, 6)], (2, 6)),
            ([(4, 7), (4, 5)], (4, 5)),
            ([(1, 2), (6, 7)], (1, 2)),
            ([(6, 7)], (6, 7)),
        ],
    )
    def test_inner_zero_number_mismatch(self, pairs, first):
        entries = [e for j, k in pairs for e in ((j, k), (k, j))]
        assert _failed(_edited(_analyze(self.Q), entries)) == [
            ("inner zero numbers shift by one", f"first mismatch at {first}")
        ]

    @pytest.mark.parametrize(
        "entries",
        [
            [(0, 4), (4, 0)],  # z(1, 5) and its mirror
            [(0, 4)],  # row 1 only
            [(3, 8)],  # column 9 only
            [(0, 8), (8, 0)],  # the two extremes against each other
        ],
    )
    def test_extreme_zero_number_mismatch(self, entries):
        assert _failed(_edited(_analyze(self.Q), entries)) == [
            ("zero numbers against the extremes vanish", None)
        ]

    @pytest.mark.parametrize(
        "base, key, members, extrema, bad",
        [
            (4, "2+", (5, 6, 8), None, "2+ of 3"),  # one member of a three-member level
            (7, "1-", (5,), None, "1- of 6"),  # a one-member level
            (4, "2+", None, MinimaxExtrema(7, 7, 7, 5), "2+ of 3"),  # closest at 0
            (4, "1+", None, MinimaxExtrema(8, 8, 7, 8), "1+ of 3"),  # farthest at 0
        ],
    )
    def test_inner_level_mismatch(self, base, key, members, extrema, bad):
        analysis = _level_edited(_analyze(self.Q), base, key, members, extrema)
        assert _failed(analysis) == [
            ("target sets and minimax equilibria correspond", f"levels {bad}")
        ]

    @pytest.mark.parametrize(
        "base, key, members, extrema, bad",
        [
            (4, "0+", (8,), None, "0+ of 3"),
            (7, "0-", (1, 2), None, "0- of 6"),
            (4, "0-", None, MinimaxExtrema(1, 1, 1, 2), "0- of 3"),
            # bases 2, 6 and 8 of q come from the stable equilibria 1, 5
            # and 7 of p: Morse 1 in q, so level 0 is their only level
            (2, "0+", (3,), None, "0+ of 1"),
            (6, "0-", (5,), None, "0- of 5"),
            (8, "0-", (1, 7), None, "0- of 7"),
            (2, "0-", None, MinimaxExtrema(1, 1, 1, 9), "0- of 1"),
            (6, "0+", None, MinimaxExtrema(7, 9, 9, 9), "0+ of 5"),
        ],
    )
    def test_level_zero_mismatch(self, base, key, members, extrema, bad):
        # level 0 of q has no level of p behind it: it holds just the new extremes
        analysis = _level_edited(_analyze(self.Q), base, key, members, extrema)
        assert _failed(analysis) == [
            ("target sets and minimax equilibria correspond", f"levels {bad}")
        ]

    def test_unedited_analyses_pass(self):
        assert _failed(_analyze(self.Q)) == []
