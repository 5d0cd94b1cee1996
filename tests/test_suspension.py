import pytest

from sturm import (
    SturmPermutation,
    format_permutation,
    suspend,
    verify_suspension,
    z_matrix,
)


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

    def test_inner_image(self, perm7):
        result = suspend(perm7)
        assert result.inner_image(3) == 4
        with pytest.raises(ValueError):
            result.inner_image(8)


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
