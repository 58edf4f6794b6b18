"""Rows read from their shorter side.

Every N-nomial row is a palindrome, C_N(K, i) = C_N(K, T - i) with
T = (N-1)K, so ``nomial``, ``boltzmann_on_numbers`` and
``vandermonde_check`` cut their rows at min(i, T - i).  These tests hold
the mirrored reads against references that read at i itself: the
window recursion ``nomial_recursive``, an inclusion-exclusion oracle,
and the multiset pushforward of the numbers family.
"""

import math

import pytest

from discrete_boltzmann import (
    boltzmann_on_numbers,
    boltzmann_on_numbers_via_multisets,
    nomial,
    nomial_recursive,
    vandermonde_check,
)


def oracle(n: int, k: int, i: int) -> int:
    """C_N(K, i) by inclusion-exclusion over the parts that reach N."""
    if k == 0 or n == 1:
        return int(i == 0)
    return sum((-1) ** j * math.comb(k, j) * math.comb(i - j * n + k - 1, k - 1)
               for j in range(min(k, i // n) + 1))


def near_top(n: int, k: int) -> list[int]:
    """T, T-1, T-N, T-N+1 and the two middle sums of row K, where they exist."""
    top = (n - 1) * k
    return sorted({i for i in (top, top - 1, top - n, top - n + 1, top // 2, top // 2 + 1)
                   if 0 <= i <= top})


LARGE = [(2, 9), (3, 13), (7, 30), (10, 60), (30, 100), (100, 400)]


class TestNomial:
    def test_every_sum_of_small_rows(self):
        for n in range(1, 9):
            for k in range(13):
                for i in range((n - 1) * k + 1):
                    assert nomial(n, k, i) == nomial_recursive(n, k, i) == oracle(n, k, i), (n, k, i)

    @pytest.mark.parametrize("n, k", LARGE)
    def test_near_the_top_of_large_rows(self, n, k):
        top = (n - 1) * k
        for i in near_top(n, k):
            assert nomial(n, k, i) == oracle(n, k, i), (n, k, i)
            if (n, k) != LARGE[-1]:  # the window at (100, 400) is timed once, below
                assert nomial(n, k, i) == nomial_recursive(n, k, i), (n, k, i)
        assert nomial(n, k, top) == 1
        assert nomial(n, k, top - 1) == k

    def test_top_of_the_largest_row_against_the_window(self):
        n, k = LARGE[-1]
        top = (n - 1) * k
        assert nomial(n, k, top - n + 1) == nomial_recursive(n, k, top - n + 1)


class TestNumbersFamily:
    def test_every_sum_against_the_pushforward(self):
        cases = 0
        for n in range(1, 31):
            for k in range(1, 15):
                if n ** k > 20_000:
                    break
                for i in range((n - 1) * k + 1):
                    got = boltzmann_on_numbers(n, k, i)
                    expected = boltzmann_on_numbers_via_multisets(n, k, i)
                    assert got == expected, (n, k, i)
                    assert got.support == tuple(sorted(expected.support)), (n, k, i)
                    cases += 1
        assert cases > 1_000

    @pytest.mark.parametrize("n, k", [(7, 30), (30, 100), (200, 800)])
    def test_level_reversal_of_the_mirrored_sum(self, n, k):
        top = (n - 1) * k
        sums = {n - 1, n, top - 3 * n, top - n - 1, top - n, top - n + 1, top - 1, top}
        if k * top <= 10 ** 6:  # the middle of a large row costs seconds on each side
            sums |= {top // 2, top // 2 + 1}
        for i in sorted(sums):
            got, low = boltzmann_on_numbers(n, k, i), boltzmann_on_numbers(n, k, top - i)
            assert got.support == tuple(sorted(got.support)), (n, k, i)
            assert dict(got.numerators()) == {n - 1 - j: m for j, m in low.numerators()}, (n, k, i)
            assert got.denominator == low.denominator, (n, k, i)


class TestVandermonde:
    @pytest.mark.parametrize("n, k1, k2", [(1, 0, 3), (2, 0, 5), (3, 4, 5), (4, 0, 7),
                                           (5, 3, 1), (6, 2, 6), (9, 5, 4)])
    def test_every_sum(self, n, k1, k2):
        for i in range((n - 1) * (k1 + k2) + 1):
            assert vandermonde_check(n, k1, k2, i) is True, (n, k1, k2, i)
