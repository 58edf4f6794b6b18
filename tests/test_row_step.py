"""The two N-nomial row steps, held against references that share none of them.

Only ``NomialTable.rows`` and the recursion read the sliding-window
generator ``_rows``; every other multi-entry reader of the N-nomial
triangle (``NomialTable.row``, the polynomial expansion, the numbers
family, the Vandermonde split, the urn draw distributions and the
per-kind level family) reads rows of ``_row``, one run of the D-finite
row recurrence per row.  These
tests check both at the benchmark's counting sizes against an
inclusion-exclusion oracle, hold the recurrence against the window, and
check the row readers against the per-entry code they replace.
"""

import itertools
import math
import random

import pytest

from discrete_boltzmann import (
    Dist,
    GroundSet,
    Multiset,
    NomialTable,
    boltzmann_multi_on_levels,
    boltzmann_on_energy,
    boltzmann_on_numbers,
    enumerate_multisets,
    hypergeometric,
    nomial,
    nomial_coeff_multisets,
    nomial_distribution,
    nomial_recursive,
    polya,
    polynomial_expand,
    vandermonde_check,
)
from discrete_boltzmann import nomials
from discrete_boltzmann.nomials import _row, _rows
from test_count_core import numbers_cases
from test_nomials import QUADRINOMIAL_ROWS

LEVELS = (1, 2, 3, 4, 5, 7, 10, 16, 23, 30)
LENGTHS = (0, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 100)


def oracle(n: int, k: int, i: int) -> int:
    """C_N(K, i) by inclusion-exclusion over the parts that reach N."""
    if k == 0:
        return int(i == 0)
    return sum((-1) ** j * math.comb(k, j) * math.comb(i - j * n + k - 1, k - 1)
               for j in range(min(k, i // n) + 1))


def sums(n: int, k: int) -> list[int]:
    """0, N-1, N, the middle and the top of row K, where they exist."""
    top = (n - 1) * k
    return sorted({i for i in (0, n - 1, n, top // 2, top) if i <= top})


class TestOracleAgreement:
    def test_oracle_matches_small_rows(self):
        assert [oracle(3, 4, i) for i in range(9)] == [1, 4, 10, 16, 19, 16, 10, 4, 1]
        assert [oracle(1, k, 0) for k in range(4)] == [1, 1, 1, 1]

    @pytest.mark.parametrize("n", LEVELS)
    def test_recursion(self, n):
        for k in LENGTHS:
            for i in sums(n, k):
                assert nomial_recursive(n, k, i) == oracle(n, k, i), (n, k, i)

    @pytest.mark.parametrize("n", LEVELS)
    def test_expansion_rows(self, n):
        for k in LENGTHS:
            row = polynomial_expand(n, k)
            assert len(row) == (n - 1) * k + 1 and sum(row) == n ** k
            for i in sums(n, k):
                assert row[i] == oracle(n, k, i), (n, k, i)

    @pytest.mark.parametrize("n", LEVELS)
    def test_table_rows(self, n):
        table = NomialTable(n, 100)
        for k in range(101):
            row = table.row(k)
            assert len(row) == (n - 1) * k + 1 and sum(row) == n ** k
            for i in sums(n, k):
                assert row[i] == oracle(n, k, i), (n, k, i)

    @pytest.mark.parametrize("n", LEVELS)
    def test_numbers_weights(self, n):
        for k in LENGTHS[1:]:
            for i in sums(n, k):
                js = range(max(0, i - (n - 1) * (k - 1)), min(n, i + 1))
                expected = Dist(((j, oracle(n, k - 1, i - j)) for j in js), oracle(n, k, i))
                got = boltzmann_on_numbers(n, k, i)
                assert got == expected and str(got) == str(expected), (n, k, i)

    @pytest.mark.parametrize("n", LEVELS)
    def test_vandermonde_splits(self, n):
        for k in LENGTHS:
            for k1 in sorted({0, k // 3, k // 2, k}):
                for i in sums(n, k):
                    assert vandermonde_check(n, k1, k - k1, i) is True, (n, k1, k - k1, i)


def random_urn(rng: random.Random) -> Multiset:
    ground = GroundSet([f"c{j}" for j in range(rng.randint(1, 4))])
    counts = {x: rng.randint(0, 4) for x in ground.labels}
    counts[rng.choice(ground.labels)] += 1  # never an empty urn
    return Multiset(ground, counts)


def per_entry_nomial_distribution(i: int, psi: Multiset, n: int | None) -> Dist:
    """The nomial draw distribution with one ``nomial_coeff_multisets`` per draw."""
    n = len(psi.ground) if n is None else n
    caps = {x: (n - 1) * c for x, c in psi.items()}
    return Dist(((phi, nomial_coeff_multisets(n, psi, phi))
                 for phi in enumerate_multisets(psi.ground, i, caps=caps)),
                nomial(n, psi.size, i))


class TestRowReaders:
    def test_nomial_distribution_on_random_urns(self):
        rng = random.Random(20261018)
        cases = 0
        for _ in range(60):
            psi = random_urn(rng)
            for n in (None, 1, 2, rng.randint(2, 5)):
                top = ((len(psi.ground) if n is None else n) - 1) * psi.size
                for i in sorted({0, rng.randint(0, top), top}):
                    got = nomial_distribution(i, psi, n)
                    expected = per_entry_nomial_distribution(i, psi, n)
                    assert got == expected and str(got) == str(expected), (str(psi), n, i)
                    cases += 1
        assert cases > 300

    def test_nomial_distribution_with_one_level_is_a_point(self):
        psi = Multiset(GroundSet(["a", "b"]), {"a": 2, "b": 3})
        assert nomial_distribution(0, psi, 1) == per_entry_nomial_distribution(0, psi, 1)
        assert len(nomial_distribution(0, psi, 1)) == 1

    @staticmethod
    def per_weight_energy(e: int, k: int) -> Dist:
        return Dist(((j, math.comb(k - 2 + e - j, e - j)) for j in range(e + 1)),
                    math.comb(k - 1 + e, e))

    def test_energy_family_against_per_weight_comb(self):
        for e in range(1, 61):
            for k in range(2, 13):
                got, expected = boltzmann_on_energy(e, k), self.per_weight_energy(e, k)
                assert got == expected and got.support == expected.support, (e, k)

    def test_energy_family_at_large_size(self):
        assert boltzmann_on_energy(2000, 1000) == self.per_weight_energy(2000, 1000)


class TestClosedFormRow:
    def test_row_below_n_equals_the_window(self):
        for n in range(1, 13):
            for k in range(31):
                for w in range(n):
                    window = next(itertools.islice(_rows(n, w), k, None))
                    assert _row(n, k, w) == window, (n, k, w)

    @staticmethod
    def per_weight_numbers(n: int, k: int, i: int) -> Dist:
        """The numbers family for i < N, one ``math.comb`` per weight."""
        assert i < n and (n - 1) * (k - 1) >= i
        return Dist(((j, math.comb(k - 2 + i - j, i - j)) for j in range(i + 1)),
                    math.comb(k - 1 + i, i))

    @pytest.mark.parametrize("n, k, i", [(2001, 1000, 2000), (501, 3, 500)])
    def test_numbers_family_below_n_at_large_size(self, n, k, i):
        got, expected = boltzmann_on_numbers(n, k, i), self.per_weight_numbers(n, k, i)
        assert got == expected and got.support == expected.support


def window_row(n: int, k: int, width: int) -> list[int]:
    """Row K of the sliding window cut at ``width``."""
    return next(itertools.islice(_rows(n, width), k, None))


class TestRecurrence:
    """``_row`` runs the D-finite recurrence of one row to its middle and
    mirrors the rest."""

    def test_rows_equal_the_window(self):
        # every cut, so floor(T/2), floor(T/2) + 1 and ceil(T/2) of odd and
        # even T, N = 1 and K = 0 included
        for n in range(1, 10):
            for k in range(15):
                for w in range((n - 1) * k + 2):
                    assert _row(n, k, w) == window_row(n, k, w), (n, k, w)

    @pytest.mark.parametrize("n, k", [(30, 100), (12, 2000)])
    def test_mirrored_table_rows_against_nomial(self, n, k):
        top = (n - 1) * k
        row = NomialTable(n, k).row(k)
        assert len(row) == top + 1 and sum(row) == n ** k
        for i in (top // 2, top // 2 + 1, top - 1):
            assert row[i] == nomial(n, k, i), (n, k, i)

    @pytest.mark.parametrize("n, k, i", [(100, 400, 19800), (200, 800, 158000)])
    def test_rows_of_the_numbers_family_against_the_oracle(self, n, k, i):
        w = min(i, (n - 1) * k - i)
        for kk in (k - 1, k):
            row = _row(n, kk, w)
            assert len(row) == w + 1
            # every entry below 2N, a spread of the rest, and the cut
            sample = set(range(2 * n)) | set(range(0, w + 1, 997)) | {w - n - 1, w - n, w - 1, w}
            for m in sorted(sample):
                assert row[m] == oracle(n, kk, m), (n, kk, m)


class TestReadersUnchanged:
    """Values and support order of the recurrence's readers equal those
    read from the window, on the count core's numbers-family cases."""

    @staticmethod
    def window_numbers(n: int, k: int, i: int) -> Dist:
        """The numbers family with rows K-1 and K from one window pass,
        each entry read at the shorter side of its palindromic row."""
        w = min(i, (n - 1) * k - i)
        rows = list(itertools.islice(_rows(n, w), k + 1))

        def value(kk, m):
            return rows[kk][min(m, (n - 1) * kk - m)]

        js = range(max(0, i - (n - 1) * (k - 1)), min(n - 1, i) + 1)
        return Dist([(j, value(k - 1, i - j)) for j in js], value(k, i))

    def test_numbers_family(self):
        for n, k, i in numbers_cases():
            got, expected = boltzmann_on_numbers(n, k, i), self.window_numbers(n, k, i)
            assert got == expected and got.support == expected.support, (n, k, i)
            assert got.numerators() == expected.numerators(), (n, k, i)

    def test_vandermonde_splits(self):
        for n, k, i in numbers_cases():
            for k1 in sorted({0, 1, k // 2, k - 1, k}):
                assert vandermonde_check(n, k1, k - k1, i) is True, (n, k1, k - k1, i)


class TestOnePass:
    """Only ``NomialTable.rows`` and the recursion make a pass of the window."""

    @pytest.fixture
    def passes(self, monkeypatch):
        calls = []

        def counted(n, width):
            calls.append((n, width))
            return _rows(n, width)

        monkeypatch.setattr(nomials, "_rows", counted)
        return calls

    @pytest.mark.parametrize("i", [1450, 2000])
    def test_numbers_family_at_or_above_n(self, passes, i):
        boltzmann_on_numbers(30, 100, i)  # T = 2900: at T/2 and on the mirrored side
        assert nomial(30, 100, i) == oracle(30, 100, i)  # its normalizer
        assert passes == []

    def test_vandermonde_split(self, passes):
        assert vandermonde_check(30, 60, 40, 1450) is True
        assert passes == []

    def test_expansion(self, passes):
        polynomial_expand(7, 30)
        assert passes == []

    def test_urn_rows(self, passes):
        psi = Multiset(GroundSet(["a", "b", "c"]), {"a": 6, "b": 6, "c": 6})
        nomial_distribution(20, psi, 5)
        hypergeometric(9, psi)
        polya(9, psi)
        boltzmann_multi_on_levels(6, psi, 45)
        assert passes == []

    @pytest.mark.parametrize("n, k, i", [(2001, 1000, 2000), (30, 100, 1450)])
    def test_single_values_read_no_row(self, passes, monkeypatch, n, k, i):
        recurrences = []

        def counted(n, k, width):
            recurrences.append((n, k, width))
            return _row(n, k, width)

        monkeypatch.setattr(nomials, "_row", counted)
        assert nomial(n, k, i) == oracle(n, k, i)
        assert recurrences == []
        boltzmann_on_numbers(n, k, i)
        assert vandermonde_check(n, k // 2, k - k // 2, i) is True
        assert passes == []

    def test_recursion_still_reads_the_window(self, passes):
        assert nomial_recursive(4, 5, 2) == oracle(4, 5, 2)
        assert passes == [(4, 2)]

    def test_only_the_table_rows_read_the_window(self, passes, monkeypatch):
        recurrences = []

        def counted(n, k, width):
            recurrences.append((n, k, width))
            return _row(n, k, width)

        monkeypatch.setattr(nomials, "_row", counted)
        table = NomialTable(5, 7)
        assert passes == [] and recurrences == []
        row = table.row(7)
        assert passes == [] and recurrences == [(5, 7, 28)]
        assert row == polynomial_expand(5, 7)
        assert table.rows == [polynomial_expand(5, k) for k in range(8)]
        assert passes == [(5, 28)]
        assert NomialTable(4, 5).rows == QUADRINOMIAL_ROWS
        assert [NomialTable(4, 5).row(k) for k in range(6)] == QUADRINOMIAL_ROWS
        assert passes == [(5, 28), (4, 15)]
