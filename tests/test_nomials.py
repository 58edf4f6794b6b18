import pytest

from discrete_boltzmann import (
    NomialTable,
    binom,
    microstate_uniform,
    multichoose,
    nomial,
    nomial_closed_form,
    nomial_enum_sequences,
    nomial_prefix_sum,
    nomial_recursive,
    nomial_via_multisets,
    polynomial_expand,
    vandermonde_check,
)

TRINOMIAL_ROWS = [
    [1],
    [1, 1, 1],
    [1, 2, 3, 2, 1],
    [1, 3, 6, 7, 6, 3, 1],
    [1, 4, 10, 16, 19, 16, 10, 4, 1],
]

QUADRINOMIAL_ROWS = [
    [1],
    [1, 1, 1, 1],
    [1, 2, 3, 4, 3, 2, 1],
    [1, 3, 6, 10, 12, 12, 10, 6, 3, 1],
    [1, 4, 10, 20, 31, 40, 44, 40, 31, 20, 10, 4, 1],
    [1, 5, 15, 35, 65, 101, 135, 155, 155, 135, 101, 65, 35, 15, 5, 1],
]

ALL_ROUTES = (nomial, nomial_via_multisets, nomial_recursive, nomial_enum_sequences)


class TestSequenceRoute:
    def test_trinomial_entry(self):
        assert nomial_enum_sequences(3, 4, 2) == 10

    def test_binomial_special_case(self):
        for k in range(9):
            for i in range(k + 1):
                assert nomial_enum_sequences(2, k, i) == binom(k, i)

    def test_base_cases(self):
        assert nomial_enum_sequences(4, 0, 0) == 1
        assert nomial_enum_sequences(1, 5, 0) == 1

    def test_budget_guard(self):
        with pytest.raises(ValueError):
            nomial_enum_sequences(10, 9, 5, budget=10 ** 6)

    def test_budget_guard_at_its_boundary(self):
        assert nomial_enum_sequences(2, 10, 3, budget=2 ** 10) == binom(10, 3)
        with pytest.raises(ValueError, match=r"^enumeration of 2\*\*10 sequences exceeds budget 1023$"):
            nomial_enum_sequences(2, 10, 3, budget=2 ** 10 - 1)

    def test_budget_guard_refuses_a_huge_power_without_computing_it(self):
        message = r"^enumeration of 1000\*\*2000000 sequences exceeds budget 10000000$"
        with pytest.raises(ValueError, match=message):
            nomial_enum_sequences(1000, 2_000_000, 5)
        with pytest.raises(ValueError, match=message):
            microstate_uniform(1000, 2_000_000, 5)


class TestMultisetRoute:
    def test_paper_values(self):
        assert nomial_via_multisets(4, 4, 3) == 20
        assert nomial_via_multisets(9, 6, 8) == 1287
        assert nomial_via_multisets(4, 5, 7) == 155


class TestRecursiveRoute:
    def test_triangle_entry(self):
        assert nomial_recursive(3, 3, 3) == 7

    def test_single_level(self):
        for k in range(7):
            assert nomial_recursive(1, k, 0) == 1

    def test_agrees_with_multiset_route(self):
        assert nomial_recursive(5, 4, 9) == nomial_via_multisets(5, 4, 9)


class TestClosedForm:
    def test_appendix_value(self):
        assert nomial_closed_form(9, 6, 8) == multichoose(6, 8) == 1287

    def test_example_value(self):
        assert nomial_closed_form(4, 4, 3) == multichoose(4, 3) == 20

    def test_against_sequences(self):
        assert nomial_closed_form(7, 3, 4) == 15
        assert nomial_enum_sequences(7, 3, 4) == 15

    def test_precondition(self):
        with pytest.raises(ValueError):
            nomial_closed_form(3, 4, 3)  # i >= N
        with pytest.raises(ValueError):
            nomial_closed_form(3, 0, 0)  # K < 1


class TestDispatcher:
    def test_route_agreement_sweep(self):
        for n in range(1, 6):
            for k in range(7):
                for i in range((n - 1) * k + 1):
                    expected = nomial_enum_sequences(n, k, i)
                    assert nomial(n, k, i) == expected
                    assert nomial_via_multisets(n, k, i) == expected
                    assert nomial_recursive(n, k, i) == expected
                    if k >= 1 and i < n:
                        assert nomial_closed_form(n, k, i) == expected

    def test_never_zero(self):
        for n in range(1, 5):
            for k in range(5):
                for i in range((n - 1) * k + 1):
                    assert nomial(n, k, i) > 0

    def test_domain_errors(self):
        for route in ALL_ROUTES:
            with pytest.raises(ValueError):
                route(3, 2, 5)
            with pytest.raises(ValueError):
                route(0, 2, 0)
            with pytest.raises(ValueError):
                route(3, -1, 0)


class TestPrefixSum:
    def test_appendix_scale(self):
        value = nomial_prefix_sum(9, 6, 9)
        assert value == sum(nomial(9, 6, i) for i in range(9))
        assert 6 * value == 9 * multichoose(6, 9)

    def test_empty_sum(self):
        assert nomial_prefix_sum(5, 3, 0) == 0

    def test_single_term(self):
        for k in range(1, 6):
            assert nomial_prefix_sum(4, k, 1) == 1

    def test_independent_of_levels(self):
        for k in range(1, 5):
            for bound in range(5):
                values = {nomial_prefix_sum(n, k, bound) for n in range(bound, 9)
                          if bound <= n}
                assert len(values) == 1


class TestPolynomialExpansion:
    def test_trinomial_triangle(self):
        for k, row in enumerate(TRINOMIAL_ROWS):
            assert polynomial_expand(3, k) == row

    def test_quadrinomial_rows(self):
        for k, row in enumerate(QUADRINOMIAL_ROWS):
            assert polynomial_expand(4, k) == row

    def test_single_level(self):
        for k in range(5):
            assert polynomial_expand(1, k) == [1]

    def test_matches_table_rows(self):
        for n in range(1, 6):
            table = NomialTable(n, 8)
            for k in range(9):
                assert polynomial_expand(n, k) == table.row(k)


class TestVandermonde:
    def test_triangle_center(self):
        assert vandermonde_check(3, 2, 2, 4)
        split = sum(nomial(3, 2, i1) * nomial(3, 2, 4 - i1) for i1 in range(5))
        assert split == 19 == nomial(3, 4, 4)

    def test_binomial_case(self):
        for k1 in range(5):
            for k2 in range(5):
                for i in range(k1 + k2 + 1):
                    assert vandermonde_check(2, k1, k2, i)

    def test_small_sweep(self):
        for n in range(1, 6):
            for k1 in range(4):
                for k2 in range(4):
                    for i in range((n - 1) * (k1 + k2) + 1):
                        assert vandermonde_check(n, k1, k2, i)


class TestTable:
    def test_row_shape_and_sums(self):
        for n in range(1, 7):
            table = NomialTable(n, 7)
            for k in range(8):
                row = table.row(k)
                assert len(row) == (n - 1) * k + 1
                assert sum(row) == n ** k
                assert row == row[::-1]

    def test_palindrome_is_reversal_closure(self):
        for n in range(2, 6):
            for k in range(6):
                for i in range((n - 1) * k + 1):
                    assert nomial(n, k, i) == nomial(n, k, (n - 1) * k - i)

    def test_rows_and_values_equal_the_expansion(self):
        for n in range(1, 6):
            table = NomialTable(n, 6)
            assert table.rows == [polynomial_expand(n, k) for k in range(7)]
            for k, row in enumerate(table.rows):
                assert [table.value(k, i) for i in range(len(row))] == row

    def test_value_bounds(self):
        table = NomialTable(3, 2)
        assert table.value(2, 2) == 3
        with pytest.raises(ValueError):
            table.value(3, 0)
        with pytest.raises(ValueError):
            table.value(2, 5)
