import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from discrete_boltzmann import (
    GroundSet,
    Multiset,
    accumulate,
    binom,
    coefficient,
    empty,
    enumerate_multisets,
    enumerate_multisets_with_sum,
    format_multiset,
    leq,
    levels,
    multichoose,
    parse_multiset,
    reverse,
    size,
    som,
    unit,
)


def ms(text, ground=None):
    return parse_multiset(text, ground)


class TestGroundSet:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            GroundSet([])

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            GroundSet(["a", "b", "a"])

    def test_levels(self):
        g = levels(4)
        assert g.labels == (0, 1, 2, 3)
        assert g.is_levels() and g.is_numeric()
        assert not GroundSet([0, 2, 3]).is_levels()
        assert not GroundSet(["a"]).is_numeric()


class TestSizeAndCoefficient:
    def test_urn_size(self):
        assert size(ms("3|R> + 2|G> + 1|B>")) == 6

    def test_empty_size(self):
        assert size(empty(levels(3))) == 0

    def test_single_label_size(self):
        assert size(ms("7|0>", levels(1))) == 7

    def test_coefficient_examples(self):
        assert coefficient(ms("3|0> + 1|3>", levels(4))) == 4
        assert coefficient(ms("2|0> + 1|1> + 1|2>", levels(4))) == 12

    def test_coefficient_against_sequence_count(self):
        # independent oracle: count the length-6 sequences accumulating to the urn
        urn = ms("3|R> + 2|G> + 1|B>")
        count = sum(
            1
            for seq in itertools.product("RGB", repeat=6)
            if accumulate(seq, urn.ground) == urn
        )
        assert count == 60
        assert coefficient(urn) == 60


class TestSom:
    def test_paper_energy(self):
        assert som(ms("1|0> + 2|1> + 3|2>", levels(3))) == 8

    def test_all_ground_state(self):
        assert som(ms("5|0>", levels(4))) == 0

    def test_example_configuration(self):
        assert som(ms("2|0> + 1|1> + 1|2>", levels(4))) == 3

    def test_rejects_symbolic_ground(self):
        with pytest.raises(ValueError):
            som(ms("2|a> + 1|b>"))


class TestAccumulate:
    def test_urn(self):
        assert accumulate("RGRGRB") == ms("3|R> + 2|G> + 1|B>")

    def test_coins(self):
        assert accumulate("HTHH") == ms("3|H> + 1|T>")

    def test_empty_with_ground(self):
        assert accumulate((), levels(3)) == empty(levels(3))

    def test_empty_without_ground_rejected(self):
        with pytest.raises(ValueError):
            accumulate(())

    def test_size_is_length(self):
        assert accumulate((0, 1, 1, 2, 0), levels(3)).size == 5


class TestEnumeration:
    def test_six_multisets_of_pairs(self):
        found = list(enumerate_multisets(levels(3), 2))
        assert len(found) == 6
        assert [phi.counts_vector() for phi in found] == [
            (2, 0, 0), (1, 1, 0), (0, 2, 0), (1, 0, 1), (0, 1, 1), (0, 0, 2)]

    def test_size_zero(self):
        assert list(enumerate_multisets(levels(5), 0)) == [empty(levels(5))]

    def test_count_is_multichoose(self):
        assert sum(1 for _ in enumerate_multisets(levels(9), 6)) == 3003
        assert multichoose(9, 6) == 3003

    def test_colex_order_is_sorted_reversed_vectors(self):
        found = [phi.counts_vector()[::-1] for phi in enumerate_multisets(levels(4), 3)]
        assert found == sorted(found)

    def test_caps_enumerate_submultisets(self):
        psi = ms("2|a> + 1|b>")
        found = list(enumerate_multisets(psi.ground, 2, caps=dict(psi.items())))
        assert all(leq(phi, psi) for phi in found)
        assert len(found) == 2  # 2|a> and 1|a>+1|b>


class TestEnumerationWithSum:
    def test_example_three_configurations(self):
        found = set(enumerate_multisets_with_sum(4, 4, 3))
        assert found == {
            ms("3|0> + 1|3>", levels(4)),
            ms("2|0> + 1|1> + 1|2>", levels(4)),
            ms("1|0> + 3|1>", levels(4)),
        }

    def test_twenty_configurations(self):
        assert sum(1 for _ in enumerate_multisets_with_sum(9, 6, 8)) == 20

    def test_zero_energy_is_ground_state(self):
        for n, k in [(3, 4), (5, 2), (1, 6)]:
            assert list(enumerate_multisets_with_sum(n, k, 0)) == [
                ms(f"{k}|0>", levels(n))]

    def test_matches_filtering(self):
        for n in range(1, 5):
            for k in range(5):
                by_filter = {}
                for phi in enumerate_multisets(levels(n), k):
                    by_filter.setdefault(som(phi), set()).add(phi)
                for i in range((n - 1) * k + 1):
                    direct = set(enumerate_multisets_with_sum(n, k, i))
                    assert direct == by_filter.get(i, set())

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            list(enumerate_multisets_with_sum(3, 2, 5))


class TestReverse:
    def test_index_flip(self):
        assert reverse(ms("1|0> + 2|1> + 3|2>", levels(3))) == ms(
            "3|0> + 2|1> + 1|2>", levels(3))

    def test_involution(self):
        for phi in enumerate_multisets(levels(4), 3):
            assert reverse(reverse(phi)) == phi

    def test_som_law(self):
        phi = ms("3|0> + 1|3>", levels(4))
        assert som(phi) == 3
        assert som(reverse(phi)) == 9
        for psi in enumerate_multisets(levels(5), 4):
            assert som(reverse(psi)) == 4 * 4 - som(psi)

    def test_needs_level_ground(self):
        with pytest.raises(ValueError):
            reverse(ms("1|a> + 1|b>"))


class TestLeq:
    def test_examples(self):
        big = ms("1|a> + 5|b> + 3|c>")
        assert leq(ms("1|a>", big.ground), big)
        assert not leq(ms("2|a>", GroundSet("ab")), ms("1|a> + 5|b>", GroundSet("ab")))

    def test_reflexive(self):
        for phi in enumerate_multisets(levels(3), 4):
            assert phi <= phi

    def test_needs_common_ground(self):
        with pytest.raises(ValueError):
            leq(ms("1|a>"), ms("1|b>"))


class TestBinomMultichoose:
    def test_values(self):
        assert multichoose(3, 2) == 6
        assert multichoose(6, 8) == 1287
        assert binom(5, 0) == 1 and binom(7, 7) == 1

    def test_factorial_formulas(self):
        for n in range(8):
            for i in range(n + 1):
                assert binom(n, i) == math.factorial(n) // (
                    math.factorial(n - i) * math.factorial(i))
        for m in range(1, 8):
            for j in range(8):
                assert multichoose(m, j) == math.factorial(m + j - 1) // (
                    math.factorial(m - 1) * math.factorial(j))

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            binom(3, 4)
        with pytest.raises(ValueError):
            binom(3, -1)
        with pytest.raises(ValueError):
            multichoose(0, 2)
        with pytest.raises(ValueError):
            multichoose(3, -1)


class TestPrefixIdentities:
    """The three multichoose prefix-sum identities, exhaustively for n <= 8."""

    def test_plain(self):
        for n in range(1, 9):
            for m in range(1, 14):
                assert sum(multichoose(n, j) for j in range(m)) == multichoose(m, n)

    def test_weighted(self):
        for n in range(1, 9):
            for m in range(2, 14):
                assert sum(multichoose(n, j) * j for j in range(m)) == n * multichoose(
                    m - 1, n + 1)

    def test_square_weighted(self):
        for n in range(1, 9):
            for m in range(3, 14):
                lhs = sum(multichoose(n, j) * j * j for j in range(m))
                assert lhs == n * (n + 1) * multichoose(m - 2, n + 2) + n * multichoose(
                    m - 1, n + 1)


class TestCountingLaws:
    def test_enumeration_count(self):
        for m in range(1, 6):
            for k in range(6):
                assert sum(1 for _ in enumerate_multisets(levels(m), k)) == multichoose(m, k)

    def test_accumulation_fibers(self):
        for m in range(1, 4):
            ground = levels(m)
            for k in range(5):
                fibers = {}
                for seq in itertools.product(ground.labels, repeat=k):
                    phi = accumulate(seq, ground)
                    fibers[phi] = fibers.get(phi, 0) + 1
                for phi in enumerate_multisets(ground, k):
                    assert fibers.get(phi, 0) == coefficient(phi)

    def test_coefficient_sum_is_power(self):
        for m in range(1, 6):
            for k in range(6):
                assert sum(coefficient(phi)
                           for phi in enumerate_multisets(levels(m), k)) == m ** k


@st.composite
def _level_multisets(draw, n=None):
    if n is None:
        n = draw(st.integers(1, 5))
    counts = draw(st.lists(st.integers(0, 4), min_size=n, max_size=n))
    return Multiset(levels(n), zip(range(n), counts))


@st.composite
def _multiset_pairs(draw):
    n = draw(st.integers(1, 5))
    return draw(_level_multisets(n=n)), draw(_level_multisets(n=n))


def _assert_matches_validated(phi):
    """``phi`` equals, and hashes like, the validated construction from
    its terms, in any order and padded with a zero term."""
    terms = list(phi.items())
    zero = [(phi.ground.labels[-1], 0)]
    for given_terms in (terms, terms[::-1], terms + zero, zero + terms[::-1]):
        rebuilt = Multiset(phi.ground, given_terms)
        assert rebuilt == phi and hash(rebuilt) == hash(phi), (phi, given_terms)


class TestProperties:
    def test_enumerated_match_validated_construction(self):
        for phi in enumerate_multisets(GroundSet("RGB"), 4):
            _assert_matches_validated(phi)
        for phi in enumerate_multisets(levels(4), 5, caps={0: 1, 2: 3, 3: 2}):
            _assert_matches_validated(phi)
        for phi in enumerate_multisets_with_sum(5, 4, 6):
            _assert_matches_validated(phi)

    @given(_multiset_pairs())
    @settings(max_examples=80)
    def test_arithmetic_matches_validated_construction(self, pair):
        phi, psi = pair
        for result in (reverse(phi), phi + psi, (phi + psi) - psi, phi - phi,
                       3 * phi, phi * 0):
            _assert_matches_validated(result)

    @given(_level_multisets())
    @settings(max_examples=80)
    def test_reverse_preserves_coefficient_and_size(self, phi):
        assert coefficient(reverse(phi)) == coefficient(phi)
        assert reverse(phi).size == phi.size

    @given(_level_multisets())
    @settings(max_examples=80)
    def test_som_reversal_commutes(self, phi):
        n = len(phi.ground)
        assert som(reverse(phi)) == (n - 1) * phi.size - som(phi)

    @given(_multiset_pairs())
    @settings(max_examples=80)
    def test_addition_is_pointwise(self, pair):
        phi, psi = pair
        total = phi + psi
        assert total.size == phi.size + psi.size
        assert all(total(x) == phi(x) + psi(x) for x in phi.ground)
        assert leq(phi, total)


class TestTextForm:
    def test_format_examples(self):
        assert format_multiset(ms("3|0> + 1|3>", levels(4))) == "3|0> + 1|3>"
        assert format_multiset(empty(levels(2))) == "0"

    def test_roundtrip(self):
        for phi in enumerate_multisets(levels(4), 3):
            assert parse_multiset(format_multiset(phi), levels(4)) == phi

    def test_zero_terms_and_merging(self):
        assert ms("1|R> + 1|B> + 2|G> + 2|R> + 0|P>",
                  GroundSet("RGBP")) == ms("3|R> + 2|G> + 1|B>", GroundSet("RGBP"))

    def test_inferred_numeric_ground(self):
        phi = ms("2|0> + 1|3>")
        assert phi.ground == levels(4)

    def test_malformed(self):
        with pytest.raises(ValueError):
            parse_multiset("3|0")
        with pytest.raises(ValueError):
            parse_multiset("x|0>")
        with pytest.raises(ValueError):
            parse_multiset("0")  # empty multiset needs a ground

    def test_unit_and_arithmetic(self):
        g = levels(3)
        phi = unit(g, 1) + unit(g, 1) + unit(g, 2)
        assert format_multiset(phi) == "2|1> + 1|2>"
        assert phi - unit(g, 2) == ms("2|1>", g)
        with pytest.raises(ValueError):
            phi - ms("1|0>", g)
        assert 2 * phi == ms("4|1> + 2|2>", g)
