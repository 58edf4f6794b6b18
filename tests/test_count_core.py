"""The integer-count core of ``Dist``: ``Dist._from_counts(support, counts, total)``.

The exact families hand their counts and normalizer to the core in one
piece.  The core keeps the contract of ``Dist.__init__`` on such input:
the same messages, zero counts dropped, the sum checked against the
total, plain ``int`` numerators in lowest terms.  Every builder that
calls it returns the ``Dist`` that ``__init__`` builds from the same
pairs, support order included.
"""

import math
import sys
from fractions import Fraction

import pytest

from discrete_boltzmann import (
    Dist,
    GroundSet,
    Multiset,
    boltzmann_multi,
    boltzmann_multi_on_levels,
    boltzmann_on_energy,
    boltzmann_on_multisets,
    boltzmann_on_numbers,
    discrete_exponential,
    enumerate_multisets_with_sum,
    flrn,
    flrn_dagger,
    hypergeometric,
    max_entropy_dist,
    multiset_coefficient_distribution,
    nomial_distribution,
    parse_multiset,
    polya,
    ratio_approx,
    shift,
    shift_channel,
    shift_on_numbers,
)
from discrete_boltzmann.approx import _geometric


def assert_lowest_int_terms(dist):
    nums = [n for _, n in dist.numerators()]
    assert all(type(n) is int and n > 0 for n in nums)
    assert type(dist.denominator) is int
    assert math.gcd(dist.denominator, *nums) == 1


# ---------------------------------------------------------------------------
# the core's contract
# ---------------------------------------------------------------------------

class TestContract:
    def test_negative_count_keeps_the_message_of_init(self):
        support, counts = ["a", "b", "c", "d"], [3, -2, 2, -1]
        with pytest.raises(ValueError, match=r"^negative weight -2 on 'b'$"):
            Dist._from_counts(support, counts, 2)
        with pytest.raises(ValueError, match=r"^negative weight -2 on 'b'$"):
            Dist(list(zip(support, counts)), 2)

    def test_negative_count_wins_over_a_sum_mismatch(self):
        with pytest.raises(ValueError, match=r"^negative weight -1 on 0$"):
            Dist._from_counts(range(2), [-1, 5], 7)

    def test_zero_counts_are_dropped(self):
        dist = Dist._from_counts(range(6), [0, 2, 0, 0, 4, 0], 6)
        assert dist.numerators() == ((1, 1), (4, 2))
        assert dist.denominator == 3
        assert dist.support == (1, 4)
        assert dist(0) == 0

    def test_all_zero_counts_are_refused(self):
        with pytest.raises(ValueError, match=r"^weights must sum to exactly 1$"):
            Dist._from_counts(range(3), [0, 0, 0], 0)

    def test_empty_support_is_refused(self):
        with pytest.raises(ValueError, match=r"^weights must sum to exactly 1$"):
            Dist._from_counts((), [], 1)

    @pytest.mark.parametrize("total", [5, 7, 0, -6])
    def test_total_mismatch_is_refused(self, total):
        with pytest.raises(ValueError, match=r"^weights must sum to exactly 1$"):
            Dist._from_counts(["x", "y"], [2, 4], total)

    def test_repeated_element_is_refused(self):
        with pytest.raises(ValueError, match=r"^support elements must be distinct$"):
            Dist._from_counts(["x", "y", "x"], [1, 1, 1], 3)
        # __init__ merges the same pairs instead
        assert Dist([("x", 1), ("y", 1), ("x", 1)], 3) == Dist({"x": 2, "y": 1}, 3)

    def test_length_mismatch_is_refused(self):
        with pytest.raises(ValueError):
            Dist._from_counts(range(3), [1, 1], 2)

    @pytest.mark.parametrize("counts, total, expected, den", [
        ([2, 4, 6], 12, ((0, 1), (1, 2), (2, 3)), 6),
        ([6, 6, 6], 18, ((0, 1), (1, 1), (2, 1)), 3),
        ([7], 7, ((0, 1),), 1),
        ([3, 5], 8, ((0, 3), (1, 5)), 8),
        ([2 ** 300, 3 * 2 ** 300], 2 ** 302, ((0, 1), (1, 3)), 4),
    ], ids=["halves", "thirds", "single", "coprime", "wide"])
    def test_numerators_are_plain_ints_in_lowest_terms(self, counts, total, expected, den):
        dist = Dist._from_counts(range(len(counts)), counts, total)
        assert dist.numerators() == expected
        assert dist.denominator == den
        assert_lowest_int_terms(dist)

    def test_equals_init_on_the_same_pairs(self):
        support = [Fraction(1, 3), "a", (1, 2), 5]
        counts = [9, 0, 3, 12]
        dist = Dist._from_counts(support, counts, 24)
        expected = Dist(list(zip(support, counts)), 24)
        assert dist == expected
        assert dist.numerators() == expected.numerators()


# ---------------------------------------------------------------------------
# parity: every builder that calls the core
# ---------------------------------------------------------------------------

@pytest.fixture
def handed_over(monkeypatch):
    """Record each call of the core as (support, counts, total, result)."""
    calls = []
    core = Dist._from_counts.__func__

    def spy(cls, support, counts, total):
        dist = core(cls, support, counts, total)
        calls.append((list(support), list(counts), total, dist))
        return dist

    monkeypatch.setattr(Dist, "_from_counts", classmethod(spy))
    return calls


def assert_parity(calls):
    """Each call's result equals ``Dist(list(pairs), total)`` through __init__,
    order included, in lowest terms."""
    assert calls
    for support, counts, total, dist in calls:
        expected = Dist(list(zip(support, counts)), total)
        assert dist == expected
        assert dist.numerators() == expected.numerators()
        assert_lowest_int_terms(dist)


def numbers_cases():
    """The numbers family below N, at or above N, and on the mirrored side."""
    for n in range(1, 7):
        for k in range(1, 7):
            for i in range((n - 1) * k + 1):
                yield n, k, i
    yield from [(3, 40, 70), (30, 40, 900), (30, 40, 300), (12, 50, 30), (200, 300, 59000)]


# (1000, 1) and (2000, 1) lift weights below the normal float range by the split form
DEXP_CASES = [(10, 3), (25, 5), (360, 7), (100, Fraction(1, 7)), (1000, 1), (2000, 1)]


class TestParity:
    def test_numbers_family(self, handed_over):
        sides = set()
        for n, k, i in numbers_cases():
            handed_over.clear()
            dist = boltzmann_on_numbers(n, k, i)
            assert len(handed_over) == 1 and handed_over[0][3] is dist
            assert_parity(handed_over)
            w = min(i, (n - 1) * k - i)
            sides.add((w < n, 2 * i > (n - 1) * k))
        assert sides == {(True, True), (True, False), (False, True), (False, False)}

    @pytest.mark.parametrize("e, k", [(1, 2), (2, 5), (10, 3), (40, 2), (153, 137), (300, 7)])
    def test_energy_family(self, handed_over, e, k):
        dist = boltzmann_on_energy(e, k)
        assert handed_over[-1][3] is dist
        assert_parity(handed_over)

    @pytest.mark.parametrize("e, p, q", [
        (1, 1, 2), (10, 1, 1), (10, 3, 4), (10, 4, 3), (60, 5, 7), (200, 123, 456), (25, 1, 10 ** 9),
    ])
    def test_geometric(self, handed_over, e, p, q):
        dist = _geometric(e, p, q)
        assert len(handed_over) == 1 and handed_over[0][3] is dist
        assert_parity(handed_over)

    def test_ratio_and_max_entropy_laws(self, handed_over):
        for e, mu in [(10, Fraction(10, 3)), (50, Fraction(7, 2)), (50, Fraction(80, 3)), (200, 3)]:
            ratio_approx(e, mu)
            max_entropy_dist(e, mu)
        assert_parity(handed_over)

    @pytest.mark.parametrize("e, mu", DEXP_CASES)
    def test_discrete_exponential(self, handed_over, e, mu):
        dist = discrete_exponential(e, mu)
        assert len(handed_over) == 1 and handed_over[0][3] is dist
        assert_parity(handed_over)

    def test_discrete_exponential_sweep_holds_the_split_path(self):
        split = [math.exp(-e / mu) < sys.float_info.min for e, mu in DEXP_CASES]
        assert any(split) and not all(split)

    def test_multisets_family(self, handed_over):
        for n in range(1, 5):
            for k in range(1, 5):
                for i in range((n - 1) * k + 1):
                    handed_over.clear()
                    dist = boltzmann_on_multisets(n, k, i)
                    assert handed_over[-1][3] is dist
                    assert_parity(handed_over)

    @pytest.mark.parametrize("ground", [GroundSet(range(m)) for m in range(1, 5)]
                             + [GroundSet(["red", "green", "blue"])])
    def test_multiset_coefficient_distribution(self, handed_over, ground):
        for k in range(6):
            handed_over.clear()
            dist = multiset_coefficient_distribution(ground, k)
            assert len(handed_over) == 1 and handed_over[0][3] is dist
            assert_parity(handed_over)

    def test_multiset_coefficient_distribution_refuses_a_negative_size(self):
        with pytest.raises(ValueError, match="^size must be a natural$"):
            multiset_coefficient_distribution(GroundSet("ab"), -1)

    def test_level_chain_rows_with_zero_counts(self, handed_over):
        zeros = 0
        for n, k, i in [(3, 2, 2), (4, 3, 3), (4, 3, 5), (5, 4, 6), (3, 3, 1), (6, 2, 9)]:
            chain = shift_on_numbers(n, k, i)
            for j in range(n):
                try:
                    chain(j)
                except ValueError:
                    continue
            zeros += sum(0 in counts for _, counts, _, _ in handed_over)
            assert_parity(handed_over)
            handed_over.clear()
        assert zeros

    def test_flrn_with_zero_multiplicities(self, handed_over):
        ground = GroundSet("abcd")
        for counts in [(0, 2, 0, 4), (1, 0, 0, 0), (3, 3, 3, 3), (0, 0, 5, 1)]:
            handed_over.clear()
            phi = Multiset(ground, zip(ground.labels, counts))
            dist = flrn(phi)
            assert handed_over[-1][3] is dist
            assert_parity(handed_over)
            assert dist == Dist(phi.items(), phi.size)
            assert dist.numerators() == Dist(phi.items(), phi.size).numerators()

    def test_shift_rows_and_flrn_dagger(self, handed_over):
        for n, k, i in [(3, 2, 2), (4, 3, 5), (5, 4, 6)]:
            chain = shift_channel(n, k, i)
            dagger = flrn_dagger(n, k, i)
            for phi in enumerate_multisets_with_sum(n, k, i):
                chain(phi)
                shift(phi)
            for j in range(n):
                dagger(j)
        assert_parity(handed_over)


URNS = ["1|a>", "2|a> + 1|b>", "1|a> + 5|b> + 3|c>", "3|a> + 3|b>", "2|x> + 1|y> + 1|z>"]


class TestUrnParity:
    """The urn distributions and tuple Boltzmann families of ``multivariate``."""

    @pytest.mark.parametrize("urn", URNS)
    def test_hypergeometric_and_polya(self, handed_over, urn):
        psi = parse_multiset(urn)
        for k in range(psi.size + 1):
            for build in (hypergeometric, polya):
                handed_over.clear()
                dist = build(k, psi)
                assert len(handed_over) == 1 and handed_over[0][3] is dist
                assert_parity(handed_over)

    @pytest.mark.parametrize("urn", URNS)
    def test_nomial_distribution(self, handed_over, urn):
        psi = parse_multiset(urn)
        for n in (None, 2, 3):
            levels = len(psi.ground) if n is None else n
            for i in range((levels - 1) * psi.size + 1):
                handed_over.clear()
                dist = nomial_distribution(i, psi, n)
                assert len(handed_over) == 1 and handed_over[0][3] is dist
                assert_parity(handed_over)

    @pytest.mark.parametrize("urn", URNS)
    def test_tuple_family_and_its_levels(self, handed_over, urn):
        psi = parse_multiset(urn)
        for n in (1, 2, 3):
            for i in range((n - 1) * psi.size + 1):
                handed_over.clear()
                on_levels = boltzmann_multi_on_levels(n, psi, i)
                assert len(handed_over) == 1 and handed_over[0][3] is on_levels
                assert_parity(handed_over)
                if psi.size <= 6:
                    handed_over.clear()
                    dist = boltzmann_multi(n, psi, i)
                    assert handed_over[-1][3] is dist
                    assert_parity(handed_over)
