import itertools
import math
import random
from fractions import Fraction

import pytest

from discrete_boltzmann import (
    Channel,
    Dist,
    GroundSet,
    Multiset,
    binom,
    boltzmann_multi,
    boltzmann_multi_on_levels,
    boltzmann_on_multisets,
    boltzmann_on_numbers,
    coefficient,
    empty,
    enumerate_multisets,
    enumerate_multisets_with_sum,
    flrn,
    hypergeometric,
    image,
    leq,
    levels,
    microstate_uniform,
    mult_binom,
    mult_multichoose,
    multichoose,
    nomial,
    nomial_coeff_multisets,
    nomial_distribution,
    parse_multiset,
    point,
    polya,
    pushforward,
)
from discrete_boltzmann import multivariate
from test_count_core import URNS

F = Fraction


def urn(text):
    return parse_multiset(text)


def random_urn(rng, max_labels=4, max_total=8):
    m = rng.randint(1, max_labels)
    ground = GroundSet([f"x{j}" for j in range(m)])
    counts = {x: 1 for x in ground.labels}
    for _ in range(rng.randint(0, max_total - m)):
        counts[rng.choice(ground.labels)] += 1
    return Multiset(ground, counts)


NINE_TERM_EXPECTED = [
    ("2|a> + 10|b> + 3|c>", F(7, 156)),
    ("2|a> + 9|b> + 4|c>", F(5, 26)),
    ("1|a> + 10|b> + 4|c>", F(1, 26)),
    ("2|a> + 8|b> + 5|c>", F(15, 52)),
    ("1|a> + 9|b> + 5|c>", F(5, 52)),
    ("10|b> + 5|c>", F(1, 52)),
    ("2|a> + 7|b> + 6|c>", F(5, 26)),
    ("1|a> + 8|b> + 6|c>", F(5, 52)),
    ("9|b> + 6|c>", F(5, 156)),
]


class TestMultisetCoefficients:
    def test_binom_boundaries(self):
        psi = urn("2|a> + 3|b>")
        assert mult_binom(psi, psi) == 1
        assert mult_binom(psi, empty(psi.ground)) == 1

    def test_binom_order_violation(self):
        psi = urn("2|a> + 3|b>")
        with pytest.raises(ValueError):
            mult_binom(psi, parse_multiset("3|a>", psi.ground))

    def test_multichoose_needs_positive_urn(self):
        ground = GroundSet("ab")
        psi = parse_multiset("2|a>", ground)  # b has multiplicity 0
        with pytest.raises(ValueError):
            mult_multichoose(psi, parse_multiset("1|a>", ground))

    def test_vandermonde_binomial(self):
        rng = random.Random(5)
        for _ in range(30):
            psi = random_urn(rng)
            total = psi.size
            for k in range(total + 1):
                caps = dict(psi.items())
                split = sum(mult_binom(psi, phi)
                            for phi in enumerate_multisets(psi.ground, k, caps=caps))
                assert split == binom(total, k)

    def test_vandermonde_multichoose(self):
        rng = random.Random(6)
        for _ in range(30):
            psi = random_urn(rng)
            total = psi.size
            for k in range(total + 1):
                split = sum(mult_multichoose(psi, phi)
                            for phi in enumerate_multisets(psi.ground, k))
                assert split == multichoose(total, k)


class TestDrawDistributions:
    def test_zero_draws(self):
        psi = urn("1|a> + 5|b> + 3|c>")
        assert hypergeometric(0, psi) == point(empty(psi.ground))
        assert polya(0, psi) == point(empty(psi.ground))

    def test_full_draw_empties_the_urn(self):
        psi = urn("2|a> + 1|b>")
        assert hypergeometric(psi.size, psi) == point(psi)

    def test_learning_laws(self):
        rng = random.Random(7)
        for _ in range(25):
            psi = random_urn(rng)
            k = rng.randint(1, psi.size)
            learned = flrn(psi)
            assert pushforward(Channel(flrn), hypergeometric(k, psi)) == learned
            assert pushforward(Channel(flrn), polya(k, psi)) == learned

    def test_hypergeometric_overdraw_rejected(self):
        psi = urn("2|a> + 1|b>")
        with pytest.raises(ValueError):
            hypergeometric(4, psi)

    def test_polya_support_is_unrestricted(self):
        psi = urn("1|a> + 1|b>")
        assert len(polya(3, psi)) == multichoose(2, 3)


def oracle_numerators(psi, size, caps, weight, total):
    """(numerators, denominator) of the draws in enumeration order, each
    weighing ``weight(phi)`` over ``total``, reduced by their common gcd."""
    pairs = [(phi, weight(phi)) for phi in enumerate_multisets(psi.ground, size, caps=caps)]
    g = math.gcd(total, *(w for _, w in pairs))
    return tuple((phi, w // g) for phi, w in pairs if w), total // g


PER_DRAW_URNS = [urn(text) for text in URNS] + [
    Multiset(GroundSet("abc"), {"a": 2, "b": 0, "c": 3})]  # one label holds no ball


class TestPerDrawWeights:
    """Every draw of the three urn laws weighs its label-by-label oracle
    product over the law's normalizer, in the enumeration's order."""

    @staticmethod
    def assert_draws(dist, expected):
        numerators, denominator = expected
        assert dist.numerators() == numerators
        assert dist.denominator == denominator

    @pytest.mark.parametrize("psi", PER_DRAW_URNS, ids=str)
    def test_hypergeometric(self, psi):
        for k in range(psi.size + 1):
            self.assert_draws(hypergeometric(k, psi), oracle_numerators(
                psi, k, dict(psi.items()), lambda phi: mult_binom(psi, phi),
                binom(psi.size, k)))

    @pytest.mark.parametrize("psi", PER_DRAW_URNS, ids=str)
    def test_polya(self, psi):
        for k in range(psi.size + 1):
            if min(psi.counts_vector()) < 1:
                with pytest.raises(ValueError, match="needs psi\\(x\\) >= 1 on every label"):
                    polya(k, psi)
                continue
            self.assert_draws(polya(k, psi), oracle_numerators(
                psi, k, None, lambda phi: mult_multichoose(psi, phi),
                multichoose(psi.size, k)))

    @pytest.mark.parametrize("psi", PER_DRAW_URNS, ids=str)
    @pytest.mark.parametrize("n", [None, 2, 3])
    def test_nomial_distribution(self, psi, n):
        levels = len(psi.ground) if n is None else n
        caps = {x: (levels - 1) * c for x, c in psi.items()}
        for i in range((levels - 1) * psi.size + 1):
            self.assert_draws(nomial_distribution(i, psi, n), oracle_numerators(
                psi, i, caps, lambda phi: nomial_coeff_multisets(levels, psi, phi),
                nomial(levels, psi.size, i)))


class TestNomialCoefficients:
    def test_empty_draw(self):
        psi = urn("1|a> + 5|b> + 3|c>")
        assert nomial_coeff_multisets(4, psi, empty(psi.ground)) == 1

    def test_binary_reduces_to_binomial(self):
        psi = urn("3|a> + 4|b>")
        for phi in enumerate_multisets(psi.ground, 3, caps=dict(psi.items())):
            assert nomial_coeff_multisets(2, psi, phi) == mult_binom(psi, phi)

    def test_vandermonde(self):
        rng = random.Random(8)
        for _ in range(25):
            psi = random_urn(rng)
            n = rng.randint(2, 5)
            total = psi.size
            i = rng.randint(0, (n - 1) * total)
            caps = {x: (n - 1) * c for x, c in psi.items()}
            split = sum(nomial_coeff_multisets(n, psi, phi)
                        for phi in enumerate_multisets(psi.ground, i, caps=caps))
            assert split == nomial(n, total, i)

    def test_order_violation(self):
        psi = urn("2|a> + 1|b>")
        phi = parse_multiset("3|a>", psi.ground)
        with pytest.raises(ValueError):
            nomial_coeff_multisets(2, psi, phi)


class TestNomialDistribution:
    def test_nine_term_example(self):
        psi = urn("1|a> + 5|b> + 3|c>")
        expected = Dist([(parse_multiset(text, psi.ground), w)
                         for text, w in NINE_TERM_EXPECTED])
        assert nomial_distribution(15, psi) == expected

    def test_binary_case_is_hypergeometric(self):
        rng = random.Random(9)
        for _ in range(20):
            m = rng.randint(1, 8)
            ground = GroundSet("ab")
            psi = Multiset(ground, {"a": rng.randint(1, m), "b": rng.randint(1, m)})
            i = rng.randint(0, psi.size)
            assert nomial_distribution(i, psi) == hypergeometric(i, psi)

    def test_learning_law(self):
        rng = random.Random(10)
        for _ in range(20):
            psi = random_urn(rng)
            n = rng.randint(2, 5)
            i = rng.randint(1, (n - 1) * psi.size)
            assert pushforward(Channel(flrn), nomial_distribution(i, psi, n)) == flrn(psi)

    def test_support_respects_caps(self):
        psi = urn("1|a> + 5|b> + 3|c>")
        for phi in nomial_distribution(15, psi):
            assert leq(phi, 2 * psi)
            assert phi.size == 15

    def test_range_violation(self):
        psi = urn("1|a> + 2|b>")
        with pytest.raises(ValueError):
            nomial_distribution(7, psi)  # (3-1)*3 = 6 is the maximum


class TestBoltzmannMulti:
    def test_single_kind_reduction(self):
        psi = parse_multiset("4|z>")
        tuples = boltzmann_multi(4, psi, 3)
        assert image(tuples, lambda t: t[0]) == boltzmann_on_multisets(4, 4, 3)

    def test_zero_energy_point(self):
        psi = urn("2|a> + 3|b>")
        dist = boltzmann_multi(4, psi, 0)
        g4 = levels(4)
        assert dist == point((parse_multiset("2|0>", g4), parse_multiset("3|0>", g4)))

    def test_component_sizes_and_energy_split(self):
        from discrete_boltzmann import som
        psi = urn("2|a> + 3|b>")
        dist = boltzmann_multi(3, psi, 4)
        for combo in dist:
            assert [c.size for c in combo] == [2, 3]
            assert sum(som(c) for c in combo) == 4

    def test_normalization_sweep(self):
        rng = random.Random(11)
        for _ in range(10):
            psi = random_urn(rng, max_labels=3, max_total=5)
            n = rng.randint(1, 4)
            for i in range((n - 1) * psi.size + 1):
                dist = boltzmann_multi(n, psi, i)
                assert sum(dist.weights()) == 1

    def test_levels_tuple_distribution(self):
        psi = urn("2|a> + 3|b>")
        dist = boltzmann_multi_on_levels(3, psi, 4)
        assert sum(dist.weights()) == 1
        assert all(len(t) == 2 for t in dist)
        # the overall mean energy per particle splits across the kinds
        total = sum(w * (2 * t[0] + 3 * t[1]) for t, w in dist.items())
        assert total == 4
        # marginal of a single-kind urn collapses to the numbers family
        single = parse_multiset("4|z>")
        marg = image(boltzmann_multi_on_levels(4, single, 3), lambda t: t[0])
        assert marg == boltzmann_on_numbers(4, 4, 3)

    @staticmethod
    def brute_force(n, psi, i):
        """Every energy split in colex order, each with the product of its
        per-kind configuration spaces, weighted by the coefficient product."""
        sizes = psi.counts_vector()
        pairs = []
        for reversed_split in itertools.product(*(range((n - 1) * s + 1) for s in sizes[::-1])):
            if sum(reversed_split) != i:
                continue
            spaces = [list(enumerate_multisets_with_sum(n, s, e))
                      for s, e in zip(sizes, reversed_split[::-1])]
            pairs += [(combo, math.prod(map(coefficient, combo)))
                      for combo in itertools.product(*spaces)]
        return Dist(pairs, sum(w for _, w in pairs))

    @pytest.mark.parametrize("n, counts", [
        (3, {"a": 2, "b": 3}),
        (4, {"a": 2, "b": 0, "c": 1}),
        (3, {"a": 0, "b": 2, "c": 0, "d": 1}),
        (1, {"a": 2, "b": 1}),
        (1, {"a": 0, "b": 3}),
        (2, {"a": 1, "b": 1, "c": 1}),
        (5, {"z": 3}),
    ])
    def test_against_brute_force(self, n, counts):
        psi = Multiset(GroundSet(list(counts)), counts)
        for i in range((n - 1) * psi.size + 1):
            got, expected = boltzmann_multi(n, psi, i), self.brute_force(n, psi, i)
            assert got == expected and got.support == expected.support, (n, counts, i)

    def test_levels_requires_occupied_kinds(self):
        ground = GroundSet("ab")
        psi = parse_multiset("2|a>", ground)
        with pytest.raises(ValueError):
            boltzmann_multi_on_levels(3, psi, 2)


def flrn_product_route(n, psi, i):
    """The per-kind level family as first built: every tuple of
    ``boltzmann_multi`` pushed through a product of flrn laws."""
    def independent_product(combo):
        dists = [flrn(c) for c in combo]
        pairs = [((), 1)]
        for d in dists:
            pairs = [(xs + (y,), p * q) for xs, p in pairs for y, q in d.numerators()]
        return Dist(pairs, math.prod(d.denominator for d in dists))

    return pushforward(Channel(independent_product), boltzmann_multi(n, psi, i))


def kinds(*sizes):
    ground = GroundSet([f"x{j}" for j in range(len(sizes))])
    return Multiset(ground, dict(zip(ground.labels, sizes)))


class TestLevelFamilyRow:
    """The per-kind level family read from one N-nomial row: the level
    tuple (j_x) weighs C_N(K - L, i - sum_x j_x) / C_N(K, i)."""

    @pytest.mark.parametrize("n, counts", [
        (3, {"a": 2, "b": 3}),
        (1, {"a": 2, "b": 1}),
        (2, {"a": 1, "b": 1, "c": 1}),
        (5, {"z": 3}),
    ])
    def test_against_flrn_product_route(self, n, counts):
        psi = Multiset(GroundSet(list(counts)), counts)
        for i in range((n - 1) * psi.size + 1):
            assert boltzmann_multi_on_levels(n, psi, i) == flrn_product_route(n, psi, i), (n, counts, i)

    @pytest.mark.parametrize("i", [0, 12, 36])
    def test_against_flrn_product_route_three_kinds_of_four(self, i):
        psi = kinds(4, 4, 4)
        assert boltzmann_multi_on_levels(4, psi, i) == flrn_product_route(4, psi, i)

    @pytest.mark.parametrize("n, sizes, sums", [
        (2, (3, 2, 1), None),
        (3, (2, 3), None),
        (4, (1, 1, 1), None),
        (4, (2, 2, 2, 1), None),
        (3, (4, 4, 3), (0, 11, 22)),
    ])
    def test_microstate_marginal(self, n, sizes, sums):
        psi = kinds(*sizes)
        k, width = psi.size, len(sizes)
        assert n ** k <= 2 * 10 ** 5
        for i in sums or range((n - 1) * k + 1):
            marginal = image(microstate_uniform(n, k, i), lambda v: v[:width])
            assert boltzmann_multi_on_levels(n, psi, i) == marginal, (n, sizes, i)

    def test_one_kind_is_the_numbers_family(self):
        for n in range(1, 7):
            for k in range(1, 8):
                for i in range((n - 1) * k + 1):
                    got = boltzmann_multi_on_levels(n, kinds(k), i)
                    expected = boltzmann_on_numbers(n, k, i)
                    assert image(got, lambda t: t[0]) == expected, (n, k, i)
                    assert [t[0] for t in got.support] == list(expected.support), (n, k, i)

    @pytest.mark.parametrize("n, sizes", [
        (3, (2, 3)), (4, (1, 2)), (5, (3, 3)), (3, (1, 1, 1)), (4, (2, 1, 3)), (2, (2, 2, 2)),
    ])
    def test_order_and_support(self, n, sizes):
        """Level sum ascending, then colex (the reversed tuples ascending);
        the support is every tuple of entries below N whose rest
        C_N(K - L, i - s) is nonzero."""
        psi = kinds(*sizes)
        k, width = psi.size, len(sizes)
        for i in range((n - 1) * k + 1):
            support = boltzmann_multi_on_levels(n, psi, i).support
            assert list(support) == sorted(support, key=lambda t: (sum(t), t[::-1])), (n, sizes, i)
            expected = {t for t in itertools.product(range(n), repeat=width)
                        if 0 <= i - sum(t) <= (n - 1) * (k - width)}
            assert set(support) == expected, (n, sizes, i)

    def test_out_of_range_message(self):
        with pytest.raises(ValueError, match=r"^sum 5 out of range \[0, 4\] for N=3, K=2$"):
            boltzmann_multi_on_levels(3, kinds(1, 1), 5)

    def test_unoccupied_kind_message(self):
        with pytest.raises(ValueError, match=r"^componentwise learning needs psi\(x\) >= 1 on every kind$"):
            boltzmann_multi_on_levels(3, kinds(2, 0), 2)

    def test_no_configuration_is_enumerated(self, monkeypatch):
        psi = kinds(5, 5, 4)
        expected = boltzmann_multi_on_levels(5, psi, 28)

        def refuse(*args, **kwargs):
            raise AssertionError("the level family enumerated configurations")

        monkeypatch.setattr(multivariate, "boltzmann_multi", refuse)
        monkeypatch.setattr(multivariate, "enumerate_multisets_with_sum", refuse)
        for i in (0, 14, 28, 56):
            got = boltzmann_multi_on_levels(5, psi, i)
            assert all(max(t) <= 4 for t in got.support)
        assert boltzmann_multi_on_levels(5, psi, 28) == expected
        assert len(expected) == 5 ** 3
