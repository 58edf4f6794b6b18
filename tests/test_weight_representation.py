"""A ``Dist`` as integer numerators over one denominator, and the float
layer over wide distributions built from it."""

import decimal
import math
from fractions import Fraction

import pytest

from discrete_boltzmann import (
    Channel,
    Dist,
    boltzmann_on_energy,
    boltzmann_on_multisets,
    compare,
    discrete_exponential,
    enumerate_multisets_with_sum,
    flrn,
    kl_divergence,
    levels,
    max_entropy_dist,
    mean,
    parse_multiset,
    point,
    pushforward,
    ratio_approx,
    shift_channel,
    uniform,
)
from discrete_boltzmann.markov import sample_trajectory

F = Fraction


def fraction_pushforward(channel, omega):
    """Reference: the pushforward summed one Fraction product at a time."""
    acc = {}
    for x, p in omega.items():
        for y, q in channel(x).items():
            acc[y] = acc.get(y, Fraction(0)) + p * q
    return list(acc.items())


class TestCanonicalForm:
    def test_counts_over_total_equal_fractions(self):
        counts = Dist([(0, 3), (1, 3)], 6)
        assert counts == uniform([0, 1]) == Dist([(0, F(1, 2)), (1, F(1, 2))])
        assert hash(counts) == hash(uniform([0, 1])) == hash(Dist({1: F(1, 2), 0: F(1, 2)}))

    def test_stored_in_lowest_terms(self):
        d = Dist([("a", 2), ("b", 4), ("a", 2)], 8)
        assert d.denominator == 2
        assert d.numerators() == (("a", 1), ("b", 1))
        assert d.items() == (("a", F(1, 2)), ("b", F(1, 2)))

    def test_mixed_weights_scale_to_one_denominator(self):
        d = Dist([("a", F(1, 2)), ("b", F(1, 4)), ("c", F(5, 4))], 2)
        assert d.denominator == 8
        assert d.numerators() == (("a", 2), ("b", 1), ("c", 5))

    def test_pushforward_equals_fraction_pairs(self):
        omega = Dist([(0, F(1, 3)), (1, F(1, 6)), (2, F(1, 2))])
        channel = Channel(lambda x: Dist([(x, 1), (x + 1, 2), (x + 2, 4)], 7))
        pushed = pushforward(channel, omega)
        same = Dist(fraction_pushforward(channel, omega))
        assert pushed == same and hash(pushed) == hash(same)
        assert list(pushed.items()) == fraction_pushforward(channel, omega)

    def test_flrn_is_counts_over_size(self):
        phi = parse_multiset("3|a> + 4|b> + 5|c>")
        assert flrn(phi) == Dist(phi.items(), 12)
        assert flrn(phi).denominator == 12

    @pytest.mark.parametrize("counts, total", [
        ([(0, 1), (1, 2)], 4),
        ([(0, 1), (1, 2)], 2),
        ([(0, 1), (1, 1)], 1),
        ([], 0),
        ([(0, 0)], 0),
    ])
    def test_counts_must_sum_to_total(self, counts, total):
        with pytest.raises(ValueError):
            Dist(counts, total)

    def test_point_default_total(self):
        assert Dist([("x", 1)]) == point("x")
        with pytest.raises(ValueError):
            Dist([("x", 2)])


class TestKernelsAgainstFractionReference:
    def test_shift_pushforward_on_small_spaces(self):
        checked = 0
        for n in range(1, 5):
            for k in range(1, 5):
                for i in range((n - 1) * k + 1):
                    channel = shift_channel(n, k, i)
                    space = list(enumerate_multisets_with_sum(n, k, i))
                    starts = [uniform(space), boltzmann_on_multisets(n, k, i), point(space[-1])]
                    for omega in starts:
                        assert list(pushforward(channel, omega).items()) == \
                            fraction_pushforward(channel, omega)
                        checked += 1
        assert checked == 3 * sum(
            (n - 1) * k + 1 for n in range(1, 5) for k in range(1, 5))

    def test_kl_keeps_the_fraction_formula_bits(self):
        for e, k in [(10, 3), (40, 7), (120, 30)]:
            ref, cand = boltzmann_on_energy(e, k), ratio_approx(e, F(e, k))
            expected = 0.0
            for x, p in ref.items():
                expected += float(p) * math.log(float(p / cand(x)))
            assert kl_divergence(ref, cand) == expected


class TestSeededPaths:
    # captured before the weights became integer numerators
    PATHS = [
        ("2|0> + 1|1> + 3|4>", 6, 1,
         "210030 210030 201120 201120 201120 201120 111210 103110 014010 022110 103110 "
         "103110 104001 104001 112101 031101 022110 022110 031101 112101 112101 104001 "
         "104001 023001 023001 023001 023001 022110 021300 021300 013200"),
        ("4|0> + 2|3>", 5, 7,
         "40020 40020 40020 40020 40020 40020 40101 40101 40101 32001 32001 32001 32001 "
         "32001 32001 32001 32001 32001 32001 32001 32001 32001 32001 40101 40101 40101 "
         "31110 31110 31110 31110 31110"),
        ("1|0> + 1|1> + 1|2> + 5|3>", 4, 2026,
         "1115 1115 1115 0305 0305 1115 0224 0143 0224 1115 0224 0143 0224 0143 0224 0224 "
         "0224 0143 0143 0143 0143 0143 0224 0224 0305 0224 0224 1115 1115 1115 1115"),
    ]

    @pytest.mark.parametrize("start, n, seed, expected", PATHS)
    def test_paths_unchanged(self, start, n, seed, expected):
        path = sample_trajectory(parse_multiset(start, levels(n)), 30, seed)
        assert " ".join("".join(map(str, p.counts_vector())) for p in path) == expected


class TestFloatLayerRegressions:
    def test_kl_skips_terms_whose_float_underflows(self):
        kl = kl_divergence(boltzmann_on_energy(2000, 1000), ratio_approx(2000, 2))
        assert math.isfinite(kl) and kl >= 0

    def test_kl_ratio_beyond_float_range(self):
        omega = uniform([0, 1])
        rho = Dist([(0, 2 ** 1100 - 1), (1, 1)], 2 ** 1100)
        expected = 0.5 * math.log(0.5) + 0.5 * (1099 * math.log(2))
        assert kl_divergence(omega, rho) == pytest.approx(expected, rel=1e-12)

    def test_discrete_exponential_keeps_full_support(self):
        d = discrete_exponential(2000, 1)
        assert list(d) == list(range(2001))
        w0 = d(0)
        ctx = decimal.Context(prec=40)
        for j, w in d.items():
            rel = w / w0
            got = ctx.divide(decimal.Decimal(rel.numerator), decimal.Decimal(rel.denominator))
            assert abs(got / ctx.exp(decimal.Decimal(-j)) - 1) < decimal.Decimal("1e-12")

    def test_discrete_exponential_without_underflow_keeps_float_weights(self):
        for e, mu in [(50, F(3)), (200, F(1, 2)), (360, F(7, 2))]:
            rate = 1.0 / float(mu)
            raw = [Fraction(math.exp(-rate * j)) for j in range(e + 1)]
            total = sum(raw)
            assert discrete_exponential(e, mu) == Dist((j, w / total) for j, w in enumerate(raw))

    def test_discrete_exponential_refuses_unholdable_weights(self):
        with pytest.raises(ValueError, match="bits"):
            discrete_exponential(2000, F(1, 1000))

    @pytest.mark.parametrize("e, mu", [(600, 100), (700, 100), (1000, 100), (2000, 100),
                                       (2000, 1000)])
    def test_max_entropy_large_energy(self, e, mu):
        dist, s = max_entropy_dist(e, mu)
        assert list(dist) == list(range(e + 1))
        assert abs(float(mean(dist) - mu)) < 1e-9
        assert 0 < s < 2

    def test_compare_at_large_energy_is_finite(self):
        report = compare(2000, 1000)
        assert math.isfinite(report.reference_entropy)
        for c in report.candidates:
            assert len(c.dist) == 2001
            assert math.isfinite(c.entropy) and math.isfinite(c.kl_from_reference)
