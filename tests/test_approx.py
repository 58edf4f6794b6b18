import math
import random
import sys
import time
from fractions import Fraction

import pytest

from discrete_boltzmann import (
    Dist,
    boltzmann_on_energy,
    compare,
    continuous_exponential_pdf,
    discrete_exponential,
    entropy,
    kl_divergence,
    max_entropy_dist,
    mean,
    point,
    ratio_approx,
    uniform,
)
from discrete_boltzmann.approx import (
    MAX_LIFT_BITS,
    _convergents,
    _geometric,
    _geometric_mean,
    _solve_base,
)
from discrete_boltzmann.cli import run

F = Fraction


class TestRatioApprox:
    def test_constant_ratio_by_construction(self):
        mu = F(5)
        dist = ratio_approx(25, mu)
        r = mu / (mu + 1)
        for j in range(25):
            assert dist(j + 1) == dist(j) * r

    def test_decreasing_geometric_shape(self):
        dist = ratio_approx(25, 5)
        weights = [dist(j) for j in range(26)]
        assert all(a > b for a, b in zip(weights, weights[1:]))
        assert sum(weights) == 1

    def test_exact_ratio_limit_of_reference(self):
        # the reference ratio (E-j)/(K+E-j-2) approaches mu/(mu+1) for many
        # particles; spot check at K=100 with mu=5
        k, mu = 100, 5
        e = k * mu
        reference = boltzmann_on_energy(e, k)
        for j in range(10):
            ratio = reference(j + 1) / reference(j)
            assert ratio == F(e - j, k + e - j - 2)
            assert abs(float(ratio) - mu / (mu + 1)) < 0.01

    def test_domain(self):
        with pytest.raises(ValueError):
            ratio_approx(0, 5)
        with pytest.raises(ValueError):
            ratio_approx(10, 0)

    @pytest.mark.parametrize("build", [lambda: ratio_approx(10 ** 4, 5000),
                                       lambda: compare(10 ** 4, 2)], ids=["ratio", "compare"])
    def test_weights_past_the_bit_budget_are_refused_before_they_are_built(self, build):
        start = time.perf_counter()
        with pytest.raises(ValueError, match="bits") as refusal:
            build()
        assert time.perf_counter() - start < 0.1
        assert "10000" in str(refusal.value) and str(MAX_LIFT_BITS) in str(refusal.value)

    def test_cli_refuses_the_comparison_past_the_bit_budget(self, capsys):
        assert run(["approx", "compare", "--total-energy", "40000", "--particles", "2"]) == 2
        assert "bits" in capsys.readouterr().err


class TestDiscreteExponential:
    def test_constant_ratio(self):
        mu = 5
        dist = discrete_exponential(25, mu)
        expected = Fraction(math.exp(-1 / mu))
        for j in range(25):
            assert dist(j + 1) / dist(j) == pytest.approx(float(expected))

    def test_truncation_pulls_mean_left(self):
        dist = discrete_exponential(25, 5)
        assert float(mean(dist)) < 5

    def test_rate_approximation_quality(self):
        # the exact decay rate ln(1 + 1/mu) sits close to 1/mu at mu=5
        assert abs(math.log(1 + 1 / 5) - 1 / 5) < 0.02

    def test_exactly_normalized(self):
        dist = discrete_exponential(30, F(7, 2))
        assert sum(dist.weights()) == 1

    def test_budget_refusal_names_a_mean_past_the_digit_limit(self):
        # the exact mean has 5,000 digits; the message names it as a float
        get_limit = getattr(sys, "get_int_max_str_digits", None)
        before = get_limit() if get_limit else 0
        if get_limit:
            sys.set_int_max_str_digits(4300)
        try:
            with pytest.raises(ValueError, match=r"discrete_exponential\(2000, 0\.001\) would hold"):
                discrete_exponential(2000, F(1, 1000) + F(1, 10 ** 5000))
        finally:
            if get_limit:
                sys.set_int_max_str_digits(before)

    def test_means_near_zero_are_refused(self):
        # E/mu overflows a float, so the message names the exponent as E over the mean
        for e, mu in [(2000, F(1, 10 ** 320)), (3, 5e-324), (3, F(1, 10 ** 308))]:
            with pytest.raises(ValueError, match="would hold weights") as refused:
                discrete_exponential(e, mu)
            assert "inf" not in str(refused.value), (e, mu)
        with pytest.raises(ValueError, match="smallest positive float"):
            discrete_exponential(2000, F(1, 10 ** 400))


class TestMaxEntropy:
    def test_figure_values(self):
        dist, s = max_entropy_dist(25, 5)
        assert 0.840 <= s <= 0.842
        assert 0.171 <= -math.log(s) <= 0.175
        assert abs(float(mean(dist)) - 5) < 1e-9
        assert 2.68 <= entropy(dist) <= 2.70

    def test_beats_reference_entropy(self):
        reference = boltzmann_on_energy(25, 5)
        dist, _ = max_entropy_dist(25, 5)
        assert 2.66 <= entropy(reference) <= 2.68
        assert entropy(dist) > entropy(reference)

    def test_symmetric_mean_gives_uniform(self):
        for e in (4, 10, 25):
            dist, s = max_entropy_dist(e, F(e, 2))
            assert s == pytest.approx(1.0, abs=1e-9)
            target = uniform(range(e + 1))
            assert all(abs(float(dist(j) - target(j))) < 1e-9 for j in range(e + 1))

    def test_boundary_means(self):
        dist0, s0 = max_entropy_dist(12, 0)
        assert dist0 == point(0) and s0 == 0.0
        dist1, s1 = max_entropy_dist(12, 12)
        assert dist1 == point(12) and s1 == math.inf

    def test_out_of_range_mean(self):
        with pytest.raises(ValueError):
            max_entropy_dist(10, 11)

    def test_mean_matches_target_across_cases(self):
        for e, mu in [(10, F(1, 2)), (10, 3), (40, F(33, 4)), (25, 20)]:
            dist, _ = max_entropy_dist(e, mu)
            assert abs(float(mean(dist) - mu)) < 1e-9

    def test_entropy_dominates_perturbations(self):
        # project perturbed distributions back onto the mean constraint by
        # exponential tilting, then compare entropies
        e, mu = 25, F(5)
        dist, _ = max_entropy_dist(e, mu)
        best = entropy(dist)
        rng = random.Random(99)
        for _ in range(100):
            noisy = [float(dist(j)) * math.exp(rng.uniform(-0.5, 0.5)) for j in range(e + 1)]
            tilted = _tilt_to_mean(noisy, float(mu))
            assert entropy(tilted) <= best + 1e-12

    def test_mean_near_top_solved_by_reversal(self):
        # above E/2 the direct bracket search overflowed once E >= 150
        for e, mu in [(150, F(14999, 100)), (400, F(39999, 100))]:
            dist, s = max_entropy_dist(e, mu)
            assert dist.support == tuple(range(e + 1))
            assert abs(float(mean(dist) - mu)) < 1e-9
            assert s > 1

    def test_solver_brackets_single_root(self):
        # the stationarity polynomial changes sign exactly once on (0, inf)
        for e, mu in [(25, 5.0), (10, 2.5), (15, 9.0)]:
            def poly(x):
                return sum(x ** j * (j - mu) for j in range(e + 1))
            _, s = max_entropy_dist(e, F(mu))
            assert poly(s * 0.9) < 0 < poly(s * 1.1)
            assert abs(poly(s)) < 1e-9

    @pytest.mark.parametrize("e", [1, 2, 10, 2000])
    def test_half_mean_is_exactly_uniform(self, e):
        assert max_entropy_dist(e, F(e, 2)) == (uniform(range(e + 1)), 1.0)

    @pytest.mark.parametrize("e, mu", [(2000, F(1)), (1000, F(3)), (600, F(5)), (400, F(1, 2))])
    def test_root_converges_to_the_untruncated_base(self, e, mu):
        # the truncation term s^(E+1) is below 1e-40 here, so the root is
        # mu/(mu+1) to double precision
        _, s = max_entropy_dist(e, mu)
        limit = float(mu / (mu + 1))
        assert abs(s - limit) <= 16 * math.ulp(limit)

    def test_mean_check_holds_on_every_half_integer_mean(self):
        for e in (10, 50, 100, 150, 200):
            for twice in range(1, 2 * e, 2):
                dist, _ = max_entropy_dist(e, F(twice, 2))
                assert abs(float(mean(dist) - F(twice, 2))) < 1e-9

    def test_means_above_half_are_the_exact_reversal(self):
        for e, mu in [(10, F(7, 2)), (25, 5), (150, F(1, 100)), (400, F(1, 2))]:
            low, s = max_entropy_dist(e, mu)
            high, s_high = max_entropy_dist(e, e - mu)
            assert high == Dist((e - j, w) for j, w in low.items())
            assert s_high == 1 / s

    def test_mean_beyond_float_resolution_of_an_end(self):
        tiny = F(1, 10 ** 400)
        for mu in (tiny, 10 - tiny):
            with pytest.raises(ValueError, match="smallest positive float"):
                max_entropy_dist(10, mu)
        # the distance to E is subnormal: the base 1/s overflows a float,
        # the exact distribution keeps its full support
        dist, s = max_entropy_dist(10, 10 - F(1, 10 ** 310))
        assert dist.support == tuple(range(11)) and s == math.inf


def _tilt_to_mean(weights: list[float], mu: float) -> Dist:
    """Normalize ``weights`` and tilt by t^j so the mean hits ``mu``."""

    def mean_at(t: float) -> float:
        scaled = [w * t ** j for j, w in enumerate(weights)]
        total = sum(scaled)
        return sum(j * w for j, w in enumerate(scaled)) / total

    lo, hi = 1e-6, 1.0
    while mean_at(hi) < mu:
        hi *= 2
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mean_at(mid) < mu:
            lo = mid
        else:
            hi = mid
    t = 0.5 * (lo + hi)
    scaled = [Fraction(w * t ** j) for j, w in enumerate(weights)]
    total = sum(scaled)
    return Dist(enumerate(w / total for w in scaled))


class TestConvergentRounding:
    """The max-entropy weights use the first convergent of the root that meets the mean check."""

    @staticmethod
    def _chosen_and_earlier(e, mu):
        """The chosen base p/q and the convergents (p >= 1) of the root before it."""
        dist, _ = max_entropy_dist(e, mu)
        base = dist(1) / dist(0) if 2 * mu < e else dist(e - 1) / dist(e)
        root = _solve_base(e, float(min(mu, e - mu)))
        steps = [c for c in _convergents(*root.as_integer_ratio()) if c[0]]
        chosen = (base.numerator, base.denominator)
        assert chosen in steps
        return dist, chosen, steps[:steps.index(chosen)]

    @pytest.mark.parametrize("e, mu", [(25, F(5)), (25, F(20)), (110, F(4)), (200, F(199, 2)),
                                       (2000, F(2)), (40, F(33, 4)), (150, F(14999, 100)),
                                       (100, F(101, 2))])
    def test_the_convergent_before_the_chosen_one_fails_the_mean_check(self, e, mu):
        dist, chosen, earlier = self._chosen_and_earlier(e, mu)
        assert earlier
        p, q = earlier[-1]
        before = _geometric(e, p, q) if 2 * mu < e else _geometric(e, q, p)
        assert abs(float(mean(before) - mu)) >= 1e-9
        assert abs(float(mean(dist) - mu)) < 1e-9

    def test_first_convergent_is_taken_when_it_passes(self):
        _, chosen, earlier = self._chosen_and_earlier(400, F(1, 2))
        assert chosen == (1, 3) and earlier == []

    def test_denominator_at_2000_2(self):
        dist, _ = max_entropy_dist(2000, 2)
        assert dist.denominator.bit_length() <= 4000

    def test_denominator_on_every_half_integer_mean_at_200(self):
        for twice in range(1, 400, 2):
            dist, _ = max_entropy_dist(200, F(twice, 2))
            assert dist.denominator.bit_length() <= 32 * 200

    def test_closed_form_mean_is_the_exact_mean(self):
        for e in range(1, 7):
            for a in range(0, 5):
                for b in range(1, 5):
                    num, den = _geometric_mean(e, a, b)
                    assert den > 0
                    assert F(num, den) == mean(_geometric(e, a, b))

    def test_convergents_end_at_the_fraction(self):
        for n, d in [(1, 3), (415, 93), (7, 1), *(x.as_integer_ratio() for x in (0.1, math.pi))]:
            steps = list(_convergents(n, d))
            assert F(*steps[-1]) == F(n, d) and math.gcd(*steps[-1]) == 1
            errors = [abs(F(p, q) - F(n, d)) for p, q in steps]
            assert errors == sorted(errors, reverse=True)

    @pytest.mark.parametrize("e, mu", [(400, F(1, 10 ** 300)), (2000, F(1, 10 ** 300)),
                                       (400, 400 - F(1, 10 ** 300)),
                                       (400, F(1, 10 ** 300) + F(1, 10 ** 5000))])
    def test_near_end_mean_past_the_bit_budget_raises(self, e, mu):
        with pytest.raises(ValueError, match="bits"):
            max_entropy_dist(e, mu)

    def test_near_end_mean_within_the_bit_budget_keeps_full_support(self):
        dist, s = max_entropy_dist(200, F(1, 10 ** 300))
        assert dist.support == tuple(range(201)) and 0 < s < 1e-299


class TestContinuousPdf:
    def test_value_at_origin(self):
        assert continuous_exponential_pdf(5)(0.0) == pytest.approx(1 / 5)

    def test_halving_point(self):
        mu = 5
        pdf = continuous_exponential_pdf(mu)
        assert pdf(mu * math.log(2)) == pytest.approx(1 / (2 * mu))

    def test_riemann_integral_is_one(self):
        pdf = continuous_exponential_pdf(3)
        step = 0.001
        total = sum(pdf(x * step) * step for x in range(200_000))
        assert abs(total - 1.0) < 1e-3

    def test_negative_is_zero(self):
        assert continuous_exponential_pdf(2)(-1.0) == 0.0

    @pytest.mark.parametrize("mu", [0, -3, F(-1, 2)])
    def test_nonpositive_mu_rejected(self, mu):
        with pytest.raises(ValueError, match="mu must be positive"):
            continuous_exponential_pdf(mu)


class TestCompare:
    def test_figure_instance(self):
        report = compare(25, 5)
        assert report.mu == 5
        assert 0.840 <= report.max_entropy_base <= 0.842
        assert 2.66 <= report.reference_entropy <= 2.68
        maxent = report.candidate("max-entropy")
        discexp = report.candidate("discrete-exponential")
        assert maxent.kl_from_reference <= discexp.kl_from_reference
        assert all(c.kl_from_reference >= 0 for c in report.candidates)

    def test_self_divergence_zero(self):
        report = compare(12, 3)
        assert kl_divergence(report.reference, report.reference) == 0.0

    def test_candidate_metadata(self):
        report = compare(10, 4)
        names = [c.name for c in report.candidates]
        assert names == ["ratio", "discrete-exponential", "max-entropy"]
        for c in report.candidates:
            assert set(c.dist.support) <= set(range(11))
            assert c.total_variation >= 0
        assert report.continuous_rate == pytest.approx(0.4)
        with pytest.raises(KeyError):
            report.candidate("unknown")
