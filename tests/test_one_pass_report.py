"""``compare`` reads each distinct candidate once, and KL and the total
variation share one walk of the cross products.

Every field of the report is held against test-local copies of the
per-function statistics (one walk per statistic), floats compared with
``==``: the shared pass keeps each float's operations and their order.
"""

import math
import sys
from fractions import Fraction

import pytest

from discrete_boltzmann import (
    Dist,
    compare,
    discrete_exponential,
    kl_divergence,
    max_entropy_dist,
    mean,
    ratio_approx,
    total_variation,
    variance,
)
from discrete_boltzmann.approx import _LN2

F = Fraction


# ---------------------------------------------------------------------------
# test-local copies of the per-function statistics
# ---------------------------------------------------------------------------

def mean_oracle(omega):
    return Fraction(sum(n * x for x, n in omega.numerators()), omega.denominator)


def entropy_oracle(omega):
    den = omega.denominator
    return 0.0 - sum(p * math.log(p) for p in (n / den for _, n in omega.numerators()) if p)


def kl_oracle(omega, rho):
    rho_num = dict(rho.numerators())
    out = 0.0
    for x, n in omega.numerators():
        m = rho_num.get(x)
        if m is None:
            raise ValueError(f"KL undefined: {x!r} outside the second support")
        p = n / omega.denominator
        if p:
            a, b = n * rho.denominator, omega.denominator * m
            try:
                out += p * math.log(a / b)
            except OverflowError:
                out += p * (math.log(a) - math.log(b))
    return out


def tv_oracle(omega, rho):
    a, b = omega.denominator, rho.denominator
    o, r = dict(omega.numerators()), dict(rho.numerators())
    diff = sum(abs(o.get(x, 0) * b - r.get(x, 0) * a) for x in o.keys() | r.keys())
    return Fraction(diff, 2 * a * b)


def sweep():
    """Every E <= 60 with K in {2, 3, 5, E//3, E-1, E, E+7} (K >= 2), and four wide cases."""
    for e in range(1, 61):
        for k in sorted({2, 3, 5, e // 3, e - 1, e, e + 7}):
            if k >= 2:
                yield e, k
    yield from [(153, 137), (199, 156), (1200, 600), (2000, 1000)]


SWEEP = list(sweep())


# ---------------------------------------------------------------------------
# the report
# ---------------------------------------------------------------------------

class TestReportFields:
    @pytest.mark.parametrize("e, k", SWEEP)
    def test_every_field_against_the_per_function_statistics(self, e, k):
        report = compare(e, k)
        ref = report.reference
        assert report.reference_mean == mean_oracle(ref)
        assert report.reference_entropy == entropy_oracle(ref)
        mu = Fraction(e, k)
        maxent, s = max_entropy_dist(e, mu)
        assert report.max_entropy_base == s
        expected = [ratio_approx(e, mu), discrete_exponential(e, mu), maxent]
        assert [c.name for c in report.candidates] == ["ratio", "discrete-exponential", "max-entropy"]
        for c, dist in zip(report.candidates, expected):
            assert c.dist == dist
            assert c.mean == mean_oracle(dist)
            assert c.entropy == entropy_oracle(dist)
            assert c.kl_from_reference == kl_oracle(ref, dist)
            assert c.total_variation == tv_oracle(ref, dist)

    def test_the_sweep_has_coinciding_and_distinct_candidates(self):
        coinciding = set()
        for e, k in SWEEP[:-2]:
            report = compare(e, k)
            coinciding.add(report.candidate("ratio").dist == report.candidate("max-entropy").dist)
        assert coinciding == {True, False}

    def test_a_coinciding_candidate_keeps_its_own_name_and_dist(self):
        for e, k in SWEEP:
            report = compare(e, k)
            ratio, maxent = report.candidate("ratio"), report.candidate("max-entropy")
            if ratio.dist == maxent.dist:
                assert maxent.name == "max-entropy"
                assert maxent[2:] == ratio[2:]
                return
        pytest.fail("no coinciding pair in the sweep")


# ---------------------------------------------------------------------------
# the shared pass on its own
# ---------------------------------------------------------------------------

class TestSharedPass:
    def test_kl_overflow_branch(self):
        # rho puts 2^-2000 on 1, so a/b there is about 2^1999, beyond the float range
        omega = Dist({0: 1, 1: 1}, 2)
        rho = Dist({0: 2 ** 2000 - 1, 1: 1}, 2 ** 2000)
        with pytest.raises(OverflowError):
            (1 * rho.denominator) / (omega.denominator * 1)
        kl = kl_divergence(omega, rho)
        assert math.isfinite(kl)
        assert kl == kl_oracle(omega, rho)
        assert kl == pytest.approx(0.5 * 1999 * math.log(2) + 0.5 * math.log(0.5), rel=1e-12)
        assert total_variation(omega, rho) == tv_oracle(omega, rho)

    def test_kl_outside_the_second_support(self):
        omega = Dist({"a": 1, "b": 1, "c": 2}, 4)
        rho = Dist({"a": 1, "z": 1}, 2)
        with pytest.raises(ValueError, match=r"^KL undefined: 'b' outside the second support$"):
            kl_divergence(omega, rho)

    @pytest.mark.parametrize("omega, rho", [
        (Dist({0: 1, 1: 2}, 3), Dist({1: 1, 2: 3, 3: 1}, 5)),
        (Dist({"a": 1}, 1), Dist({"b": 1}, 1)),
        (Dist({0: 1, 1: 1, 2: 1}, 3), Dist({2: 1}, 1)),
        (Dist({2: 1}, 1), Dist({0: 1, 1: 1, 2: 1}, 3)),
        (Dist({x: x + 1 for x in range(6)}, 21), Dist({x: 7 - x for x in range(7)}, 28)),
    ])
    def test_total_variation_on_partial_supports(self, omega, rho):
        assert total_variation(omega, rho) == tv_oracle(omega, rho)
        assert total_variation(rho, omega) == tv_oracle(rho, omega)


# ---------------------------------------------------------------------------
# discrete_exponential: shifts for the power-of-two denominators
# ---------------------------------------------------------------------------

def dexp_floor_division(e, mu):
    """The lift with each numerator scaled by floor division, m * (scale // d)."""
    mu = Fraction(mu)
    rate = 1.0 / float(mu)
    ratios = []
    for j in range(e + 1):
        w = math.exp(-rate * j)
        if w >= sys.float_info.min:
            ratios.append(w.as_integer_ratio())
        else:
            y = j / mu
            k = round(y / _LN2)
            m, d = math.exp(float(k * _LN2 - y)).as_integer_ratio()
            ratios.append((m, d << k))
    scale = max(d for _, d in ratios)
    weights = [m * (scale // d) for m, d in ratios]
    return Dist(enumerate(weights), sum(weights))


class TestDiscreteExponentialShift:
    @pytest.mark.parametrize("e, mu", [(2000, 1), (1000, 1), (360, 7), (25, 5)])
    def test_equals_the_floor_division_form(self, e, mu):
        dist = discrete_exponential(e, mu)
        assert dist == dexp_floor_division(e, mu)
        assert dist.numerators() == dexp_floor_division(e, mu).numerators()

    @pytest.mark.parametrize("e, mu", [(2000, 1), (1000, 1)])
    def test_split_path_is_included(self, e, mu):
        assert math.exp(-e / mu) < sys.float_info.min
        assert list(discrete_exponential(e, mu)) == list(range(e + 1))


# ---------------------------------------------------------------------------
# Dist construction from whole weights
# ---------------------------------------------------------------------------

def dist_oracle(weights, total=1):
    """The lowest-terms numerators and denominator, every weight scaled to the lcm."""
    pairs = [(x, Fraction(p)) for x, p in weights]
    scale = math.lcm(*{p.denominator for _, p in pairs})
    num = {}
    for x, p in pairs:
        if p:
            num[x] = num.get(x, 0) + p.numerator * (scale // p.denominator)
    den = total * scale
    g = math.gcd(den, *num.values())
    return tuple((x, n // g) for x, n in num.items()), den // g


class TestWholeWeights:
    @pytest.mark.parametrize("weights, total", [
        ([(0, 1), (1, 2), (2, 3)], 6),
        ([(0, F(1)), (1, F(2)), (2, F(3))], 6),
        ([(0, 2), (1, F(4)), (2, 6)], 12),
        ([(0, F(1, 2)), (1, 1), (2, F(3, 2))], 3),
        ([("a", 1), ("b", 2), ("a", 3)], 6),
        ([("a", F(1)), ("b", 0), ("c", F(0)), ("a", 2)], 3),
        ([(0, 2 ** 200), (1, 2 ** 200)], 2 ** 201),
        ([(0, F(2 ** 200)), (1, 3 ** 100)], 2 ** 200 + 3 ** 100),
    ])
    def test_against_the_scaled_form(self, weights, total):
        dist = Dist(weights, total)
        nums, den = dist_oracle(weights, total)
        assert dist.numerators() == nums
        assert dist.denominator == den
        assert all(type(n) is int for _, n in dist.numerators())
        assert type(dist.denominator) is int

    def test_whole_fractions_equal_ints(self):
        assert Dist({0: F(3), 1: F(1)}, 4) == Dist({0: 3, 1: 1}, 4)
        assert hash(Dist({0: F(3), 1: F(1)}, 4)) == hash(Dist({0: 3, 1: 1}, 4))

    def test_negative_int_keeps_its_message(self):
        with pytest.raises(ValueError, match=r"^negative weight -1 on 'b'$"):
            Dist([("a", 2), ("b", -1)], 1)

    def test_negative_fraction_keeps_its_message(self):
        with pytest.raises(ValueError, match=r"^negative weight -1/2 on 'b'$"):
            Dist([("a", F(3, 2)), ("b", F(-1, 2))], 1)

    def test_sum_check_still_holds(self):
        with pytest.raises(ValueError, match="weights must sum to exactly 1"):
            Dist([(0, 1), (1, 1)], 3)


# ---------------------------------------------------------------------------
# mean and variance: the support's types in one pass
# ---------------------------------------------------------------------------

class TestNumericSupport:
    def test_mixed_int_and_fraction_support(self):
        dist = Dist({0: 1, F(1, 2): 1, 2: 2}, 4)
        assert mean(dist) == F(9, 8)
        assert variance(dist) == F(51, 64)

    def test_int_subclass_is_numeric(self):
        class Level(int):
            pass

        dist = Dist({Level(1): 1, Level(3): 1}, 2)
        assert mean(dist) == 2
        assert variance(dist) == 1

    @pytest.mark.parametrize("support, bad", [
        ((0, True), True),
        ((1, 2.5), 2.5),
        (("x", 1), "x"),
    ])
    def test_first_non_numeric_element_is_named(self, support, bad):
        dist = Dist({x: 1 for x in support}, len(support))
        for f, what in [(mean, "mean"), (variance, "variance")]:
            with pytest.raises(ValueError, match=rf"^{what} requires numeric support, got {bad!r}$"):
                f(dist)
