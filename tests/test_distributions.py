import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from discrete_boltzmann import (
    Channel,
    Dist,
    accumulate,
    boltzmann_on_energy,
    boltzmann_on_multisets,
    boltzmann_on_numbers,
    channel_compose,
    coefficient,
    entropy,
    flrn,
    image,
    kl_divergence,
    levels,
    mean,
    multiset_coefficient_distribution,
    parse_multiset,
    point,
    pushforward,
    total_variation,
    uniform,
    variance,
)

F = Fraction


class TestDistConstruction:
    def test_rejects_bad_total(self):
        with pytest.raises(ValueError):
            Dist([("a", F(1, 2)), ("b", F(1, 3))])

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            Dist([("a", F(3, 2)), ("b", F(-1, 2))])

    def test_merges_and_drops_zeros(self):
        d = Dist([("a", F(1, 4)), ("a", F(1, 4)), ("b", F(1, 2)), ("c", 0)])
        assert d.support == ("a", "b")
        assert d("a") == F(1, 2)
        assert d("missing") == 0

    def test_equality_ignores_order(self):
        d1 = Dist([("a", F(1, 3)), ("b", F(2, 3))])
        d2 = Dist([("b", F(2, 3)), ("a", F(1, 3))])
        assert d1 == d2


class TestImage:
    def test_identity(self):
        omega = uniform("abc")
        assert image(omega, lambda x: x) == omega

    def test_coin_compositions(self):
        seqs = ["THHH", "HTHH", "HHTH", "HHHT"]
        collapsed = image(uniform(seqs), lambda s: accumulate(s))
        assert collapsed == point(parse_multiset("3|H> + 1|T>"))

    def test_accumulation_of_microstates(self):
        ground = levels(4)
        seqs = [v for v in itertools.product(range(4), repeat=4) if sum(v) == 3]
        assert image(uniform(seqs), lambda v: accumulate(v, ground)) == \
            boltzmann_on_multisets(4, 4, 3)


class TestPushforward:
    def test_point_mass_kernel_is_identity(self):
        omega = Dist([("x", F(1, 4)), ("y", F(3, 4))])
        assert pushforward(Channel(point), omega) == omega

    def test_flrn_of_boltzmann_multisets(self):
        pushed = pushforward(Channel(flrn), boltzmann_on_multisets(4, 4, 3))
        assert pushed == Dist([(0, F(1, 2)), (1, F(3, 10)), (2, F(3, 20)), (3, F(1, 20))])

    def test_distributes_over_composition(self):
        # (d after c)_* equals d_* after c_* on small exhaustive instances
        xs = [0, 1, 2]
        c = Channel(lambda x: uniform(range(x + 1)))
        d = Channel(lambda y: Dist([(y, F(1, 2)), (y + 10, F(1, 2))]))
        for omega in (uniform(xs), point(2), Dist([(0, F(1, 5)), (2, F(4, 5))])):
            assert pushforward(channel_compose(d, c), omega) == \
                pushforward(d, pushforward(c, omega))

    def test_channel_then_chains_left_to_right(self):
        c = Channel(lambda x: point(x + 1))
        d = Channel(lambda x: point(x * 10))
        assert pushforward(c.then(d), point(1)) == point(20)


class TestFlrn:
    def test_paper_example(self):
        assert flrn(parse_multiset("3|a> + 4|b> + 5|c>")) == Dist(
            [("a", F(1, 4)), ("b", F(1, 3)), ("c", F(5, 12))])

    def test_urn(self):
        assert flrn(parse_multiset("3|R> + 2|G> + 1|B>")) == Dist(
            [("R", F(1, 2)), ("G", F(1, 3)), ("B", F(1, 6))])

    def test_constant_multiset(self):
        assert flrn(parse_multiset("9|x>")) == point("x")

    def test_empty_rejected(self):
        from discrete_boltzmann import empty
        with pytest.raises(ValueError):
            flrn(empty(levels(2)))


class TestUniformAndPoint:
    def test_singleton_uniform_is_point(self):
        assert uniform(["a"]) == point("a")

    def test_microstate_weights(self):
        seqs = [v for v in itertools.product(range(4), repeat=4) if sum(v) == 3]
        u = uniform(seqs)
        assert len(u) == 20
        assert all(w == F(1, 20) for w in u.weights())

    def test_point_mean(self):
        assert mean(point(7)) == 7

    def test_empty_uniform_rejected(self):
        with pytest.raises(ValueError):
            uniform([])


class TestMultisetCoefficientDistribution:
    def test_paper_display(self):
        d = multiset_coefficient_distribution(levels(3), 2)
        g = levels(3)
        assert d.items() == (
            (parse_multiset("2|0>", g), F(1, 9)),
            (parse_multiset("1|0> + 1|1>", g), F(2, 9)),
            (parse_multiset("2|1>", g), F(1, 9)),
            (parse_multiset("1|0> + 1|2>", g), F(2, 9)),
            (parse_multiset("1|1> + 1|2>", g), F(2, 9)),
            (parse_multiset("2|2>", g), F(1, 9)),
        )

    def test_size_zero_is_point_at_empty(self):
        from discrete_boltzmann import empty
        assert multiset_coefficient_distribution(levels(3), 0) == point(empty(levels(3)))

    def test_normalization(self):
        for m in range(1, 5):
            for k in range(6):
                d = multiset_coefficient_distribution(levels(m), k)
                assert sum(d.weights()) == 1
                assert all(d(phi) == F(coefficient(phi), m ** k) for phi in d)

    def test_learning_yields_the_average_urn(self):
        # frequentist learning in probability recovers the learned form of
        # the coefficient-weighted average urn, which is uniform by symmetry
        for m in range(1, 4):
            for k in range(1, 5):
                ground = levels(m)
                d = multiset_coefficient_distribution(ground, k)
                learned = pushforward(Channel(flrn), d)
                assert learned == uniform(ground.labels)
                average_counts = {
                    x: sum(d(phi) * phi(x) for phi in d) for x in ground.labels}
                assert all(v == F(k, m) for v in average_counts.values())


class TestMoments:
    def test_boltzmann_mean(self):
        assert mean(boltzmann_on_numbers(4, 4, 3)) == F(3, 4)

    def test_uniform_variance(self):
        for e in range(1, 12):
            u = uniform(range(e + 1))
            direct = sum(F(1, e + 1) * j * j for j in range(e + 1)) - mean(u) ** 2
            assert variance(u) == direct == F(e * (e + 2), 12)

    def test_non_numeric_rejected(self):
        with pytest.raises(ValueError):
            mean(uniform("ab"))
        with pytest.raises(ValueError):
            variance(point("a"))


class TestInformationMeasures:
    def test_point_entropy_zero(self):
        assert entropy(point("x")) == 0.0

    def test_point_entropy_is_positive_zero(self):
        assert math.copysign(1.0, entropy(point(3))) == 1.0
        assert math.copysign(1.0, entropy(uniform(["x"]))) == 1.0

    def test_uniform_entropy(self):
        assert entropy(uniform(range(8))) == pytest.approx(math.log(8))

    def test_entropy_skips_weights_that_underflow(self):
        omega = boltzmann_on_energy(1000, 1000)
        assert any(float(p) == 0.0 for p in omega.weights())
        assert entropy(omega) == pytest.approx(2 * math.log(2), abs=1e-5)

    def test_kl_self_is_zero(self):
        omega = Dist([(0, F(1, 3)), (1, F(2, 3))])
        assert kl_divergence(omega, omega) == 0.0

    def test_kl_nonnegative(self):
        omega = Dist([(0, F(1, 3)), (1, F(2, 3))])
        rho = uniform([0, 1])
        assert kl_divergence(omega, rho) > 0
        assert kl_divergence(rho, omega) > 0

    def test_kl_support_violation(self):
        with pytest.raises(ValueError):
            kl_divergence(uniform([0, 1, 2]), uniform([0, 1]))

    def test_total_variation(self):
        omega = Dist([(0, F(1, 2)), (1, F(1, 2))])
        rho = Dist([(1, F(1, 2)), (2, F(1, 2))])
        assert total_variation(omega, rho) == F(1, 2)
        assert total_variation(omega, omega) == 0


@st.composite
def _rational_dists(draw):
    n = draw(st.integers(1, 6))
    raw = draw(st.lists(st.integers(1, 12), min_size=n, max_size=n))
    total = sum(raw)
    return Dist((j, F(w, total)) for j, w in enumerate(raw))


class TestDistProperties:
    @given(_rational_dists())
    @settings(max_examples=60)
    def test_weights_sum_to_one(self, omega):
        assert sum(omega.weights()) == 1
        assert all(0 < w <= 1 for w in omega.weights())

    @given(_rational_dists())
    @settings(max_examples=60)
    def test_image_equals_point_channel_pushforward(self, omega):
        f = lambda j: j % 3
        assert image(omega, f) == pushforward(Channel(lambda x: point(f(x))), omega)

    @given(_rational_dists(), _rational_dists())
    @settings(max_examples=60)
    def test_tv_is_a_metric_within_one(self, a, b):
        tv = total_variation(a, b)
        assert 0 <= tv <= 1
        assert tv == total_variation(b, a)
