from fractions import Fraction

import pytest

from discrete_boltzmann import (
    Dist,
    accumulate,
    boltzmann_on_energy,
    boltzmann_on_multisets,
    boltzmann_on_numbers,
    boltzmann_on_numbers_via_multisets,
    image,
    levels,
    mean,
    microstate_uniform,
    parse_multiset,
    point,
    projection_marginal,
    reverse,
    scaled_unnormalized,
    uniform,
    variance,
)

F = Fraction


def ms(text, n):
    return parse_multiset(text, levels(n))


# The nine-level, six-particle, energy-8 table: 20 configurations with
# their occupation probabilities.
APPENDIX_DISTRIBUTION = [
    ("5|0> + 1|8>", F(2, 429)),
    ("4|0> + 1|1> + 1|7>", F(10, 429)),
    ("4|0> + 1|2> + 1|6>", F(10, 429)),
    ("4|0> + 1|3> + 1|5>", F(10, 429)),
    ("4|0> + 2|4>", F(5, 429)),
    ("3|0> + 2|1> + 1|6>", F(20, 429)),
    ("3|0> + 2|2> + 1|4>", F(20, 429)),
    ("3|0> + 1|2> + 2|3>", F(20, 429)),
    ("3|0> + 1|1> + 1|2> + 1|5>", F(40, 429)),
    ("3|0> + 1|1> + 1|3> + 1|4>", F(40, 429)),
    ("2|0> + 4|2>", F(5, 429)),
    ("2|0> + 2|1> + 2|3>", F(10, 143)),
    ("2|0> + 1|1> + 2|2> + 1|3>", F(20, 143)),
    ("2|0> + 2|1> + 1|2> + 1|4>", F(20, 143)),
    ("2|0> + 3|1> + 1|5>", F(20, 429)),
    ("1|0> + 4|1> + 1|4>", F(10, 429)),
    ("1|0> + 3|1> + 1|2> + 1|3>", F(40, 429)),
    ("1|0> + 2|1> + 3|2>", F(20, 429)),
    ("4|1> + 2|2>", F(5, 429)),
    ("5|1> + 1|3>", F(2, 429)),
]


class TestOnMultisets:
    def test_four_level_example(self):
        assert boltzmann_on_multisets(4, 4, 3) == Dist([
            (ms("3|0> + 1|3>", 4), F(1, 5)),
            (ms("2|0> + 1|1> + 1|2>", 4), F(3, 5)),
            (ms("1|0> + 3|1>", 4), F(1, 5)),
        ])

    def test_appendix_distribution(self):
        expected = Dist([(ms(text, 9), w) for text, w in APPENDIX_DISTRIBUTION])
        assert boltzmann_on_multisets(9, 6, 8) == expected

    def test_zero_energy_is_ground_state(self):
        for n, k in [(4, 7), (2, 3), (5, 1)]:
            assert boltzmann_on_multisets(n, k, 0) == point(ms(f"{k}|0>", n))

    def test_domain(self):
        with pytest.raises(ValueError):
            boltzmann_on_multisets(3, 2, 5)
        with pytest.raises(ValueError):
            boltzmann_on_multisets(3, 0, 0)


class TestOnNumbers:
    def test_four_level_example_all_routes(self):
        expected = Dist([(0, F(1, 2)), (1, F(3, 10)), (2, F(3, 20)), (3, F(1, 20))])
        assert boltzmann_on_numbers(4, 4, 3) == expected
        assert boltzmann_on_numbers_via_multisets(4, 4, 3) == expected
        assert boltzmann_on_energy(3, 4) == expected

    def test_extreme_energies_are_singletons(self):
        assert boltzmann_on_numbers(16, 7, 0) == point(0)
        assert boltzmann_on_numbers(16, 7, 105) == point(15)

    def test_routes_agree(self):
        assert boltzmann_on_numbers(5, 3, 6) == boltzmann_on_numbers_via_multisets(5, 3, 6)
        for n in range(1, 6):
            for k in range(1, 5):
                for i in range((n - 1) * k + 1):
                    assert boltzmann_on_numbers(n, k, i) == \
                        boltzmann_on_numbers_via_multisets(n, k, i)

    def test_support_truncation(self):
        for n in range(2, 7):
            for k in range(1, 6):
                for i in range(min(n, (n - 1) * k + 1)):
                    assert all(j <= i for j in boltzmann_on_numbers(n, k, i).support)

    def test_mean_is_energy_per_particle(self):
        for n in range(1, 7):
            for k in range(1, 7):
                for i in range((n - 1) * k + 1):
                    assert mean(boltzmann_on_numbers(n, k, i)) == F(i, k)


class TestReversalStability:
    def test_multiset_family(self):
        for n in range(1, 6):
            for k in range(1, 6):
                for i in range((n - 1) * k + 1):
                    flipped = image(boltzmann_on_multisets(n, k, i), reverse)
                    assert flipped == boltzmann_on_multisets(n, k, (n - 1) * k - i)

    def test_numbers_family(self):
        for n in range(1, 6):
            for k in range(1, 6):
                for i in range((n - 1) * k + 1):
                    flipped = image(boltzmann_on_numbers(n, k, i), lambda j: n - 1 - j)
                    assert flipped == boltzmann_on_numbers(n, k, (n - 1) * k - i)


class TestOnEnergy:
    def test_example(self):
        assert boltzmann_on_energy(3, 4) == Dist(
            [(0, F(1, 2)), (1, F(3, 10)), (2, F(3, 20)), (3, F(1, 20))])

    def test_appendix_rationals(self):
        expected = [F(5, 13), F(10, 39), F(70, 429), F(14, 143), F(70, 1287),
                    F(35, 1287), F(5, 429), F(5, 1287), F(1, 1287)]
        dist = boltzmann_on_energy(8, 6)
        assert [dist(j) for j in range(9)] == expected

    def test_two_particles_uniform(self):
        for e in range(1, 15):
            assert boltzmann_on_energy(e, 2) == uniform(range(e + 1))

    def test_equals_numbers_family(self):
        for e in range(1, 9):
            for k in range(2, 7):
                assert boltzmann_on_energy(e, k) == boltzmann_on_numbers(e + 1, k, e)

    def test_moment_closed_forms(self):
        for e in range(1, 21):
            for k in range(2, 9):
                dist = boltzmann_on_energy(e, k)
                assert mean(dist) == F(e, k)
                assert variance(dist) == F(e * (e + k) * (k - 1), k * k * (k + 1))

    def test_domain(self):
        with pytest.raises(ValueError):
            boltzmann_on_energy(0, 4)
        with pytest.raises(ValueError):
            boltzmann_on_energy(5, 1)


class TestMicrostates:
    def test_projection_marginals(self):
        unif = microstate_uniform(4, 4, 3)
        expected = Dist([(0, F(1, 2)), (1, F(3, 10)), (2, F(3, 20)), (3, F(1, 20))])
        for pos in range(4):
            assert projection_marginal(unif, pos) == expected

    @pytest.mark.parametrize("pos", [5, 2, -1])
    def test_projection_position_out_of_range(self, pos):
        with pytest.raises(ValueError, match=rf"position {pos} not in 0\.\.1"):
            projection_marginal(microstate_uniform(3, 2, 2), pos)

    def test_zero_energy_single_sequence(self):
        assert microstate_uniform(3, 4, 0) == point((0, 0, 0, 0))

    def test_accumulation_image_small(self):
        unif = microstate_uniform(3, 3, 3)
        assert len(unif) == 7  # seven sequences over 27 candidates
        ground = levels(3)
        assert image(unif, lambda v: accumulate(v, ground)) == boltzmann_on_multisets(3, 3, 3)

    def test_oracle_equivalence_sweep(self):
        for n in range(1, 5):
            for k in range(1, 6):
                for i in range((n - 1) * k + 1):
                    unif = microstate_uniform(n, k, i)
                    ground = levels(n)
                    assert image(unif, lambda v: accumulate(v, ground)) == \
                        boltzmann_on_multisets(n, k, i)
                    for pos in range(k):
                        assert projection_marginal(unif, pos) == \
                            boltzmann_on_numbers(n, k, i)

    def test_budget(self):
        with pytest.raises(ValueError):
            microstate_uniform(10, 9, 3, budget=10 ** 6)


class TestScaledUnnormalized:
    def test_appendix_decimals(self):
        expected = [2.31, 1.54, 0.979, 0.587, 0.326, 0.163, 0.0699, 0.0233, 0.00466]
        got = scaled_unnormalized(8, 6)
        assert len(got) == len(expected)
        for have, want in zip(got, expected):
            assert abs(have - want) < 0.005

    def test_two_particles_constant(self):
        for e in range(1, 10):
            values = scaled_unnormalized(e, 2)
            assert all(v == pytest.approx(2 / (e + 1)) for v in values)

    def test_exact_sum_is_particle_count(self):
        for e in range(1, 10):
            for k in range(2, 7):
                total = sum(k * w for w in boltzmann_on_energy(e, k).weights())
                assert total == k
