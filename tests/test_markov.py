import math
from collections import Counter
from fractions import Fraction

import pytest

from discrete_boltzmann import (
    Dist,
    boltzmann_on_multisets,
    boltzmann_on_numbers,
    coefficient,
    enumerate_multisets_with_sum,
    flrn_dagger,
    iterate_chain,
    levels,
    nomial,
    parse_multiset,
    point,
    pushforward,
    sample_trajectory,
    shift,
    shift_channel,
    shift_on_numbers,
    som,
    stationarity_residual,
    total_variation,
    transition_matrix,
    uniform,
    unit,
)

F = Fraction


def ms(text, n):
    return parse_multiset(text, levels(n))


def _shift_reference(phi):
    """The kernel as the paper defines it, written in multiset arithmetic."""
    g, n, k = phi.ground, len(phi.ground), phi.size
    pairs = [(phi, F(phi(0), k))]
    for d in range(1, n):
        if phi(d) == 0:
            continue
        inter = phi - unit(g, d) + unit(g, d - 1)
        movable = k - inter(n - 1)
        for u in range(n - 1):
            if inter(u):
                target = inter - unit(g, u) + unit(g, u + 1)
                pairs.append((target, F(phi(d), k) * F(inter(u), movable)))
    return Dist(pairs)


class TestShiftKernel:
    def test_matches_multiset_arithmetic_definition(self):
        for n in range(1, 6):
            for k in range(1, 6):
                for i in range((n - 1) * k + 1):
                    for phi in enumerate_multisets_with_sum(n, k, i):
                        step, ref = shift(phi), _shift_reference(phi)
                        assert step == ref, phi
                        assert step.items() == ref.items(), phi

    def test_walkthrough_targets(self):
        # downgrade/upgrade moves from 1|0>+2|1>+3|2> reach exactly the
        # two displaced configurations plus the original
        phi = ms("1|0> + 2|1> + 3|2>", 3)
        assert som(phi) == 8
        step = shift(phi)
        assert set(step.support) == {
            phi, ms("2|0> + 4|2>", 3), ms("4|1> + 2|2>", 3)}

    def test_exact_weights(self):
        # hand evaluation of the kernel formula:
        #   self loop 1/6; d=1 gives 2/6*(2/3) back to phi and 2/6*(1/3)
        #   to 2|0>+4|2>; d=2 gives 3/6*(3/4) back and 3/6*(1/4) to 4|1>+2|2>
        phi = ms("1|0> + 2|1> + 3|2>", 3)
        step = shift(phi)
        assert step(phi) == F(1, 6) + F(2, 6) * F(2, 3) + F(3, 6) * F(3, 4)
        assert step(ms("2|0> + 4|2>", 3)) == F(1, 9)
        assert step(ms("4|1> + 2|2>", 3)) == F(1, 8)
        assert step(phi) == F(55, 72)

    def test_ground_state_is_absorbing(self):
        for n, k in [(3, 4), (5, 2), (1, 3)]:
            phi = ms(f"{k}|0>", n)
            assert shift(phi) == point(phi)

    def test_conservation_and_stochasticity(self):
        for n in range(1, 6):
            for k in range(1, 6):
                for i in range((n - 1) * k + 1):
                    for phi in enumerate_multisets_with_sum(n, k, i):
                        step = shift(phi)
                        assert sum(step.weights()) == 1
                        assert all(t.size == k and som(t) == i for t in step)

    def test_channel_rejects_outsiders(self):
        ch = shift_channel(3, 4, 4)
        with pytest.raises(ValueError):
            ch(ms("4|0>", 3))  # wrong energy

    def test_empty_configuration_rejected(self):
        from discrete_boltzmann import empty
        with pytest.raises(ValueError):
            shift(empty(levels(3)))


class TestStationarity:
    def test_paper_instance(self):
        residual = stationarity_residual(
            boltzmann_on_multisets(3, 6, 8), shift_channel(3, 6, 8))
        assert residual == 0

    def test_point_mass_moves(self):
        phi = ms("1|0> + 2|1> + 3|2>", 3)
        residual = stationarity_residual(point(phi), shift_channel(3, 6, 8))
        assert residual > 0

    def test_exhaustive_sweep(self):
        for n in range(1, 5):
            for k in range(1, 6):
                for i in range((n - 1) * k + 1):
                    residual = stationarity_residual(
                        boltzmann_on_multisets(n, k, i), shift_channel(n, k, i))
                    assert residual == 0, (n, k, i)


class TestBayesianInversion:
    def test_reproduces_multiset_family(self):
        for n, k, i in [(4, 4, 3), (3, 5, 4), (5, 3, 7)]:
            dag = flrn_dagger(n, k, i)
            pushed = pushforward(dag, boltzmann_on_numbers(n, k, i))
            assert pushed == boltzmann_on_multisets(n, k, i)

    def test_degenerate_space(self):
        dag = flrn_dagger(4, 5, 0)
        assert dag(0) == point(ms("5|0>", 4))

    def test_unattainable_level(self):
        dag = flrn_dagger(4, 5, 0)
        with pytest.raises(ValueError):
            dag(2)

    def test_denominator_closed_form(self):
        for n, k, i in [(4, 4, 3), (5, 4, 7), (3, 6, 8)]:
            for j in range(min(n, i + 1)):
                denominator = sum(coefficient(phi) * phi(j)
                                  for phi in enumerate_multisets_with_sum(n, k, i))
                rest = i - j
                expected = k * nomial(n, k - 1, rest) if rest <= (n - 1) * (k - 1) else 0
                assert denominator == expected

    def test_support_requires_occupancy(self):
        dag = flrn_dagger(4, 4, 3)
        for j in range(4):
            assert all(phi(j) > 0 for phi in dag(j))


class TestNumbersChain:
    def test_fixed_point_example(self):
        bn = boltzmann_on_numbers(4, 4, 3)
        assert pushforward(shift_on_numbers(4, 4, 3), bn) == bn

    def test_zero_energy(self):
        ch = shift_on_numbers(3, 4, 0)
        assert ch(0) == point(0)

    def test_exhaustive_sweep(self):
        for n in range(1, 5):
            for k in range(1, 5):
                for i in range((n - 1) * k + 1):
                    bn = boltzmann_on_numbers(n, k, i)
                    assert pushforward(shift_on_numbers(n, k, i), bn) == bn, (n, k, i)


class TestIteration:
    def test_starting_at_reference_stays(self):
        ref = boltzmann_on_multisets(3, 4, 4)
        trace = iterate_chain(ref, shift_channel(3, 4, 4), 4, ref)
        assert all(residual == 0 for _, residual in trace)

    def test_step_zero_residual(self):
        ref = boltzmann_on_multisets(3, 4, 4)
        start = point(next(iter(enumerate_multisets_with_sum(3, 4, 4))))
        trace = iterate_chain(start, shift_channel(3, 4, 4), 3, ref)
        assert trace[0] == (0, total_variation(start, ref))

    def test_residual_decreases_in_observed_cases(self):
        for n, k, i in [(3, 4, 4), (4, 3, 4), (3, 6, 8)]:
            ref = boltzmann_on_multisets(n, k, i)
            space = list(enumerate_multisets_with_sum(n, k, i))
            start = uniform(space)
            trace = iterate_chain(start, shift_channel(n, k, i), 8, ref)
            residuals = [r for _, r in trace]
            assert all(a >= b for a, b in zip(residuals, residuals[1:]))


class TestMatrixExport:
    def test_rows_are_stochastic_and_match_kernel(self):
        states, rows = transition_matrix(3, 4, 4)
        assert states == list(enumerate_multisets_with_sum(3, 4, 4))
        for phi, row in zip(states, rows):
            assert sum(row) == 1
            step = shift(phi)
            assert row == [step(psi) for psi in states]

    def test_state_limit(self):
        with pytest.raises(ValueError):
            transition_matrix(3, 4, 4, max_states=2)


class TestSampling:
    def test_deterministic_given_seed(self):
        phi = ms("1|0> + 2|1> + 3|2>", 3)
        a = sample_trajectory(phi, 20, seed=7)
        b = sample_trajectory(phi, 20, seed=7)
        assert a == b
        assert len(a) == 21

    def test_walk_stays_in_space(self):
        phi = ms("1|0> + 2|1> + 3|2>", 3)
        for state in sample_trajectory(phi, 50, seed=1):
            assert state.size == 6 and som(state) == 8

    def test_one_step_frequencies_match_kernel(self):
        # successors are drawn exactly from the integer cumulative weights,
        # so seeded one-step frequencies sit within 4 sigma of shift(phi)
        phi = ms("1|0> + 2|1> + 3|2>", 3)
        trials = 2000
        seen = Counter(sample_trajectory(phi, 1, seed=s)[1] for s in range(trials))
        step = shift(phi)
        assert set(seen) <= set(step.support)
        for psi, w in step.items():
            sigma = math.sqrt(trials * float(w) * (1 - float(w)))
            assert abs(seen[psi] - trials * float(w)) <= 4 * sigma, (psi, seen[psi])
