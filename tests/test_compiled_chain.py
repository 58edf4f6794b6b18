"""The compiled shift chain, held against the one-state kernel ``shift``.

``shift_channel`` compiles a space into sparse integer rows, and
iteration, the stationarity residual, the matrix export and sampling
all read rows of that form.  These tests hold the rows against
``shift`` itself, the integer iteration against ``pushforward`` through
a plain ``Channel(shift)``, the level chain, counted from nomial rows
with no compiled chain, against its composition route through the
compiled chain, and check the inputs the compiled path must still
reject.
"""

import pytest

from discrete_boltzmann import (
    Channel,
    Dist,
    GroundSet,
    Multiset,
    boltzmann_on_multisets,
    boltzmann_on_numbers,
    empty,
    enumerate_multisets_with_sum,
    flrn,
    flrn_dagger,
    iterate_chain,
    levels,
    multichoose,
    parse_multiset,
    point,
    pushforward,
    sample_trajectory,
    shift,
    shift_channel,
    shift_on_numbers,
    stationarity_residual,
    uniform,
)
from discrete_boltzmann import markov
from discrete_boltzmann.markov import _ShiftChain


def spaces(max_levels, max_size):
    for n in range(1, max_levels + 1):
        for k in range(1, max_size + 1):
            for i in range((n - 1) * k + 1):
                yield n, k, i


class TestCompiledRows:
    def test_rows_match_shift(self):
        checked = 0
        for n, k, i in spaces(5, 5):
            chain = _ShiftChain(n, k, i)
            assert chain.states == list(enumerate_multisets_with_sum(n, k, i))
            for j, phi in enumerate(chain.states):
                targets, nums, den = chain.row(j)
                step = shift(phi)
                assert [chain.states[t] for t in targets] == list(step.support), phi
                assert nums == [m for _, m in step.numerators()], phi
                assert den == step.denominator, phi
                checked += 1
        assert checked == sum(multichoose(n, k) for n in range(1, 6) for k in range(1, 6))

    def test_channel_equals_shift(self):
        for n, k, i in [(3, 6, 8), (4, 5, 7), (5, 4, 8)]:
            channel = shift_channel(n, k, i)
            for phi in enumerate_multisets_with_sum(n, k, i):
                assert channel(phi) == shift(phi)
                assert channel(phi).numerators() == shift(phi).numerators()


class TestIntegerIteration:
    CASES = [(3, 4, 4), (4, 5, 6), (5, 4, 8), (6, 5, 10)]

    def test_trace_matches_pushforward(self):
        for n, k, i in self.CASES:
            space = list(enumerate_multisets_with_sum(n, k, i))
            ref = boltzmann_on_multisets(n, k, i)
            for omega in (point(space[0]), point(space[-1]), uniform(space)):
                assert iterate_chain(omega, shift_channel(n, k, i), 6, ref) == \
                    iterate_chain(omega, Channel(shift), 6, ref), (n, k, i)

    def test_residual_matches_pushforward(self):
        for n, k, i in self.CASES:
            space = list(enumerate_multisets_with_sum(n, k, i))
            for omega in (point(space[0]), uniform(space), boltzmann_on_multisets(n, k, i)):
                assert stationarity_residual(omega, shift_channel(n, k, i)) == \
                    stationarity_residual(omega, Channel(shift)), (n, k, i)


class TestLumpedLevelChain:
    def test_matches_composition_route(self):
        checked = 0
        for n, k, i in spaces(6, 6):
            lumped = shift_on_numbers(n, k, i)
            route = flrn_dagger(n, k, i).then(shift_channel(n, k, i)).then(Channel(flrn))
            attainable = {j for phi in enumerate_multisets_with_sum(n, k, i) for j in phi.support()}
            for j in range(n):
                if j in attainable:
                    assert lumped(j) == route(j), (n, k, i, j)
                    checked += 1
                else:
                    with pytest.raises(ValueError):
                        route(j)
                    with pytest.raises(ValueError):
                        lumped(j)
        assert checked > 1000

    @pytest.mark.parametrize("n, k, i", [(6, 10, 25), (7, 8, 24)])
    def test_matches_composition_route_on_larger_spaces(self, n, k, i):
        lumped = shift_on_numbers(n, k, i)
        route = flrn_dagger(n, k, i).then(shift_channel(n, k, i)).then(Channel(flrn))
        for j in range(n):
            assert lumped(j) == route(j), (n, k, i, j)

    def test_no_level_is_attainable_without_particles(self):
        for n in range(1, 6):
            chain = shift_on_numbers(n, 0, 0)
            for j in range(n):
                with pytest.raises(ValueError):
                    chain(j)

    @pytest.mark.parametrize("n, k, i, level", [
        (1, 1, 0, 0), (1, 7, 0, 0),                      # one level
        (2, 1, 0, 0), (5, 1, 3, 3), (1000, 1, 7, 7),     # one particle
        (2, 3, 3, 1), (3, 4, 8, 2), (5, 2, 8, 4),        # every particle at the top
    ])
    def test_one_state_on_one_level_stays(self, n, k, i, level):
        """A space whose one state holds every particle on one level:
        N = 1, K = 1, or sum (N-1)K, where no particle is below the top
        (L = 0) and the drop's particle climbs back.  That level's row is
        the point, and every other level is unattainable."""
        chain = shift_on_numbers(n, k, i)
        assert chain(level) == point(level)
        for j in range(min(n, i + 2)):
            if j != level:
                with pytest.raises(ValueError, match=f"level {j} is unattainable"):
                    chain(j)

    def test_counts_without_the_compiled_chain(self, monkeypatch):
        """The level chain neither compiles the shift chain nor enumerates
        a space nor builds a ground set of levels."""
        expected = {}
        for n, k, i in [(3, 4, 4), (5, 6, 12), (4, 3, 5), (6, 5, 3)]:
            route = flrn_dagger(n, k, i).then(shift_channel(n, k, i)).then(Channel(flrn))
            expected[n, k, i] = [route(j) for j in range(min(n, i + 1))]

        def refuse(*args):
            raise AssertionError("reached")

        for name in ("_ShiftChain", "_level_sum_fill", "_space", "levels"):
            monkeypatch.setattr(markov, name, refuse)
        for (n, k, i), rows in expected.items():
            chain = shift_on_numbers(n, k, i)
            assert [chain(j) for j in range(len(rows))] == rows, (n, k, i)

    @pytest.mark.parametrize("n, k, i", [(12, 16, 80), (20, 40, 300), (10**8, 2, 3)])
    def test_numbers_family_is_its_fixed_point_on_large_spaces(self, n, k, i):
        """Spaces of 234,448 states and more, and 10^8 levels: stationary
        and in detailed balance, with every reachable level a row."""
        rho = boltzmann_on_numbers(n, k, i)
        chain = shift_on_numbers(n, k, i)
        assert pushforward(chain, rho) == rho
        for a in rho.support:
            row = chain(a)
            assert max(row.support) <= i
            for b in row.support:
                assert rho(a) * row(b) == rho(b) * chain(b)(a), (a, b)


class TestCompiledPathRejects:
    def test_iterate_start_outside_space(self):
        ref = boltzmann_on_multisets(3, 4, 4)
        with pytest.raises(ValueError):
            iterate_chain(point(parse_multiset("4|0>", levels(3))), shift_channel(3, 4, 4), 2, ref)

    def test_iterate_reference_outside_space(self):
        start = point(next(enumerate_multisets_with_sum(3, 4, 4)))
        with pytest.raises(ValueError):
            iterate_chain(start, shift_channel(3, 4, 4), 2, boltzmann_on_multisets(3, 4, 5))

    def test_iterate_start_on_other_ground(self):
        phi = Multiset(levels(4), {0: 2, 2: 2})
        with pytest.raises(ValueError):
            iterate_chain(point(phi), shift_channel(3, 4, 4), 2, boltzmann_on_multisets(3, 4, 4))

    def test_residual_outside_space(self):
        omega = Dist([(parse_multiset("2|1> + 2|2>", levels(3)), 1),
                      (parse_multiset("4|1>", levels(3)), 1)], 2)
        with pytest.raises(ValueError):
            stationarity_residual(omega, shift_channel(3, 4, 4))

    def test_residual_non_multiset_support(self):
        with pytest.raises(ValueError):
            stationarity_residual(point(4), shift_channel(3, 4, 4))

    def test_level_chain_unattainable_level(self):
        with pytest.raises(ValueError):
            shift_on_numbers(4, 5, 0)(2)
        with pytest.raises(ValueError):
            shift_on_numbers(3, 2, 4)(0)

    def test_trajectory_from_empty_configuration(self):
        with pytest.raises(ValueError):
            sample_trajectory(empty(levels(3)), 5)

    def test_trajectory_from_non_level_ground(self):
        with pytest.raises(ValueError):
            sample_trajectory(Multiset(GroundSet("ab"), {"a": 2}), 5)
        with pytest.raises(ValueError):
            sample_trajectory(Multiset(GroundSet([1, 2]), {1: 2}), 5)
