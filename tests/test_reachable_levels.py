"""Levels above the sum are unreachable, so the level-sum routines run on
N' = min(N, i + 1) levels.

No particle of a configuration with sum i sits above level i, so the
(N, K, i) space is the (N', K, i) space with each count vector padded by
N - N' zeros, in the same colex order.  ``multisets._check_sum_space``
returns N', the chain keys and compiles only those levels, and vectors
are padded only where a configuration over levels 0..N-1 is built or
looked up.  Every space with N <= 8, K <= 5 and N' < N is held here
against its (N', K, i) space, and many levels above a small sum cost
next to nothing.
"""

import time

import pytest

from discrete_boltzmann import (
    Multiset,
    enumerate_multisets_with_sum,
    flrn_dagger,
    levels,
    sample_trajectory,
    shift,
    shift_channel,
    shift_on_numbers,
    transition_matrix,
)
from discrete_boltzmann import cli, markov
from discrete_boltzmann.multisets import _check_sum_space, _count_with_sum


def _short_spaces():
    """Every (N, K, i) with N <= 8, K <= 5 and i < N - 1, so N' < N."""
    for n in range(2, 9):
        for k in range(6):
            for i in range(min(n - 2, (n - 1) * k) + 1):
                yield n, k, i


def _padded(dist, pad=()):
    """A law on configurations as its count vectors (padded by ``pad``)
    with their numerators, in order, and its denominator."""
    return [(phi.counts_vector() + pad, m) for phi, m in dist.numerators()], dist.denominator


def _outcome(fn, *args):
    """What a call returns, or the message of the ``ValueError`` it raises."""
    try:
        return fn(*args)
    except ValueError as exc:
        return str(exc)


def _best_of_three(fn, *args):
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        fn(*args)
        best = min(best, time.perf_counter() - start)
    return best


@pytest.fixture
def key_levels(monkeypatch):
    """The number of levels of every ``markov._key_moves`` call."""
    seen = []
    original = markov._key_moves

    def recording(n, k):
        seen.append(n)
        return original(n, k)

    monkeypatch.setattr(markov, "_key_moves", recording)
    return seen


class TestPaddedSpace:
    @pytest.mark.parametrize("n, k, i", list(_short_spaces()))
    def test_space_equals_its_reachable_levels_padded(self, key_levels, n, k, i):
        reach = _check_sum_space(n, k, i)
        assert reach == i + 1 < n
        pad = (0,) * (n - reach)
        states = list(enumerate_multisets_with_sum(n, k, i))
        short = list(enumerate_multisets_with_sum(reach, k, i))
        assert [phi.counts_vector() for phi in states] == [psi.counts_vector() + pad for psi in short]
        assert _count_with_sum(n, k, i) == _count_with_sum(reach, k, i) == len(states)

        chain, short_chain = shift_channel(n, k, i), shift_channel(reach, k, i)
        assert chain.states == states
        assert chain.index == {phi.counts_vector(): j for j, phi in enumerate(states)}
        for j, (phi, psi) in enumerate(zip(states, short)):
            if k:
                assert _padded(chain(phi)) == _padded(short_chain(psi), pad), (j, phi)
                assert _padded(shift(phi)) == _padded(shift(psi), pad), (j, phi)
                path = [phi.counts_vector() for phi in sample_trajectory(phi, 50, j)]
                short_path = [psi.counts_vector() + pad for psi in sample_trajectory(psi, 50, j)]
                assert path == short_path, (j, phi)
            else:
                assert _outcome(shift, phi) == _outcome(shift, psi) == \
                    "shift needs at least one particle"
                assert _outcome(sample_trajectory, phi, 50, j) == \
                    _outcome(sample_trajectory, psi, 50, j)
        matrix, short_matrix = _outcome(transition_matrix, n, k, i), \
            _outcome(transition_matrix, reach, k, i)
        if k:
            assert matrix == (states, short_matrix[1])
        else:
            assert matrix == short_matrix == "shift needs at least one particle"

        dagger, short_dagger = flrn_dagger(n, k, i), flrn_dagger(reach, k, i)
        numbers, short_numbers = shift_on_numbers(n, k, i), shift_on_numbers(reach, k, i)
        for level in range(n):
            row, short_row = _outcome(dagger, level), _outcome(short_dagger, level)
            if isinstance(row, str):
                assert row == short_row, level
            else:
                assert _padded(row) == _padded(short_row, pad), level
            row, short_row = _outcome(numbers, level), _outcome(short_numbers, level)
            assert row == short_row, level
            if not isinstance(row, str):
                assert row.support == short_row.support, level
                assert list(row.numerators()) == list(short_row.numerators()), level

        assert key_levels and max(key_levels) <= reach, key_levels


def _spread(n):
    """3|0> + 2|2> + 1|3> over n levels: size 6, energy 7, so N' = 8."""
    return Multiset._from_vector(levels(n), (3, 0, 2, 1) + (0,) * (n - 4))


class TestManyLevels:
    def test_chain_on_a_hundred_thousand_levels(self):
        assert _best_of_three(shift_channel, 10**5, 2, 3) < 0.1
        chain = shift_channel(10**5, 2, 3)
        assert [phi.counts_vector()[:4] for phi in chain.states] == [(0, 1, 1, 0), (1, 0, 0, 1)]

    def test_shift_on_twenty_thousand_levels(self, key_levels):
        phi = _spread(20_000)
        assert _best_of_three(shift, phi) < 0.1
        pad = (0,) * (20_000 - 8)
        assert _padded(shift(phi)) == _padded(shift(_spread(8)), pad)
        assert set(key_levels) == {8}

    def test_trajectory_on_twenty_thousand_levels(self, key_levels):
        phi = _spread(20_000)
        assert _best_of_three(sample_trajectory, phi, 50, 3) < 0.1
        pad = (0,) * (20_000 - 8)
        assert [psi.counts_vector() for psi in sample_trajectory(phi, 50, 3)] == \
            [psi.counts_vector() + pad for psi in sample_trajectory(_spread(8), 50, 3)]
        assert set(key_levels) == {8}

    def test_iterate_command_on_a_hundred_thousand_levels(self, capsys):
        start = time.perf_counter()
        code = cli.run(["markov", "iterate", "--levels", "100000", "--particles", "2",
                        "--sum", "3", "--steps", "1"])
        elapsed = time.perf_counter() - start
        assert (code, capsys.readouterr().out) == (0, "step,tv_distance\n0,0\n1,0\n")
        assert elapsed < 5, elapsed
