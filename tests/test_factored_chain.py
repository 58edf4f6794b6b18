"""The shift chain compiled as its drop and climb factors, held against
the single-loop move rule.

``_oracle_row`` below is the merged-row rule the factors replaced, kept
here as the reference: one loop over the drops d and the climbs u,
building each target by tuple slicing.  The factored ``_ShiftChain``
rows, ``shift``, the two-pass ``push`` and the seeded sampler are held
against it; so are the K = 0 contract, the one-level spaces, the
negative step counts and the matrix limit, which must refuse before
any configuration or factor is built.
"""

import math
import random
import time

import pytest

from discrete_boltzmann import (
    Channel,
    Multiset,
    boltzmann_on_multisets,
    cli,
    empty,
    enumerate_multisets_with_sum,
    iterate_chain,
    levels,
    multichoose,
    point,
    sample_trajectory,
    shift,
    shift_channel,
    stationarity_residual,
    transition_matrix,
    uniform,
)
from discrete_boltzmann import markov
from discrete_boltzmann.markov import _ShiftChain
from discrete_boltzmann.multisets import _count_with_sum


def _oracle_row(vec):
    """The row of ``shift`` on a count vector by the single-loop rule:
    targets in first-reached order, numerators, denominator, lowest terms."""
    n, k = len(vec), sum(vec)
    if k == 0:
        raise ValueError("shift needs at least one particle")
    low = k - vec[n - 1]
    scale = low * (low + 1) or 1
    row = {vec: vec[0] * scale} if vec[0] else {}
    for d in range(1, n):
        if vec[d] == 0:
            continue
        inter = vec[:d - 1] + (vec[d - 1] + 1, vec[d] - 1) + vec[d + 1:]
        per_move = vec[d] * (scale // (k - inter[n - 1]))
        for u in range(n - 1):
            if inter[u]:
                target = inter[:u] + (inter[u] - 1, inter[u + 1] + 1) + inter[u + 2:]
                row[target] = row.get(target, 0) + per_move * inter[u]
    den = k * scale
    g = math.gcd(den, *row.values())
    return list(row), [m // g for m in row.values()], den // g


def _oracle_push(chain, rows, vec, den):
    """One step of vec/den by merged rows, scaled to the lcm of the live
    rows' denominators and reduced by one gcd."""
    live = [(c, rows[j]) for j, c in enumerate(vec) if c]
    scale = math.lcm(*(d for _, (_, _, d) in live))
    out = [0] * len(vec)
    for c, (targets, nums, d) in live:
        for t, m in zip(targets, nums):
            out[chain.index[t]] += c * (scale // d) * m
    den *= scale
    g = math.gcd(den, *out)
    return [m // g for m in out], den // g


def _oracle_trajectory(phi0, steps, seed):
    rng = random.Random(seed)
    vecs = [phi0.counts_vector()]
    for _ in range(steps):
        targets, nums, den = _oracle_row(vecs[-1])
        r = rng.randrange(den)
        for target, m in zip(targets, nums):
            r -= m
            if r < 0:
                vecs.append(target)
                break
    return vecs


def spaces(max_levels, max_size):
    for n in range(1, max_levels + 1):
        for k in range(1, max_size + 1):
            for i in range((n - 1) * k + 1):
                yield n, k, i


def benchmark_spaces(count):
    """``count`` spaces spread over the (N 3-8, K 4-12) spaces of 20 to
    150 states, in order of size."""
    sized = sorted((_count_with_sum(n, k, i), n, k, i)
                   for n in range(3, 9) for k in range(4, 13)
                   for i in range((n - 1) * k + 1) if 20 <= _count_with_sum(n, k, i) <= 150)
    step = len(sized) / count
    return [sized[int(j * step)][1:] for j in range(count)]


class TestRowsMatchTheSingleLoopRule:
    def test_every_state_up_to_six_levels_and_particles(self):
        checked = 0
        for n, k, i in spaces(6, 6):
            chain = _ShiftChain(n, k, i)
            for j, phi in enumerate(chain.states):
                targets, nums, den = _oracle_row(phi.counts_vector())
                row = chain.row(j)
                assert row == ([chain.index[t] for t in targets], nums, den), phi
                step = shift(phi)
                assert [s.counts_vector() for s in step.support] == targets, phi
                assert [m for _, m in step.numerators()] == nums, phi
                assert step.denominator == den, phi
                checked += 1
        assert checked == sum(multichoose(n, k) for n in range(1, 7) for k in range(1, 7))

    def test_matrix_rows(self):
        for n, k, i in [(3, 4, 4), (5, 4, 8), (6, 5, 10)]:
            states, rows = transition_matrix(n, k, i)
            chain = _ShiftChain(n, k, i)
            assert states == chain.states
            for phi, row in zip(states, rows):
                targets, nums, den = _oracle_row(phi.counts_vector())
                expected = [0] * len(states)
                for t, m in zip(targets, nums):
                    expected[chain.index[t]] = m
                assert [w * den for w in row] == expected, phi

    @pytest.mark.parametrize("n, k, i", [(4, 6, 9), (7, 10, 20), (8, 5, 14)])
    def test_seeded_trajectories(self, n, k, i):
        for phi0 in (next(enumerate_multisets_with_sum(n, k, i)),
                     list(enumerate_multisets_with_sum(n, k, i))[-1]):
            for seed in range(5):
                path = sample_trajectory(phi0, 200, seed)
                assert [phi.counts_vector() for phi in path] == _oracle_trajectory(phi0, 200, seed)


class TestPushMatchesRowWisePush:
    STEPS = 10

    def check(self, n, k, i):
        chain = _ShiftChain(n, k, i)
        rows = [_oracle_row(phi.counts_vector()) for phi in chain.states]
        for omega in (uniform(chain.states), point(chain.states[0]),
                      boltzmann_on_multisets(n, k, i)):
            vec, den = chain.vector(omega), omega.denominator
            for _ in range(self.STEPS):
                pushed = chain.push(vec, den)
                vec, den = _oracle_push(chain, rows, vec, den)
                assert pushed == (vec, den), (n, k, i)

    def test_all_spaces_up_to_five_levels_and_particles(self):
        for n, k, i in spaces(5, 5):
            self.check(n, k, i)

    @pytest.mark.parametrize("n, k, i", benchmark_spaces(20))
    def test_benchmark_range(self, n, k, i):
        assert 20 <= len(_ShiftChain(n, k, i).states) <= 150
        self.check(n, k, i)


class TestNoParticles:
    @pytest.mark.parametrize("n", range(1, 6))
    def test_every_entry_point_refuses(self, n):
        nothing = empty(levels(n))
        channel = shift_channel(n, 0, 0)
        for call in (lambda: stationarity_residual(point(nothing), channel),
                     lambda: iterate_chain(point(nothing), channel, 1, point(nothing)),
                     lambda: channel(nothing),
                     lambda: channel.push([1], 1),
                     lambda: shift(nothing),
                     lambda: transition_matrix(n, 0, 0)):
            with pytest.raises(ValueError, match="shift needs at least one particle"):
                call()


class TestOneLevel:
    @pytest.mark.parametrize("k", range(1, 7))
    def test_residual_is_zero(self, k):
        phi = Multiset(levels(1), {0: k})
        assert stationarity_residual(point(phi), shift_channel(1, k, 0)) == 0
        assert stationarity_residual(boltzmann_on_multisets(1, k, 0), shift_channel(1, k, 0)) == 0
        assert shift(phi) == point(phi)
        assert sample_trajectory(phi, 3) == [phi] * 4


class TestNegativeSteps:
    def test_iterate_chain(self):
        ref = boltzmann_on_multisets(3, 4, 4)
        for channel in (shift_channel(3, 4, 4), Channel(shift)):
            for steps in (-1, -2):
                with pytest.raises(ValueError, match="steps"):
                    iterate_chain(ref, channel, steps, ref)
            assert len(iterate_chain(ref, channel, 0, ref)) == 1

    def test_sample_trajectory(self):
        phi = next(enumerate_multisets_with_sum(3, 4, 4))
        with pytest.raises(ValueError, match="steps"):
            sample_trajectory(phi, -1)
        assert sample_trajectory(phi, 0) == [phi]

    def test_cli_exits_2(self, capsys):
        code = cli.run(["markov", "iterate", "--levels", "3", "--particles", "4",
                        "--sum", "4", "--steps", "-2"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error:")


class TestMatrixLimit:
    def test_refuses_before_building_anything(self, monkeypatch):
        def forbidden(*args):
            raise AssertionError("built past the matrix limit")

        monkeypatch.setattr(markov, "_drop", forbidden)
        monkeypatch.setattr(markov, "_climb", forbidden)
        monkeypatch.setattr(Multiset, "_from_vector", classmethod(forbidden))
        start = time.perf_counter()
        with pytest.raises(ValueError) as info:
            transition_matrix(12, 16, 80)
        assert time.perf_counter() - start < 1.0
        assert str(info.value) == "234448 states exceed the matrix limit 10000"

    def test_message_counts_every_state(self):
        for n, k, i in spaces(6, 6):
            size = len(list(enumerate_multisets_with_sum(n, k, i)))
            with pytest.raises(ValueError, match=f"^{size} states exceed the matrix limit {size - 1}$"):
                transition_matrix(n, k, i, max_states=size - 1)
