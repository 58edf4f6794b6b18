"""One level family: the numbers family and the per-kind level family
read one N-nomial row through ``boltzmann._level_weights``.

The per-kind level family is held against a copy of its earlier builder,
which read row K - L unmirrored and cut at i over the normalizer
``nomial(n, K, i)``; the one-kind family is held against the numbers
family at size; and the per-kind family is shown to make no ``nomial``
call and no pass of the sliding window.
"""

import itertools
import random

import pytest

from discrete_boltzmann import (
    Dist,
    GroundSet,
    Multiset,
    boltzmann_multi_on_levels,
    boltzmann_on_numbers,
    enumerate_multisets,
    nomial,
    parse_multiset,
)
from discrete_boltzmann import boltzmann, multivariate, nomials
from discrete_boltzmann.nomials import _row


def unmirrored_levels(n: int, psi: Multiset, i: int) -> Dist:
    """The per-kind level family as built before the fold: row K - L cut
    at i, never mirrored, tuples from ``enumerate_multisets`` under caps
    N - 1, and the normalizer ``nomial(n, K, i)``."""
    k, width = psi.size, len(psi.ground)
    rest = _row(n, k - width, i)
    caps = {x: n - 1 for x in psi.ground}
    support = [phi.counts_vector()
               for s in range(max(0, i - len(rest) + 1), min(i, (n - 1) * width) + 1)
               for phi in enumerate_multisets(psi.ground, s, caps=caps)]
    return Dist._from_counts(support, [rest[i - sum(t)] for t in support], nomial(n, k, i))


def kinds(*sizes: int) -> Multiset:
    ground = GroundSet([f"x{j}" for j in range(len(sizes))])
    return Multiset(ground, dict(zip(ground.labels, sizes)))


def small_urns():
    """Every urn of two or three kinds of one to three particles each, and
    every urn of four such kinds with at most six particles in all."""
    for width in (2, 3, 4):
        for sizes in itertools.product(range(1, 4), repeat=width):
            if width < 4 or sum(sizes) <= 6:
                yield kinds(*sizes)


def assert_same(got: Dist, expected: Dist, case) -> None:
    assert got == expected, case
    assert got.support == expected.support, case
    assert got.denominator == expected.denominator, case


class TestAgainstTheUnmirroredBuilder:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_every_sum_of_small_urns(self, n):
        for psi in small_urns():
            for i in range((n - 1) * psi.size + 1):
                assert_same(boltzmann_multi_on_levels(n, psi, i), unmirrored_levels(n, psi, i),
                            (n, psi.counts_vector(), i))

    def test_seeded_urns(self):
        rng = random.Random(25)
        for _ in range(40):
            psi = kinds(*(rng.randint(1, 5) for _ in range(rng.randint(2, 4))))
            n = rng.randint(2, 6)
            top = (n - 1) * psi.size
            for i in sorted({0, 1, top // 2, top // 2 + 1, top - 1, top}):
                assert_same(boltzmann_multi_on_levels(n, psi, i), unmirrored_levels(n, psi, i),
                            (n, psi.counts_vector(), i))

    @pytest.mark.parametrize("i", [0, 1, 1450, 2899, 2900])
    def test_two_kinds_of_fifty_over_thirty_levels(self, i):
        psi = parse_multiset("50|a> + 50|b>")  # T = 29 * 100 = 2900
        assert_same(boltzmann_multi_on_levels(30, psi, i), unmirrored_levels(30, psi, i), i)


class TestOneKind:
    """With one kind the per-kind level family is the numbers family."""

    @pytest.mark.parametrize("n, k, i", [
        (30, 100, 0), (30, 100, 1), (30, 100, 29), (30, 100, 30), (30, 100, 1450),
        (30, 100, 1451), (30, 100, 2870), (30, 100, 2899), (30, 100, 2900),
        (200, 800, 0), (200, 800, 1), (200, 800, 199), (200, 800, 200), (200, 800, 79600),
        (200, 800, 79601), (200, 800, 158000), (200, 800, 159199), (200, 800, 159200),
    ])
    def test_at_size(self, n, k, i):
        got, expected = boltzmann_multi_on_levels(n, kinds(k), i), boltzmann_on_numbers(n, k, i)
        assert got.denominator == expected.denominator, (n, k, i)
        assert got.numerators() == tuple(((j,), m) for j, m in expected.numerators()), (n, k, i)


class TestOneReader:
    def test_no_window_pass(self, monkeypatch):
        calls, window = [], nomials._rows

        def spy(*args):
            calls.append(args)
            return window(*args)

        monkeypatch.setattr(nomials, "_rows", spy)
        for n, psi, i in [(6, kinds(6, 6, 6), 45), (6, kinds(6, 6, 6), 70), (30, kinds(50, 50), 1450),
                          (4, kinds(1, 2), 2), (3, kinds(2, 2), 7)]:
            boltzmann_multi_on_levels(n, psi, i)
        assert calls == []

    def test_both_families_call_the_reader(self, monkeypatch):
        calls = []
        reader = boltzmann._level_weights

        def spy(n, k, width, i):
            calls.append((n, k, width, i))
            return reader(n, k, width, i)

        monkeypatch.setattr(boltzmann, "_level_weights", spy)
        monkeypatch.setattr(multivariate, "_level_weights", spy)
        boltzmann_on_numbers(5, 6, 9)
        boltzmann_multi_on_levels(5, kinds(2, 4), 9)
        assert calls == [(5, 6, 1, 9), (5, 6, 2, 9)]
