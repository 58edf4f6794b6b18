"""Geometric laws are stored in lowest terms: their weights take no gcd.

For coprime p, q the weights p^j q^(E-j) of ``approx._geometric`` sum
to S = q^E (mod p) and S = p^E (mod q), so S shares no prime with any
weight and every weight p^j q^(E-j) / S is in lowest terms already.
Such a ``Dist`` is marked ``_coprime`` and ``Dist._reduced`` reads it
with no gcd, and ``distributions._fraction`` builds each ``Fraction``
with no gcd.  Every reader must still give what ``Fraction(n, den)``
gives.
"""

import json
import math
import operator
import pickle
import time
from fractions import Fraction

import pytest

from discrete_boltzmann import Dist, max_entropy_dist, ratio_approx
from discrete_boltzmann.approx import _geometric
from discrete_boltzmann.distributions import _fraction, image
from discrete_boltzmann.ketform import dist_to_json_text


def _laws(e):
    """The ratio and max-entropy laws on 0..E at every mean k/2 in (0, E)."""
    for k in range(1, 2 * e):
        mu = Fraction(k, 2)
        yield ratio_approx(e, mu)
        yield max_entropy_dist(e, mu)[0]


def _reference(omega):
    """(element, weight) of ``omega`` from ``Fraction(n, den)``, which takes a gcd."""
    return [(x, Fraction(n, omega.denominator)) for x, n in omega.numerators()]


@pytest.mark.parametrize("e", range(1, 41))
class TestGeometricLaws:
    def test_every_numerator_is_coprime_to_the_denominator(self, e):
        for omega in _laws(e):
            assert all(math.gcd(n, omega.denominator) == 1 for _, n in omega.numerators())

    def test_every_geometric_law_is_marked(self, e):
        for k in range(1, 2 * e):
            assert ratio_approx(e, Fraction(k, 2))._coprime
            # at the mean E/2 the max-entropy law is built by ``uniform``
            assert max_entropy_dist(e, Fraction(k, 2))[0]._coprime == (k != e)

    def test_readers_equal_the_reference(self, e):
        for omega in _laws(e):
            ref = _reference(omega)
            assert omega.items() == tuple(ref)
            assert omega.weights() == tuple(w for _, w in ref)
            assert [omega(x) for x, _ in ref] == [w for _, w in ref]
            assert str(omega) == " + ".join(f"{w}|{x}>" for x, w in ref)
            assert dist_to_json_text(omega) == json.dumps(
                [{"element": x, "numerator": w.numerator, "denominator": w.denominator,
                  "probability": w.numerator / w.denominator} for x, w in ref])


def test_outside_the_support_is_zero_over_one():
    omega = ratio_approx(10, 3)
    assert omega._coprime
    for x in (-1, 11, "a"):
        w = omega(x)
        assert type(w) is Fraction and w == 0 and w.denominator == 1


def test_weights_are_plain_fractions():
    for omega in (ratio_approx(5, 2), Dist({0: 2, 1: 6}, 8)):
        assert all(type(w) is Fraction for w in omega.weights())
        assert all(type(w) is Fraction for _, w in omega.items())


class TestFraction:
    PAIRS = [(0, 1), (1, 1), (-1, 1), (3, 7), (-3, 7), (22, 7), (-22, 7),
             (10 ** 40 + 1, 10 ** 39), (-(3 ** 200), 2 ** 300), (2 ** 61 - 1, 2 ** 61)]

    @pytest.mark.parametrize("n, d", PAIRS)
    def test_agrees_with_fraction(self, n, d):
        f, g = _fraction(n, d), Fraction(n, d)
        assert type(f) is Fraction
        assert (f.numerator, f.denominator) == (g.numerator, g.denominator)
        assert f == g and hash(f) == hash(g) and str(f) == str(g) and repr(f) == repr(g)
        assert float(f) == float(g) and int(f) == int(g) and bool(f) == bool(g)
        assert pickle.loads(pickle.dumps(f)) == g

    @pytest.mark.parametrize("a", PAIRS)
    @pytest.mark.parametrize("b", PAIRS[1:4] + PAIRS[-2:])
    def test_arithmetic_agrees_with_fraction(self, a, b):
        fa, fb, ga, gb = _fraction(*a), _fraction(*b), Fraction(*a), Fraction(*b)
        for op in (operator.add, operator.sub, operator.mul, operator.truediv,
                   operator.lt, operator.le, operator.eq):
            assert op(fa, fb) == op(ga, gb)
        assert -fa == -ga and abs(fa) == abs(ga) and fa ** 3 == ga ** 3
        assert fa + 1 == ga + 1 and 2 * fa == 2 * ga and fa == ga + 0


class TestTheMark:
    def test_not_coprime_p_q_is_left_unmarked(self):
        omega = _geometric(5, 2, 4)
        assert not omega._coprime
        assert omega == _geometric(5, 1, 2)
        assert omega.items() == tuple(_reference(omega))
        assert all(w.denominator == omega.denominator // math.gcd(n, omega.denominator)
                   for (_, n), w in zip(omega.numerators(), omega.weights()))
        assert str(omega) == " + ".join(f"{w}|{x}>" for x, w in _reference(omega))

    def test_reduced_weights_for_unmarked_p_q(self):
        # p = 6, q = 9: the stored law is the one of 2/3, whose weights are reduced
        omega = _geometric(4, 6, 9)
        assert not omega._coprime and omega == _geometric(4, 2, 3)
        assert [(w.numerator, w.denominator) for w in omega.weights()] == [
            (3 ** (4 - j) * 2 ** j, 211) for j in range(5)]

    def test_other_constructors_and_images_are_unmarked(self):
        assert not Dist({0: 1, 1: 1}, 2)._coprime
        assert not Dist._from_counts([0, 1], [1, 2], 3)._coprime
        assert not image(ratio_approx(6, 2), lambda j: j % 2)._coprime


def test_wide_ratio_law_reads_its_weights_fast():
    omega = ratio_approx(3000, 1500)
    assert omega.denominator.bit_length() == 31666
    best = math.inf
    for _ in range(3):
        start = time.perf_counter()
        items = omega.items()
        best = min(best, time.perf_counter() - start)
    assert len(items) == 3001
    assert best < 0.5
