"""Hypothesis sweep of the float layer over E up to 2,000.

Across the valid range, the max-entropy solver, ``entropy``,
``kl_divergence`` and ``compare`` return finite values (or the exact
boundary answer) or raise ``ValueError``; none may crash, return NaN or
drop support.  The examples are derandomized so every run checks the
same inputs.
"""

import math
from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

from discrete_boltzmann import (
    boltzmann_on_energy,
    compare,
    discrete_exponential,
    entropy,
    kl_divergence,
    max_entropy_dist,
    mean,
    point,
)

F = Fraction
SWEEP = settings(derandomize=True, deadline=None, max_examples=100)


@st.composite
def energy_and_mean(draw):
    e = draw(st.integers(1, 2000))
    return e, draw(st.fractions(min_value=0, max_value=e, max_denominator=1000))


@given(energy_and_mean())
@example((2000, F(0)))
@example((2000, F(2000)))
@example((2000, F(1, 1000)))
@example((1999, F(1999) - F(1, 1000)))
@example((1, F(1, 2)))
@example((10, F(1, 10 ** 400)))
@SWEEP
def test_max_entropy_full_support_point_mass_or_value_error(case):
    e, mu = case
    try:
        dist, s = max_entropy_dist(e, mu)
    except ValueError:
        return
    if mu in (0, e):
        assert dist == point(mu)
    else:
        assert dist.support == tuple(range(e + 1))
        assert abs(float(mean(dist) - mu)) < 1e-9
        assert 0 < s < math.inf


@given(st.integers(1, 2000), st.integers(1, 10_000))
@example(2000, 1)
@example(2000, 2)
@example(2000, 10_000)
@example(2000, 10 ** 6)
@SWEEP
def test_energy_entropy_and_kl_finite_or_value_error(e, k):
    try:
        reference = boltzmann_on_energy(e, k)
        h = entropy(reference)
        kl = kl_divergence(reference, discrete_exponential(e, F(e, k)))
    except ValueError:
        return
    assert math.isfinite(h) and h >= 0
    assert math.isfinite(kl) and kl >= 0


@given(st.integers(1, 600), st.integers(2, 5000))
@example(600, 2)
@example(600, 3)
@example(1, 5000)
@SWEEP
def test_compare_entropies_and_kls_finite(e, k):
    report = compare(e, k)
    assert math.isfinite(report.reference_entropy)
    for c in report.candidates:
        assert math.isfinite(c.entropy) and math.isfinite(c.kl_from_reference)
