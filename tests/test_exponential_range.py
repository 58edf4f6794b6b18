"""The exponential helpers at means past either end of the float range.

A mean that rounds past the largest float, one that rounds to 0 and, for
the density, one whose reciprocal rate overflows a float are each refused
with a ``ValueError``; means on the float side of each boundary still work.
"""

import math
import sys
from fractions import Fraction as F

import pytest

from discrete_boltzmann import continuous_exponential_pdf, discrete_exponential, uniform

# the least integer that rounds past the largest float: half an ulp above it
PAST_MAX = 2 ** 1024 - 2 ** 970


class TestLargestFloat:
    @pytest.mark.parametrize("mu", [PAST_MAX, F(PAST_MAX), 2 ** 1024, F(10 ** 400, 3)],
                             ids=["int", "fraction", "2**1024", "10**400/3"])
    def test_mean_past_the_largest_float_is_refused(self, mu):
        with pytest.raises(ValueError, match="^mean lies farther from 0 than the largest float$"):
            continuous_exponential_pdf(mu)
        with pytest.raises(ValueError, match="^mean lies farther from 0 than the largest float$"):
            discrete_exponential(3, mu)

    def test_mean_rounding_to_the_largest_float_still_works(self):
        pdf = continuous_exponential_pdf(PAST_MAX - 1)
        assert pdf(0.0) == 1 / sys.float_info.max
        assert discrete_exponential(3, PAST_MAX - 1) == uniform(range(4))


class TestSmallestFloat:
    @pytest.mark.parametrize("mu", [F(1, 10 ** 400), F(1, 2 ** 1076)], ids=["10**-400", "2**-1076"])
    def test_mean_rounding_to_zero_is_refused(self, mu):
        with pytest.raises(ValueError, match="^mean lies closer to 0 than the smallest positive float$"):
            continuous_exponential_pdf(mu)

    @pytest.mark.parametrize("mu", [F(1, 10 ** 309), 5e-324, F(1, 2 ** 1074)],
                             ids=["10**-309", "5e-324", "2**-1074"])
    def test_rate_past_the_largest_float_is_refused(self, mu):
        # the density was rate * e^(-rate * x) = inf * 0, NaN at every x > 0
        with pytest.raises(ValueError, match="^mean lies closer to 0 than the reciprocal of the largest float$"):
            continuous_exponential_pdf(mu)

    def test_finite_rate_still_works(self):
        pdf = continuous_exponential_pdf(F(1, 10 ** 308))
        assert pdf(0.0) == 1e308 and pdf(1.0) == 0.0
        assert not math.isnan(pdf(1e-308))
