"""Approximations of the energy-level Boltzmann distribution.

Four classical approximations for total energy E, K particles and mean
mu = E/K:

1. geometric ratio: normalize (mu/(mu+1))^j, the limit of the ratio of
   successive exact weights as K grows;
2. discrete exponential: normalize e^(-j/mu), using ln(1 + 1/mu) ~ 1/mu;
3. maximum entropy: normalize s^j, with s the unique positive root of
   sum_{0<=j<=E} x^j (j - mu) = 0 from the Lagrange-multiplier
   stationarity conditions (Jaynes, Phys. Rev. 106, 1957).  For
   mu < E/2 the root lies in (0, 1) and one Newton iteration safeguarded
   by bisection on the bracket [0, 1] finds it as a float; the reversal
   j -> E - j covers mu > E/2.  The exact weights are (p/q)^j for the
   first continued-fraction convergent p/q of the float root whose law
   meets the mean check, so the denominator follows from the check, not
   from the float's 53-bit mantissa; a mean so near 0 or E that the
   weights would pass the ``MAX_LIFT_BITS`` budget raises instead;
4. continuous exponential density with rate 1/mu.

Floats enter the library only here and in entropy/KL.  Wherever a float
weight feeds a distribution it is turned into a rational first (exactly,
or for the max-entropy base as one of its convergents) and normalized in
exact arithmetic, so every returned ``Dist`` still sums to exactly 1.

``compare`` reads each distinct candidate once, and takes each
candidate's KL and total variation from one set of cross products with
the reference; every value equals, bit for bit, the standalone ``mean``,
``entropy``, ``kl_divergence`` and ``total_variation``.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from typing import Callable, Iterator, NamedTuple, Union

from .boltzmann import boltzmann_on_energy
from .distributions import (
    Dist,
    _cross_products,
    _entropy,
    _floats,
    _kl,
    _total_variation,
    entropy,
    mean,
    point,
    uniform,
)

Rational = Union[int, Fraction]

__all__ = [
    "ratio_approx",
    "discrete_exponential",
    "max_entropy_dist",
    "continuous_exponential_pdf",
    "compare",
    "ApproxReport",
    "CandidateReport",
]


def _exact(mu: Rational) -> Fraction:
    """The mean ``mu`` as a Fraction; an infinite or NaN float is refused."""
    try:
        return Fraction(mu)
    except OverflowError as exc:
        raise ValueError(exc) from None


def _check_weight_bits(e: int, log2_q: float, what: str) -> None:
    """Refuse E + 1 weights of up to E * log2(q) bits each past ``MAX_LIFT_BITS``;
    ``what`` names the law in the message."""
    bits = e * (e + 1) * log2_q
    if bits > MAX_LIFT_BITS:
        raise ValueError(f"{what} would hold about {bits:.3g} bits of exact weights, "
                         f"over {MAX_LIFT_BITS} bits")


def _geometric(e: int, p: int, q: int) -> Dist:
    """Normalize (p/q)^j over 0..E from the integers p^j * q^(E-j).

    E + 1 weights of up to E * log2(max(p, q)) bits each are refused,
    before any is built, when together they pass ``MAX_LIFT_BITS``.
    For coprime p, q the sum S of the weights is q^E (mod p) and p^E
    (mod q), so it shares no prime with any weight: the law is marked
    ``_coprime`` and its weights are read with no gcd.
    """
    _check_weight_bits(e, math.log2(max(p, q)), f"geometric weights on 0..{e}")
    weights = [q ** e]
    for _ in range(e):
        weights.append(weights[-1] // q * p)
    dist = Dist._from_counts(range(e + 1), weights, sum(weights))
    dist._coprime = math.gcd(p, q) == 1
    return dist


def ratio_approx(e: int, mu: Rational) -> Dist:
    """Normalization of (mu/(mu+1))^j over 0..E, computed exactly.

    Successive weights have the exact constant ratio mu/(mu+1).  Weights
    that would hold more than ``MAX_LIFT_BITS`` bits in all raise
    ``ValueError`` before any is built.
    """
    mu = _exact(mu)
    if e < 1 or mu <= 0:
        raise ValueError("need E >= 1 and mu > 0")
    return _geometric(e, mu.numerator, mu.numerator + mu.denominator)


# ln 2 to 40 digits: k * _LN2 - y keeps a double's precision for every k
# that MAX_LIFT_BITS admits
_LN2 = Fraction("0.6931471805599453094172321214581765680755")
# the bits of exact weights a law may hold: the lifted exponential's common
# denominator grows as E/mu, and each geometric weight as E log2(q)
MAX_LIFT_BITS = 1 << 27


def _rate(mu: Fraction) -> float:
    """1/mu in floats for a mean mu > 0, refused past either end of the float range."""
    try:
        return 1.0 / float(mu)
    except OverflowError:
        raise ValueError("mean lies farther from 0 than the largest float") from None
    except ZeroDivisionError:
        raise ValueError("mean lies closer to 0 than the smallest positive float") from None


def discrete_exponential(e: int, mu: Rational) -> Dist:
    """Normalization of e^(-j/mu) over 0..E.

    The raw weights are double precision; they are lifted exactly to
    rationals before normalizing, so the result is a genuine
    distribution (sum exactly 1) whose values carry float accuracy.  A
    weight below the normal float range is lifted from the split form
    e^(-y) = e^(k ln 2 - y) * 2^(-k) instead, so the support stays 0..E.
    """
    mu = _exact(mu)
    if e < 1 or mu <= 0:
        raise ValueError("need E >= 1 and mu > 0")
    rate = _rate(mu)
    # the message names the mean by floats: the exact one may have more
    # digits than ``str`` will convert, and E/mu may overflow a float
    if math.exp(-rate * e) < sys.float_info.min and (e + 1) * e / mu / _LN2 > MAX_LIFT_BITS:
        m = f"{float(mu):.6g}"
        raise ValueError(f"discrete_exponential({e}, {m}) would hold weights down to "
                         f"e^(-{e}/{m}) exactly, over {MAX_LIFT_BITS} bits")
    ratios = []
    for j in range(e + 1):
        w = math.exp(-rate * j)
        if w >= sys.float_info.min:
            ratios.append(w.as_integer_ratio())
        else:
            y = j / mu
            k = round(y / _LN2)
            m, d = math.exp(float(k * _LN2 - y)).as_integer_ratio()
            ratios.append((m, d << k))
    # every denominator is a power of two, so scaling to the largest is a shift
    top = max(d for _, d in ratios).bit_length()
    weights = [m << (top - d.bit_length()) for m, d in ratios]
    return Dist._from_counts(range(e + 1), weights, sum(weights))


def _solve_base(e: int, mu: float) -> float:
    """The root of the stationarity polynomial f(x) = sum x^j (j - mu), 0 < mu < E/2.

    The coefficients change sign once, so the positive root is unique,
    and f(0) = -mu < 0 < f(1) = (E + 1)(E/2 - mu) puts it in (0, 1).
    From the seed mu/(mu+1), each pass evaluates f and f' in one Horner
    sweep over the coefficients j - mu (computed once per call), moves
    the bracket end that has the sign of f(x) to x, and steps to the
    Newton iterate if it lies strictly inside the bracket, else to the
    midpoint.  Every pass moves an end strictly inward, so
    the loop ends; it stops once the step is within a few ulp of the
    iterate (for a midpoint the step is half the bracket).
    """
    lo, hi, x = 0.0, 1.0, mu / (mu + 1.0)
    coefficients = [j - mu for j in range(e, -1, -1)]
    while True:
        fx = dfx = 0.0
        for c in coefficients:
            dfx = dfx * x + fx
            fx = fx * x + c
        if fx == 0:
            return x
        if fx < 0:
            lo = x
        else:
            hi = x
        newton = x - fx / dfx if dfx else x
        step = newton if lo < newton < hi else 0.5 * (lo + hi)
        if abs(step - x) <= 4 * sys.float_info.epsilon * step:
            return step
        x = step


def _convergents(n: int, d: int) -> Iterator[tuple[int, int]]:
    """The continued-fraction convergents p/q of n/d > 0 in order; the last is n/d in lowest terms."""
    p0, q0, p1, q1 = 0, 1, 1, 0
    while d:
        a, n, d = n // d, d, n % d
        p0, q0, p1, q1 = p1, q1, a * p1 + p0, a * q1 + q0
        yield p1, q1


def _geometric_mean(e: int, a: int, b: int) -> tuple[int, int]:
    """The mean of the weights a^j b^(E-j) on 0..E as an unreduced (numerator, denominator > 0).

    For a != b the geometric sums give a/(b-a) - (E+1) a^(E+1) / (b^(E+1) - a^(E+1)),
    so the mean costs two powers and builds no weight.
    """
    if a == b:
        return e, 2
    top, bottom = a ** (e + 1), b ** (e + 1)
    return a * (bottom - top) - (e + 1) * top * (b - a), (b - a) * (bottom - top)


def _max_entropy(e: int, mu: Rational) -> tuple[Dist, float, Fraction]:
    """``max_entropy_dist(e, mu)`` together with the exact mean of its law,
    the one the 1e-9 check has read."""
    mu = _exact(mu)
    if e < 1 or not 0 <= mu <= e:
        raise ValueError(f"mean must lie in [0, {e}]")
    # the boundary laws hold the mean mu exactly
    if mu == 0:
        return point(0), 0.0, mu
    if mu == e:
        return point(e), math.inf, mu
    if 2 * mu == e:
        return uniform(range(e + 1)), 1.0, mu
    # the reversal j -> E - j maps mean mu to E - mu and the base s to 1/s,
    # so the solver only sees means below E/2, where the root lies in (0, 1)
    low = min(mu, e - mu)
    if float(low) == 0:
        raise ValueError(f"mean lies closer to an end of [0, {e}] than the smallest positive float")
    t = _solve_base(e, float(low))
    # every convergent p/q of t has q of about 1/t or more; the message names
    # the mean by floats, as the exact one may have more digits than ``str`` converts
    _check_weight_bits(e, -math.log2(t),
                       f"max_entropy_dist at E = {e} with a mean {float(low):.3g} from an end")
    for p, q in _convergents(*t.as_integer_ratio()):
        if p:
            num, den = _geometric_mean(e, p, q)
            # the exact difference to the target, rounded once as float(mean(dist) - mu) is
            if abs((num * low.denominator - low.numerator * den) / (den * low.denominator)) < 1e-9:
                break
    dist, s = (_geometric(e, q, p), 1 / t) if 2 * mu > e else (_geometric(e, p, q), t)
    m = mean(dist)
    if abs(float(m - mu)) >= 1e-9:
        raise ArithmeticError(f"solved mean misses the target by {float(m - mu)}")
    return dist, s, m


def max_entropy_dist(e: int, mu: Rational) -> tuple[Dist, float]:
    """The entropy-maximizing distribution on 0..E with mean ``mu``.

    Returns (distribution, s) where s is the solved float root (1/root
    for a mean above E/2) and the weights are proportional to (p/q)^j
    for the first continued-fraction convergent p/q (p >= 1) of the root
    whose law has its mean within 1e-9 of ``mu``; the last convergent is
    the root itself.  Boundary means give the point masses at 0 and E
    (with s = 0 and s = inf) and the mean E/2 the uniform distribution
    (s = 1).  A mean closer to 0 or E than the smallest positive float,
    or so close that the exact weights would exceed ``MAX_LIFT_BITS``
    bits, raises ``ValueError``.
    """
    dist, s, _ = _max_entropy(e, mu)
    return dist, s


def continuous_exponential_pdf(mu: Rational) -> Callable[[float], float]:
    """Density of the exponential law with rate 1/mu on [0, inf)."""
    mu = _exact(mu)
    if mu <= 0:
        raise ValueError("mu must be positive")
    rate = _rate(mu)
    if rate == math.inf:
        raise ValueError("mean lies closer to 0 than the reciprocal of the largest float")

    def pdf(x: float) -> float:
        return rate * math.exp(-rate * x) if x >= 0 else 0.0

    return pdf


class CandidateReport(NamedTuple):
    """One approximation held against the exact reference."""
    name: str
    dist: Dist
    mean: Fraction
    entropy: float
    kl_from_reference: float
    total_variation: Fraction


class ApproxReport(NamedTuple):
    """Side-by-side comparison of the three discrete approximations plus
    the continuous density descriptor."""
    energy: int
    particles: int
    mu: Fraction
    reference: Dist
    reference_mean: Fraction
    reference_entropy: float
    candidates: tuple[CandidateReport, ...]
    max_entropy_base: float
    continuous_rate: float

    def candidate(self, name: str) -> CandidateReport:
        for c in self.candidates:
            if c.name == name:
                return c
        raise KeyError(name)


def compare(e: int, k: int) -> ApproxReport:
    """Exact reference at (E, K) against all three discrete candidates.

    Each distinct candidate is read once: candidates that are equal
    ``Dist``s share one set of statistics.  Two geometric laws on 0..E
    with one ratio are one reduced ``Dist``, so when the max-entropy
    law's first two weights stand in ratio mu/(mu + 1) (the solver kept
    that convergent) it is the ratio law, which is then not built.  The
    max-entropy law's mean is the one its solver checked.  The
    reference's float weights are computed once for its entropy and
    every KL, and each candidate's KL and total variation come from one
    set of cross products with the reference.
    """
    reference = boltzmann_on_energy(e, k)
    mu = Fraction(e, k)
    maxent, s, maxent_mean = _max_entropy(e, mu)
    # mu lies in (0, E/2], where the max-entropy law is geometric on 0..E
    ratio = maxent if maxent(1) * (mu + 1) == maxent(0) * mu else ratio_approx(e, mu)
    floats = _floats(reference)
    candidates: list[CandidateReport] = []
    for name, dist in [
        ("ratio", ratio),
        ("discrete-exponential", discrete_exponential(e, mu)),
        ("max-entropy", maxent),
    ]:
        seen = next((c for c in candidates if c.dist == dist), None)
        if seen is None:
            cross = _cross_products(reference, dist)
            candidates.append(CandidateReport(
                name=name,
                dist=dist,
                mean=maxent_mean if dist is maxent else mean(dist),
                entropy=entropy(dist),
                kl_from_reference=_kl(reference, floats, cross),
                total_variation=_total_variation(reference, dist, cross),
            ))
        else:
            candidates.append(seen._replace(name=name, dist=dist))
    return ApproxReport(
        energy=e,
        particles=k,
        mu=mu,
        reference=reference,
        reference_mean=mean(reference),
        reference_entropy=_entropy(floats),
        candidates=tuple(candidates),
        max_entropy_base=s,
        continuous_rate=float(1 / mu),
    )
