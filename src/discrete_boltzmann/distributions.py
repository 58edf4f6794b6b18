"""Finite discrete distributions with exact rational weights.

A ``Dist`` stores integer numerators over one common denominator in
lowest terms, the form of the paper's counts over their normalizer.
``Dist(counts, total)`` fails unless the counts sum to ``total``, so
every family re-proves its normalization in one integer comparison.
Weights are scaled to the lcm of their denominators; when every weight
is whole (an int, or a ``Fraction`` with denominator 1, as the counts of
every family are) the lcm is 1 and each weight's numerator is stored as
it is, with no per-element scaling.

The exact families (the numbers, energy and multiset families, the
multiset-coefficient distribution, ``flrn``, the shift-chain and
level-chain rows, the geometric and lifted exponential weights of
``approx``, and the urn distributions and tuple Boltzmann families of
``multivariate``) hand their counts to one private core,
``Dist._from_counts(support, counts, total)``, whose support elements
are distinct by construction: one ``zip`` builds the numerators, zero
counts are dropped, and there is no per-element type test, fraction
scaling or merging.  It refuses a negative count and a repeated element
with the messages of ``Dist(...)``, and it ends in the same sum check
and gcd reduction, which both constructors share.
Weights are read in lowest terms through ``Dist._reduced``, one gcd per
element, except in a law marked ``_coprime``: ``approx``'s geometric
laws, whose weights p^j q^(E-j) / S over coprime p, q are in lowest
terms already, since their sum S = q^E (mod p) and S = p^E (mod q)
shares no prime with p or q.  Their ``Fraction``s are built with no gcd.
The only floating-point outputs here are ``entropy`` and
``kl_divergence`` (natural-log convention, 0*ln 0 = 0).  KL and the
total variation read one private walk of the cross products n * D and
N * m of omega = n/N and rho = m/D, so a caller that needs both, as
``approx.compare`` does, multiplies each pair once.

Support elements may be numbers, labels, multisets, or tuples; elements
are merged by equality.  Iteration order is the (deterministic) order
in which elements were first produced, which for the enumeration-based
constructors is the canonical multiset order.
"""

from __future__ import annotations

import itertools
import math
import operator
from fractions import Fraction
from typing import Any, Callable, Iterable, Iterator, Mapping, Sequence, Union

from .multisets import GroundSet, Multiset, _decimal, coefficient, enumerate_multisets

Weights = Union[Mapping[Any, Union[int, Fraction]], Iterable[tuple[Any, Union[int, Fraction]]]]

__all__ = [
    "Dist",
    "Channel",
    "point",
    "uniform",
    "flrn",
    "image",
    "pushforward",
    "channel_compose",
    "multiset_coefficient_distribution",
    "mean",
    "variance",
    "entropy",
    "kl_divergence",
    "total_variation",
]


class Dist:
    """A finite formal convex sum of elements with exact rational weights."""

    # _coprime: every numerator is coprime to the denominator (see _reduced)
    __slots__ = ("_num", "_den", "_coprime")

    def __init__(self, weights: Weights, total: int = 1):
        items = weights.items() if isinstance(weights, Mapping) else weights
        try:
            pairs = [(x, p if type(p) is int else Fraction(p)) for x, p in items]
        except OverflowError as exc:  # an infinite float weight
            raise ValueError(exc) from None
        scale = math.lcm(*{p.denominator for _, p in pairs})
        num: dict[Any, int] = {}
        for x, p in pairs:
            if p < 0:
                raise ValueError(f"negative weight {p} on {x!r}")
            if p:
                # whole weights (every denominator 1) are their numerators
                num[x] = num.get(x, 0) + (p.numerator if scale == 1
                                          else p.numerator * (scale // p.denominator))
        self._settle(num, total * scale)

    @classmethod
    def _from_counts(cls, support: Sequence[Any], counts: Sequence[int], total: int) -> "Dist":
        """Trusted constructor for a family's integer counts over its
        normalizer: ``support`` holds distinct elements and ``counts`` one
        natural number per element, in support order.  Zero counts are
        dropped; a negative count, a repeated element or counts that do
        not sum to ``total`` are refused."""
        num = dict(zip(support, counts, strict=True))
        if len(num) != len(counts):
            raise ValueError("support elements must be distinct")
        if min(counts, default=0) < 0:
            x, p = next((x, p) for x, p in zip(support, counts) if p < 0)
            raise ValueError(f"negative weight {p} on {x!r}")
        if not all(counts):
            num = {x: n for x, n in num.items() if n}
        dist = object.__new__(cls)
        dist._settle(num, total)
        return dist

    def _settle(self, num: dict[Any, int], den: int) -> None:
        """Store the numerators ``num`` over ``den`` in lowest terms, once
        they are checked to sum to ``den``."""
        if not num or sum(num.values()) != den:
            raise ValueError("weights must sum to exactly 1")
        g = math.gcd(den, *num.values())
        self._num = {x: n // g for x, n in num.items()} if g > 1 else num
        self._den = den // g
        self._coprime = False

    @property
    def support(self) -> tuple[Any, ...]:
        return tuple(self._num)

    @property
    def denominator(self) -> int:
        return self._den

    def numerators(self) -> tuple[tuple[Any, int], ...]:
        return tuple(self._num.items())

    def items(self) -> tuple[tuple[Any, Fraction], ...]:
        return tuple((x, _fraction(n, d)) for x, n, d in self._reduced())

    def weights(self) -> tuple[Fraction, ...]:
        return tuple(_fraction(n, d) for _, n, d in self._reduced())

    def __call__(self, x: Any) -> Fraction:
        m = self._num.get(x)
        if m is None:
            return Fraction(0)
        ((_, n, d),) = self._reduced([(x, m)])
        return _fraction(n, d)

    def __iter__(self) -> Iterator[Any]:
        return iter(self._num)

    def __len__(self) -> int:
        return len(self._num)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Dist) and self._den == other._den and self._num == other._num

    def __hash__(self) -> int:
        return hash((self._den, frozenset(self._num.items())))

    def map(self, f: Callable[[Any], Any]) -> "Dist":
        return image(self, f)

    def _reduced(self, pairs: Iterable[tuple[Any, int]] | None = None
                 ) -> Iterator[tuple[Any, int, int]]:
        """Each stored (element, numerator) pair, or each of ``pairs``, with
        its weight in lowest terms, as (element, numerator, denominator).
        A law marked ``_coprime`` holds every weight in lowest terms already
        and takes no gcd; any other law takes one gcd per element."""
        den = self._den
        if pairs is None:
            pairs = self._num.items()
        if self._coprime:
            for x, m in pairs:
                yield x, m, den
        else:
            for x, m in pairs:
                g = math.gcd(m, den)
                yield x, m // g, den // g

    def __str__(self) -> str:
        terms = []
        for x, n, d in self._reduced():
            # as ``str(Fraction)``: a whole weight prints its numerator alone
            weight = _decimal(n) if d == 1 else f"{_decimal(n)}/{_decimal(d)}"
            terms.append(f"{weight}|{element_text(x)}>")
        return " + ".join(terms)

    def __repr__(self) -> str:
        return f"<Dist {self}>"


def _fraction(n: int, d: int) -> Fraction:
    """The ``Fraction`` n/d of a pair already in lowest terms with d > 0,
    built with no gcd, as 3.12's ``Fraction._from_coprime_ints`` builds it."""
    f = object.__new__(Fraction)
    f._numerator = n
    f._denominator = d
    return f


def element_text(x: Any) -> str:
    """The text of one support element: tuples list their components
    separated by commas, ints print through ``_decimal`` and anything
    else prints as ``str``."""
    if isinstance(x, tuple):
        return ", ".join(element_text(c) for c in x)
    return _decimal(x) if type(x) is int else str(x)


class Channel:
    """A kernel assigning a distribution to each element of its source."""

    __slots__ = ("_kernel",)

    def __init__(self, kernel: Callable[[Any], Dist]):
        self._kernel = kernel

    def __call__(self, x: Any) -> Dist:
        return self._kernel(x)

    def then(self, other: "Channel") -> "Channel":
        """Post-compose: run self, then other in probability."""
        return Channel(lambda x: pushforward(other, self(x)))


def channel_compose(outer: Channel, inner: Channel) -> Channel:
    """The composite x -> pushforward(outer, inner(x))."""
    return inner.then(outer)


def point(x: Any) -> Dist:
    """The point mass (Dirac) distribution on ``x``."""
    return Dist([(x, 1)])


def uniform(elements: Iterable[Any]) -> Dist:
    """Equal weight 1/|S| on each element of a nonempty finite set."""
    elems = list(elements)
    if not elems:
        raise ValueError("uniform distribution needs a nonempty set")
    dist = Dist(((x, 1) for x in elems), len(elems))
    if len(dist) != len(elems):
        raise ValueError("uniform distribution needs distinct elements")
    return dist


def flrn(phi: Multiset) -> Dist:
    """Frequentist learning: normalize a nonempty multiset by its size."""
    k = phi.size
    if k == 0:
        raise ValueError("cannot learn a distribution from the empty multiset")
    return Dist._from_counts(phi.ground.labels, phi.counts_vector(), k)


def image(omega: Dist, f: Callable[[Any], Any]) -> Dist:
    """Push a distribution through a plain function, merging equal images."""
    return Dist(((f(x), n) for x, n in omega._num.items()), omega._den)


def pushforward(channel: Union[Channel, Callable[[Any], Dist]], omega: Dist) -> Dist:
    """Apply a channel in probability: sum_x omega(x) * channel(x)."""
    rows = [(n, channel(x)) for x, n in omega._num.items()]
    scale = math.lcm(*{row._den for _, row in rows})
    return Dist(((y, n * (scale // row._den) * m) for n, row in rows for y, m in row._num.items()),
                omega._den * scale)


def multiset_coefficient_distribution(ground: GroundSet, k: int) -> Dist:
    """Weight coefficient(phi) / N^k on every size-k multiset over the ground."""
    states = list(enumerate_multisets(ground, k))
    return Dist._from_counts(states, list(map(coefficient, states)), len(ground) ** k)


# the exact types of a numeric support; bool, an int subclass, is not one
_NUMERIC = {int, Fraction}


def _require_numeric(omega: Dist, what: str):
    if set(map(type, omega._num)) <= _NUMERIC:
        return
    for x in omega:
        if isinstance(x, bool) or not isinstance(x, (int, Fraction)):
            raise ValueError(f"{what} requires numeric support, got {x!r}")


def mean(omega: Dist) -> Fraction:
    _require_numeric(omega, "mean")
    return Fraction(sum(n * x for x, n in omega._num.items()), omega._den)


def variance(omega: Dist) -> Fraction:
    _require_numeric(omega, "variance")
    return Fraction(sum(n * x * x for x, n in omega._num.items()), omega._den) - mean(omega) ** 2


def _floats(omega: Dist) -> list[float]:
    """The weights n/N of ``omega`` as floats, in support order."""
    den = omega._den
    return [n / den for n in omega._num.values()]


def _entropy(floats: list[float]) -> float:
    """-sum p ln p over ``_floats(omega)``, skipping a weight that underflows to 0.0."""
    return 0.0 - sum(p * math.log(p) for p in floats if p)


def entropy(omega: Dist) -> float:
    """Shannon entropy in nats: -sum p ln p (no zero weights are stored).

    A weight whose float underflows to 0.0 is skipped: its p ln p term
    is far below half an ulp of the sum.  A point mass gives 0.0, not -0.0.
    """
    return _entropy(_floats(omega))


# the cross products a and b over omega's support, in order
_Cross = tuple[list[int], list[int]]


def _cross_products(omega: Dist, rho: Dist) -> _Cross:
    """The one walk that KL and the total variation read: over omega's
    support, in order, the cross products a = n * D and b = N * m, for
    omega = n/N and rho = m/D.  Where rho holds no weight m is 0, and so
    is b, since a ``Dist`` stores no zero weight."""
    big_n, big_d = omega._den, rho._den
    return ([n * big_d for n in omega._num.values()],
            [big_n * m for m in map(rho._num.get, omega._num, itertools.repeat(0))])


def _kl(omega: Dist, floats: list[float], cross: _Cross) -> float:
    """KL(omega || rho) from omega's ``_floats`` and ``_cross_products(omega, rho)``."""
    a_s, b_s = cross
    if 0 in b_s:
        x = next(x for x, b in zip(omega._num, b_s) if not b)
        raise ValueError(f"KL undefined: {x!r} outside the second support")
    out = 0.0
    log = math.log
    for p, a, b in zip(floats, a_s, b_s):
        if p:
            try:
                out += p * log(a / b)
            except OverflowError:
                out += p * (log(a) - log(b))
    return out


def _total_variation(omega: Dist, rho: Dist, cross: _Cross) -> Fraction:
    """The total variation from ``_cross_products(omega, rho)``: |a - b| over
    omega's support; the b over all of rho's support sum to N * D, so the
    elements rho holds alone add N * D - sum(b)."""
    a_s, b_s = cross
    nd = omega._den * rho._den
    return Fraction(sum(map(abs, map(operator.sub, a_s, b_s))) + nd - sum(b_s), 2 * nd)


def kl_divergence(omega: Dist, rho: Dist) -> float:
    """KL(omega || rho) in nats; requires support(omega) within support(rho).

    As in ``entropy``, a term whose float p underflows to 0.0 is skipped.
    A ratio p/q beyond the float range takes its log from the integers.
    """
    return _kl(omega, _floats(omega), _cross_products(omega, rho))


def total_variation(omega: Dist, rho: Dist) -> Fraction:
    """Exact total variation distance (1/2) * sum |omega - rho|."""
    return _total_variation(omega, rho, _cross_products(omega, rho))
