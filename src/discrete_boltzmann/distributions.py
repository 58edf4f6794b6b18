"""Finite discrete distributions with exact rational weights.

A ``Dist`` stores weights as ``fractions.Fraction`` values that sum to
exactly 1; construction fails otherwise, so every distribution built
from a counting formula implicitly re-proves its normalization.  The
only floating-point outputs in this module are ``entropy`` and
``kl_divergence`` (natural-log convention, 0*ln 0 = 0).

Support elements may be numbers, labels, multisets, or tuples; elements
are merged by equality.  Iteration order is the (deterministic) order
in which elements were first produced, which for the enumeration-based
constructors is the canonical multiset order.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Any, Callable, Iterable, Iterator, Mapping, Union

from .multisets import GroundSet, Multiset, coefficient, enumerate_multisets

Weight = Union[int, Fraction]

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

    __slots__ = ("_w",)

    def __init__(self, weights: Union[Mapping[Any, Weight], Iterable[tuple[Any, Weight]]]):
        items = weights.items() if isinstance(weights, Mapping) else weights
        acc: dict[Any, Fraction] = {}
        for x, p in items:
            p = Fraction(p)
            if p < 0:
                raise ValueError(f"negative weight {p} on {x!r}")
            if p:
                acc[x] = acc.get(x, Fraction(0)) + p
        if sum(acc.values()) != 1:
            raise ValueError("weights must sum to exactly 1")
        self._w = acc

    @property
    def support(self) -> tuple[Any, ...]:
        return tuple(self._w)

    def items(self) -> tuple[tuple[Any, Fraction], ...]:
        return tuple(self._w.items())

    def weights(self) -> tuple[Fraction, ...]:
        return tuple(self._w.values())

    def __call__(self, x: Any) -> Fraction:
        return self._w.get(x, Fraction(0))

    def __iter__(self) -> Iterator[Any]:
        return iter(self._w)

    def __len__(self) -> int:
        return len(self._w)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Dist) and self._w == other._w

    def __hash__(self) -> int:
        return hash(frozenset(self._w.items()))

    def map(self, f: Callable[[Any], Any]) -> "Dist":
        return image(self, f)

    def __str__(self) -> str:
        return " + ".join(f"{p}|{element_text(x)}>" for x, p in self._w.items())

    def __repr__(self) -> str:
        return f"<Dist {self}>"


def element_text(x: Any) -> str:
    """The text of one support element: tuples list their components
    separated by commas; anything else prints as ``str``."""
    if isinstance(x, tuple):
        return ", ".join(element_text(c) for c in x)
    return str(x)


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
    return Dist([(x, Fraction(1))])


def uniform(elements: Iterable[Any]) -> Dist:
    """Equal weight 1/|S| on each element of a nonempty finite set."""
    elems = list(elements)
    if not elems:
        raise ValueError("uniform distribution needs a nonempty set")
    w = Fraction(1, len(elems))
    dist = Dist((x, w) for x in elems)
    if len(dist) != len(elems):
        raise ValueError("uniform distribution needs distinct elements")
    return dist


def flrn(phi: Multiset) -> Dist:
    """Frequentist learning: normalize a nonempty multiset by its size."""
    k = phi.size
    if k == 0:
        raise ValueError("cannot learn a distribution from the empty multiset")
    return Dist((x, Fraction(n, k)) for x, n in phi.items())


def image(omega: Dist, f: Callable[[Any], Any]) -> Dist:
    """Push a distribution through a plain function, merging equal images."""
    return Dist((f(x), p) for x, p in omega.items())


def pushforward(channel: Union[Channel, Callable[[Any], Dist]], omega: Dist) -> Dist:
    """Apply a channel in probability: sum_x omega(x) * channel(x)."""
    pairs: list[tuple[Any, Fraction]] = []
    for x, p in omega.items():
        for y, q in channel(x).items():
            pairs.append((y, p * q))
    return Dist(pairs)


def multiset_coefficient_distribution(ground: GroundSet, k: int) -> Dist:
    """Weight coefficient(phi) / N^k on every size-k multiset over the ground."""
    total = len(ground) ** k
    return Dist((phi, Fraction(coefficient(phi), total))
                for phi in enumerate_multisets(ground, k))


def _require_numeric(omega: Dist, what: str):
    for x in omega:
        if isinstance(x, bool) or not isinstance(x, (int, Fraction)):
            raise ValueError(f"{what} requires numeric support, got {x!r}")


def mean(omega: Dist) -> Fraction:
    _require_numeric(omega, "mean")
    return sum((p * x for x, p in omega.items()), Fraction(0))


def variance(omega: Dist) -> Fraction:
    _require_numeric(omega, "variance")
    second = sum((p * x * x for x, p in omega.items()), Fraction(0))
    return second - mean(omega) ** 2


def entropy(omega: Dist) -> float:
    """Shannon entropy in nats: -sum p ln p (no zero weights are stored).

    A weight whose float underflows to 0.0 is skipped: its p ln p term
    is far below half an ulp of the sum.
    """
    return -sum(p * math.log(p) for p in map(float, omega.weights()) if p)


def kl_divergence(omega: Dist, rho: Dist) -> float:
    """KL(omega || rho) in nats; requires support(omega) within support(rho)."""
    out = 0.0
    for x, p in omega.items():
        q = rho(x)
        if q == 0:
            raise ValueError(f"KL undefined: {x!r} outside the second support")
        out += float(p) * math.log(float(p / q))
    return out


def total_variation(omega: Dist, rho: Dist) -> Fraction:
    """Exact total variation distance (1/2) * sum |omega - rho|."""
    elems = dict.fromkeys(list(omega) + list(rho))
    return sum((abs(omega(x) - rho(x)) for x in elems), Fraction(0)) / 2
