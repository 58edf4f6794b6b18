"""Multiset-indexed coefficients and the multivariate urn distributions.

Binomial, multichoose, and N-nomial coefficients extend from numbers to
multisets as per-label products (``mult_binom``, ``mult_multichoose``,
``nomial_coeff_multisets``).  Three distributions on the size-K draws
phi from an urn psi of size L weigh phi by prod_x C_N(psi(x), phi(x)),
one N-nomial row per label (``_draws``), and differ only in N and caps:

* hypergeometric (draw and remove): N = 2 under caps psi, as
  binom(s, c) = C_2(s, c), over binom(L, K);
* Polya (draw and duplicate): N = K + 1 under caps K, as
  multichoose(s, c) = C_(K+1)(s, c) for c <= K, over multichoose(L, K);
* the nomial distribution of total i: N (by default the number of
  colours) under caps (N-1)*psi, over C_N(L, i).

So the exact-sum check in ``Dist`` is a multivariate Vandermonde identity.
All three push forward along frequentist learning to flrn(psi) exactly.
A Boltzmann family on tuples of configurations, one per particle kind,
closes the construction.  Read on levels through frequentist learning,
that family is one N-nomial row, C_N(K - L, i - sum_x j_x) / C_N(K, i)
on the level tuples (j_x) with K = |psi| and L kinds, read with its
normalizer by the numbers family's reader ``boltzmann._level_weights``;
``boltzmann_multi_on_levels`` enumerates no configuration.
"""

from __future__ import annotations

import itertools
import math
from operator import getitem

from .boltzmann import _level_weights
from .distributions import Dist
from .multisets import (
    Multiset,
    _bounded_fill,
    _check_sum_space,
    binom,
    coefficient,
    enumerate_multisets,
    enumerate_multisets_with_sum,
    leq,
    multichoose,
)
from .nomials import _row, nomial

__all__ = [
    "mult_binom",
    "mult_multichoose",
    "hypergeometric",
    "polya",
    "nomial_coeff_multisets",
    "nomial_distribution",
    "boltzmann_multi",
    "boltzmann_multi_on_levels",
]


def mult_binom(psi: Multiset, phi: Multiset) -> int:
    """Product of binom(psi(x), phi(x)) over the ground; needs phi <= psi."""
    if not leq(phi, psi):
        raise ValueError("mult_binom needs phi <= psi pointwise")
    return math.prod(binom(psi(x), c) for x, c in phi.items())


def mult_multichoose(psi: Multiset, phi: Multiset) -> int:
    """Product of multichoose(psi(x), phi(x)); needs psi >= 1 everywhere."""
    if phi.ground != psi.ground:
        raise ValueError("multisets must share a ground set")
    out = 1
    for x in psi.ground:
        if psi(x) < 1:
            raise ValueError("mult_multichoose needs psi(x) >= 1 on every label")
        out *= multichoose(psi(x), phi(x))
    return out


def _draws(psi: Multiset, k: int, n: int, caps: dict | None, total: int) -> Dist:
    """The size-k draws phi from the urn psi under ``caps`` (None caps
    every label at k), each weighing prod_x C_N(psi(x), phi(x)) over
    ``total``, read from one row ``_row(n, psi(x), k)`` per label."""
    rows = [_row(n, c, k) for c in psi.counts_vector()]
    draws = list(enumerate_multisets(psi.ground, k, caps=caps))
    return Dist._from_counts(
        draws, [math.prod(map(getitem, rows, phi.counts_vector())) for phi in draws], total)


def hypergeometric(k: int, psi: Multiset) -> Dist:
    """Draw-and-remove distribution of k draws from the urn psi."""
    total_size = psi.size
    if not 0 <= k <= total_size:
        raise ValueError(f"cannot draw {k} from an urn of size {total_size}")
    return _draws(psi, k, 2, dict(psi.items()), binom(total_size, k))


def polya(k: int, psi: Multiset) -> Dist:
    """Draw-and-duplicate distribution of k draws from the urn psi."""
    if k < 0:
        raise ValueError("draw size must be a natural")
    total = multichoose(psi.size, k)  # an empty urn fails here, before any draw
    if min(psi.counts_vector()) < 1:  # one check for all draws, with mult_multichoose's message
        raise ValueError("mult_multichoose needs psi(x) >= 1 on every label")
    return _draws(psi, k, k + 1, None, total)


def nomial_coeff_multisets(n: int, psi: Multiset, phi: Multiset) -> int:
    """Product of C_N(psi(x), phi(x)); needs phi <= (N-1)*psi pointwise."""
    if n < 1:
        raise ValueError("need N >= 1")
    if not leq(phi, (n - 1) * psi):
        raise ValueError("nomial coefficient needs phi <= (N-1)*psi pointwise")
    return math.prod(nomial(n, psi(x), phi(x)) for x in psi.ground)


def nomial_distribution(i: int, psi: Multiset, n: int | None = None) -> Dist:
    """The nomial draw distribution of total i from the sizes urn psi.

    ``n`` defaults to the number of colours, the case in which the
    normalizer C_N(L, i) is the plain N-nomial of the urn size L.
    """
    if n is None:
        n = len(psi.ground)
    total_size = psi.size
    _check_sum_space(n, total_size, i, k_min=1)
    caps = {x: (n - 1) * c for x, c in psi.items()}
    return _draws(psi, i, n, caps, nomial(n, total_size, i))


def boltzmann_multi(n: int, psi: Multiset, i: int) -> Dist:
    """Boltzmann distribution on tuples of configurations, one component
    per particle kind x with psi(x) particles, sharing the total energy i.

    The weight of a tuple is the product of the component coefficients
    over C_N(K, i) with K the total particle count; that this
    normalizes is re-verified by construction on every call.
    """
    k = psi.size
    _check_sum_space(n, k, i, k_min=1)
    sizes = psi.counts_vector()
    caps = {x: (n - 1) * c for x, c in psi.items()}
    tuples = []
    for split in enumerate_multisets(psi.ground, i, caps=caps):
        component_spaces = [
            list(enumerate_multisets_with_sum(n, s, e))
            for s, e in zip(sizes, split.counts_vector())
        ]
        tuples.extend(itertools.product(*component_spaces))
    return Dist._from_counts(tuples, [math.prod(map(coefficient, combo)) for combo in tuples],
                             nomial(n, k, i))


def boltzmann_multi_on_levels(n: int, psi: Multiset, i: int) -> Dist:
    """Per-kind level of a random particle: the tuple family pushed
    through frequentist learning componentwise.  Every kind must hold at
    least one particle.

    By the flrn-dagger denominator law a kind x of psi(x) particles and
    energy e has level j with count C_N(psi(x) - 1, e - j); the
    multivariate Vandermonde split folds the energy splits together, so
    the level tuple (j_x) of level sum s weighs C_N(K - L, i - s) over
    C_N(K, i), with K = |psi| and L kinds: the numbers family's reader
    ``boltzmann._level_weights`` with L kinds, normalizer included.  The
    tuples come by s ascending, then in colex order within s, each entry
    at most N - 1.  So the exact-sum check in ``Dist`` is the Vandermonde
    identity sum_s C_N(L, s) * C_N(K - L, i - s) = C_N(K, i) on every call.
    """
    if any(psi(x) < 1 for x in psi.ground):
        raise ValueError("componentwise learning needs psi(x) >= 1 on every kind")
    kinds = len(psi.ground)
    sums, weights, total = _level_weights(n, psi.size, kinds, i)
    support = [levels for s in sums for levels in _bounded_fill([n - 1] * kinds, s)]
    return Dist._from_counts(support, [weights[sum(t) - sums.start] for t in support], total)
