"""Multiset-indexed coefficients and the multivariate urn distributions.

Binomial, multichoose, and N-nomial coefficients extend from numbers to
multisets as per-label products.  The extensions obey multivariate
Vandermonde identities, which normalize three distributions on draws
from an urn psi:

* hypergeometric (draw and remove): binom(psi, phi) / binom(L, K) on the
  sub-multisets phi of psi of size K;
* Polya (draw and duplicate): multichoose(psi, phi) / multichoose(L, K)
  on all size-K multisets;
* the nomial distribution: C_N(psi, phi) / C_N(L, i) on the size-i
  multisets below (N-1)*psi, with N the number of colours.

All three push forward along frequentist learning to flrn(psi) exactly.
A Boltzmann family on tuples of configurations, one per particle kind,
closes the construction.  Read on levels through frequentist learning,
that family is one N-nomial row, C_N(K - L, i - sum_x j_x) / C_N(K, i)
on the level tuples (j_x) with K = |psi| and L kinds, so
``boltzmann_multi_on_levels`` enumerates no configuration.
"""

from __future__ import annotations

import itertools
import math
from operator import getitem

from .distributions import Dist
from .multisets import (
    Multiset,
    _check_sum_space,
    binom,
    coefficient,
    enumerate_multisets,
    enumerate_multisets_with_sum,
    leq,
    multichoose,
)
from .nomials import _rows_at, nomial

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
    out = 1
    for x, c in phi.items():
        out *= binom(psi(x), c)
    return out


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


def hypergeometric(k: int, psi: Multiset) -> Dist:
    """Draw-and-remove distribution of k draws from the urn psi."""
    total_size = psi.size
    if not 0 <= k <= total_size:
        raise ValueError(f"cannot draw {k} from an urn of size {total_size}")
    sizes = psi.counts_vector()
    draws = list(enumerate_multisets(psi.ground, k, caps=dict(psi.items())))
    return Dist._from_counts(
        draws, [math.prod(map(binom, sizes, phi.counts_vector())) for phi in draws],
        binom(total_size, k))


def polya(k: int, psi: Multiset) -> Dist:
    """Draw-and-duplicate distribution of k draws from the urn psi."""
    if k < 0:
        raise ValueError("draw size must be a natural")
    total = multichoose(psi.size, k)  # an empty urn fails here, before any draw
    sizes = psi.counts_vector()
    if min(sizes) < 1:  # one check for all draws, with mult_multichoose's message
        raise ValueError("mult_multichoose needs psi(x) >= 1 on every label")
    draws = list(enumerate_multisets(psi.ground, k))
    return Dist._from_counts(
        draws, [math.prod(map(multichoose, sizes, phi.counts_vector())) for phi in draws],
        total)


def nomial_coeff_multisets(n: int, psi: Multiset, phi: Multiset) -> int:
    """Product of C_N(psi(x), phi(x)); needs phi <= (N-1)*psi pointwise."""
    if n < 1:
        raise ValueError("need N >= 1")
    if not leq(phi, (n - 1) * psi):
        raise ValueError("nomial coefficient needs phi <= (N-1)*psi pointwise")
    out = 1
    for x in psi.ground:
        out *= nomial(n, psi(x), phi(x))
    return out


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
    sizes = psi.counts_vector()
    rows = _rows_at(n, i, sizes)
    label_rows = [rows[c] for c in sizes]  # C_N(psi(x), 0..i) for each label x
    draws = list(enumerate_multisets(psi.ground, i, caps=caps))
    return Dist._from_counts(
        draws, [math.prod(map(getitem, label_rows, phi.counts_vector())) for phi in draws],
        nomial(n, total_size, i))


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
    C_N(K, i), with K = |psi| and L kinds.  The tuples come by s
    ascending, then in colex order within s, each entry at most N - 1.
    The normalizer is ``nomial(n, K, i)``, so the exact-sum check in
    ``Dist`` is the Vandermonde identity
    sum_s C_N(L, s) * C_N(K - L, i - s) = C_N(K, i) on every call.
    """
    if any(psi(x) < 1 for x in psi.ground):
        raise ValueError("componentwise learning needs psi(x) >= 1 on every kind")
    k, kinds = psi.size, len(psi.ground)
    _check_sum_space(n, k, i, k_min=1)
    rest = _rows_at(n, i, (k - kinds,))[k - kinds]  # C_N(K - L, 0..i)
    caps = {x: n - 1 for x in psi.ground}
    support = [phi.counts_vector()
               for s in range(max(0, i - len(rest) + 1), min(i, (n - 1) * kinds) + 1)
               for phi in enumerate_multisets(psi.ground, s, caps=caps)]
    counts = [rest[i - sum(levels)] for levels in support]
    return Dist._from_counts(support, counts, nomial(n, k, i))
