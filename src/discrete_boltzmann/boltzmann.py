"""The three discrete Boltzmann distribution families.

For K particles spread over the energy levels 0..N-1 with total energy i:

* on multisets: each admissible configuration phi weighted by
  coefficient(phi) / C_N(K, i), i.e. by its share of microstates;
* on numbers: the energy of one randomly chosen particle, equal both to
  frequentist learning applied in probability to the multiset family and
  to the nomial ratio C_N(K-1, i-j) / C_N(K, i);
* on energy: the physically common special case N = E+1, i = E, where
  the weights collapse to multichoose ratios.

The nomial-ratio route is the default for the numbers family (linear
work instead of configuration enumeration); the pushforward route is
kept as its oracle.
"""

from __future__ import annotations

from .distributions import Dist, flrn, image, pushforward, uniform
from .multisets import _check_sum_space, coefficient, enumerate_multisets_with_sum, multichoose
from .nomials import DEFAULT_BUDGET, _rows_at, _sequences_with_sum, nomial

__all__ = [
    "boltzmann_on_multisets",
    "boltzmann_on_numbers",
    "boltzmann_on_numbers_via_multisets",
    "boltzmann_on_energy",
    "microstate_uniform",
    "projection_marginal",
    "scaled_unnormalized",
]


def boltzmann_on_multisets(n: int, k: int, i: int) -> Dist:
    """Configurations of k particles over n levels with total energy i,
    weighted by their multiset coefficients."""
    _check_sum_space(n, k, i, k_min=1)
    states = list(enumerate_multisets_with_sum(n, k, i))
    return Dist._from_counts(states, list(map(coefficient, states)), nomial(n, k, i))


def boltzmann_on_numbers(n: int, k: int, i: int) -> Dist:
    """Energy level of a random particle, via the nomial ratio.

    Weight of level j is C_N(K-1, i-j) / C_N(K, i); levels j > i carry
    no weight, so for i < N the support stays within 0..i.  Above half
    the top sum, 2i > (N-1)K, the weights are read from the shorter side
    of the palindromic row K-1, C_N(K-1, i-j) = C_N(K-1, T'-i+j) with
    T' = (N-1)(K-1), so row K-1 is cut at w = min(i, (N-1)K - i) and
    costs O(w) steps of the row recurrence.  At or above N (w >= N) the
    normalizer C_N(K, w) is a separate run of the recurrence for row K,
    so the exact-sum check in ``Dist`` holds one run against another;
    below N the normalizer is multichoose(K, w), an independent closed
    form at one ``math.comb``.  The support stays in ascending level order.
    """
    _check_sum_space(n, k, i, k_min=1)
    top = (n - 1) * (k - 1)
    lo, hi = max(0, i - top), min(n - 1, i)
    w = min(i, (n - 1) * k - i)
    if w < n:
        row, total = _rows_at(n, w, (k - 1,))[k - 1], multichoose(k, w)
    else:
        rows = _rows_at(n, w, (k - 1, k))
        row, total = rows[k - 1], rows[k][w]
    if 2 * i > (n - 1) * k:
        weights = row[top - i + lo:]  # C_N(K-1, T'-i+lo..T'-i+hi)
    else:
        weights = row[i - hi:i - lo + 1][::-1]  # C_N(K-1, i-hi..i-lo)
    return Dist._from_counts(range(lo, hi + 1), weights, total)


def boltzmann_on_numbers_via_multisets(n: int, k: int, i: int) -> Dist:
    """Oracle route: frequentist learning pushed forward over the
    multiset family.  Exponential work; must agree exactly with
    boltzmann_on_numbers."""
    return pushforward(flrn, boltzmann_on_multisets(n, k, i))


def boltzmann_on_energy(e: int, k: int) -> Dist:
    """The numbers family at N = E+1 levels with total energy E.

    It is ``boltzmann_on_numbers(E + 1, K, E)``: level j weighs
    multichoose(K-1, E-j) / multichoose(K, E).  The domain is E >= 1,
    K >= 2; the extension below that is refused, not silently allowed.
    """
    if e < 1 or k < 2:
        raise ValueError("energy family needs E >= 1 and K >= 2")
    return boltzmann_on_numbers(e + 1, k, e)


def microstate_uniform(n: int, k: int, i: int, budget: int = DEFAULT_BUDGET) -> Dist:
    """Uniform distribution on the sequences (microstates) of length k
    over 0..n-1 that sum to i.  Enumerates all n**k sequences, so a
    budget guard applies."""
    _check_sum_space(n, k, i, k_min=1)
    return uniform(_sequences_with_sum(n, k, i, budget))


def projection_marginal(omega: Dist, pos: int) -> Dist:
    """Marginal of a sequence-supported distribution at one position."""
    return image(omega, lambda v: v[pos])


def scaled_unnormalized(e: int, k: int) -> list[float]:
    """K times the energy-family weights, as decimals (occupation numbers)."""
    dist = boltzmann_on_energy(e, k)
    return [k * m / dist.denominator for _, m in dist.numerators()]
