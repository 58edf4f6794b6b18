"""The three discrete Boltzmann distribution families.

For K particles spread over the energy levels 0..N-1 with total energy i:

* on multisets: each admissible configuration phi weighted by
  coefficient(phi) / C_N(K, i), i.e. by its share of microstates;
* on numbers: the energy of one randomly chosen particle, equal both to
  frequentist learning applied in probability to the multiset family and
  to the nomial ratio C_N(K-1, i-j) / C_N(K, i);
* on energy: the physically common special case N = E+1, i = E, where
  the weights collapse to multichoose ratios.

The numbers family reads its nomial ratio through ``_level_weights``, the
one level-sum reader, shared with ``multivariate``'s per-kind levels, over
``nomial``'s C_N(K, i).  The pushforward route is kept as its oracle.
"""

from __future__ import annotations

from .distributions import Dist, flrn, image, pushforward, uniform
from .multisets import (_check_sum_space, _configurations, _level_sum_fill, _vector_coefficient,
                         levels)
from .nomials import DEFAULT_BUDGET, _row, _sequences_with_sum, nomial

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
    weighted by their multiset coefficients, read from the N'-long count
    vectors of the space's reachable levels."""
    vecs = list(_level_sum_fill(_check_sum_space(n, k, i, k_min=1), k, i))
    return Dist._from_counts(list(_configurations(levels(n), vecs)),
                             list(map(_vector_coefficient, vecs)), nomial(n, k, i))


def _level_weights(n: int, k: int, kinds: int, i: int) -> tuple[range, list[int], int]:
    """The one level-sum reader: ``kinds`` = L of K particles sum to s in
    ``sums`` with weight C_N(K-L, i-s) over C_N(K, i).  Row K-L is cut at
    w = min(i, (N-1)K - i), read mirrored above half the top sum, at O(w)
    steps; the normalizer is ``nomial``'s."""
    _check_sum_space(n, k, i, k_min=1)
    top = (n - 1) * (k - kinds)
    lo, hi = max(0, i - top), min((n - 1) * kinds, i)
    row = _row(n, k - kinds, min(i, (n - 1) * k - i))
    total = nomial(n, k, i)
    if 2 * i > (n - 1) * k:  # C_N(K-L, i-s) = C_N(K-L, T'-i+s) with T' = (N-1)(K-L)
        return range(lo, hi + 1), row[top - i + lo:], total
    return range(lo, hi + 1), row[i - hi:i - lo + 1][::-1], total  # C_N(K-L, i-hi..i-lo)


def boltzmann_on_numbers(n: int, k: int, i: int) -> Dist:
    """Energy level j of a random particle, weighing C_N(K-1, i-j) / C_N(K, i):
    the level-sum reader ``_level_weights`` with one kind, levels ascending."""
    return Dist._from_counts(*_level_weights(n, k, 1, i))


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
    """Marginal of a sequence-supported distribution at one position 0..K-1."""
    k = min(map(len, omega.support))
    if not 0 <= pos < k:
        raise ValueError(f"position {pos} not in 0..{k - 1}")
    return image(omega, lambda v: v[pos])


def scaled_unnormalized(e: int, k: int) -> list[float]:
    """K times the energy-family weights, as decimals (occupation numbers)."""
    dist = boltzmann_on_energy(e, k)
    return [k * m / dist.denominator for _, m in dist.numerators()]
