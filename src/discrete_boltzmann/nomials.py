"""N-nomial coefficients by four independent routes.

C_N(K, i) counts the length-K sequences over {0, ..., N-1} whose entries
sum to i.  The binomial coefficients are the N=2 column of this family,
the trinomial and quadrinomial triangles the N=3 and N=4 columns.  The
four routes here (direct sequence enumeration, summing multiset
coefficients, the row recursion, and the multichoose closed form for
i < N) agree wherever their preconditions overlap; tests and the
verification sweep hold them against each other.

Row K of the triangle, the coefficients of (1 + x + ... + x^(N-1))^K,
comes from row K-1 by the sliding-window step ``_rows``.  The recursion
and ``NomialTable`` read that window directly; every other reader, the
callers in other modules included, asks ``_rows_at`` for the rows it
needs.  Cut at N or more, ``_rows_at`` reads all of them from one pass of
the window: the Vandermonde split its rows K1, K2 and K1+K2, the numbers
family (``boltzmann.boltzmann_on_numbers``) its weights row K-1 and its
normalizer row K.  Cut below N it returns the closed-form rows
multichoose(K, 0..width) instead, and the numbers family takes its
normalizer from ``multichoose``, which shares no code with the rows.

Every row is a palindrome: level reversal j -> N-1-j preserves multiset
coefficients (``multisets.reverse``), so C_N(K, i) = C_N(K, T - i) with
T = (N-1)K.  ``nomial``, ``vandermonde_check`` and
``boltzmann.boltzmann_on_numbers`` read a row cut at i from the shorter
side, at min(i, T - i), so their row step costs O(K*min(i, T - i)) and
the closed form covers the top N-1 sums as well as the bottom N.
``nomial_recursive`` keeps reading the window at i, which makes it an
independent oracle for the mirror.
"""

from __future__ import annotations

import itertools
from operator import sub
from collections.abc import Iterable, Iterator

from .multisets import (
    _check_sum_space,
    coefficient,
    enumerate_multisets_with_sum,
    multichoose,
)

__all__ = [
    "nomial",
    "nomial_enum_sequences",
    "nomial_via_multisets",
    "nomial_recursive",
    "nomial_closed_form",
    "nomial_prefix_sum",
    "polynomial_expand",
    "vandermonde_check",
    "NomialTable",
]

DEFAULT_BUDGET = 10_000_000


def nomial_enum_sequences(n: int, k: int, i: int, budget: int = DEFAULT_BUDGET) -> int:
    """Count sequences directly from the definition.

    Brute force over all N^K sequences; kept deliberately naive as the
    independent oracle for the other routes.  Refuses to enumerate more
    than ``budget`` sequences.
    """
    _check_sum_space(n, k, i)
    return sum(1 for _ in _sequences_with_sum(n, k, i, budget))


def _sequences_with_sum(n: int, k: int, i: int, budget: int) -> Iterator[tuple[int, ...]]:
    """The length-k sequences over 0..n-1 summing to i, found by brute
    force over all n**k; refuses before starting when that exceeds
    ``budget``."""
    if n ** k > budget:
        raise ValueError(f"enumeration of {n}**{k} sequences exceeds budget {budget}")
    return (v for v in itertools.product(range(n), repeat=k) if sum(v) == i)


def nomial_via_multisets(n: int, k: int, i: int) -> int:
    """Sum of multiset coefficients over the size-k, sum-i configurations."""
    _check_sum_space(n, k, i)
    return sum(coefficient(phi) for phi in enumerate_multisets_with_sum(n, k, i))


def nomial_recursive(n: int, k: int, i: int) -> int:
    """The collect recursion, read from row K of the sliding-window step.

    One sequence position at a time absorbs part of the remaining level
    total: collect(size, level) sums collect(size-1, level-j) over the
    admissible next entries j < min(level+1, N).  Rows are built in
    increasing size order (so no recursion depth limit applies) and cut
    at level i, so the whole evaluation costs O(K*i) additions.  It
    reads the window at every i, never ``_rows_at``'s closed form below N.
    """
    _check_sum_space(n, k, i)
    return next(itertools.islice(_rows(n, i), k, None))[i]


def nomial_closed_form(n: int, k: int, i: int) -> int:
    """For i < N the level bound never bites and C_N(K, i) = multichoose(K, i)."""
    _check_sum_space(n, k, i)
    if i >= n:
        raise ValueError(f"closed form needs i < N, got i={i}, N={n}")
    if k < 1:
        raise ValueError("closed form needs K >= 1")
    return multichoose(k, i)


def nomial(n: int, k: int, i: int) -> int:
    """C_N(K, i) via the cheapest applicable route.

    Reads the row from its shorter side: C_N(K, i) = C_N(K, T - i) with
    T = (N-1)K, so i is first replaced by min(i, T - i).  Then it
    dispatches to the multichoose closed form when that sum is below N
    (the bottom N and the top N-1 sums of the row), otherwise to the row
    recursion at O(K*min(i, T - i)) cost.  Never 0 for valid parameters.
    """
    _check_sum_space(n, k, i)
    i = min(i, (n - 1) * k - i)
    if k >= 1 and i < n:
        return multichoose(k, i)
    return nomial_recursive(n, k, i)


def nomial_prefix_sum(n: int, k: int, bound: int) -> int:
    """sum_{i < bound} C_N(K, i), which equals (bound/K) * multichoose(K, bound).

    Both sides are computed and compared; a mismatch signals an
    implementation bug and raises.  Requires K >= 1 and 0 <= bound <= N,
    where the right-hand side is independent of N.
    """
    if k < 1:
        raise ValueError("prefix sum needs K >= 1")
    if not 0 <= bound <= n:
        raise ValueError(f"prefix-sum bound {bound} not in [0, {n}]")
    lhs = sum(nomial(n, k, i) for i in range(bound))
    scaled = bound * multichoose(k, bound)
    if scaled % k:
        raise ArithmeticError(f"prefix-sum closed form not integral at N={n}, K={k}, n={bound}")
    rhs = scaled // k
    if lhs != rhs:
        raise ArithmeticError(
            f"prefix-sum identity violated at N={n}, K={k}, n={bound}: {lhs} != {rhs}")
    return lhs


def _rows(n: int, width: int) -> Iterator[list[int]]:
    """The rows C_N(K, 0..min(width, (N-1)K)) for K = 0, 1, ...

    Row K is a sliding window of N entries over row K-1: each entry adds
    the one entering the window and subtracts the one leaving it,
    C_N(K, i) = C_N(K, i-1) + C_N(K-1, i) - C_N(K-1, i-N), so each cell
    costs O(1).  ``_rows_at`` reads it at or above N and uses the
    closed-form rows below N.
    """
    row = [1]
    for k in itertools.count(1):
        yield row
        top = min(width, (n - 1) * k)
        padded = row + [0] * (top + 1 - len(row))  # row K-1, zero-filled to the new width
        row = list(itertools.accumulate(map(sub, padded, itertools.chain([0] * n, padded))))


def _rows_at(n: int, width: int, ks: Iterable[int]) -> dict[int, list[int]]:
    """Rows K in ``ks`` of ``_rows(n, width)``, each cut at ``width``, keyed by K.

    At or above N (width >= N) they all come from one pass of the
    window, which stops at the largest K asked for; below N they are the
    closed-form rows multichoose(K, 0..min(width, (N-1)K)), one running
    product each.
    """
    wanted = set(ks)
    if width >= n:
        return {k: row for k, row in zip(range(max(wanted) + 1), _rows(n, width)) if k in wanted}
    rows = {}
    for k in wanted:
        row = rows[k] = [1]
        for t in range(min(width, (n - 1) * k)):
            row.append(row[-1] * (k + t) // (t + 1))
    return rows


def polynomial_expand(n: int, k: int) -> list[int]:
    """Exact integer coefficients of (1 + x + ... + x^(N-1))^K.

    The coefficient of x^i is C_N(K, i); this is the generating-function
    route, read as the full row K of the shared sliding-window step.
    """
    _check_sum_space(n, k, 0)
    return _rows_at(n, (n - 1) * k, (k,))[k]


def vandermonde_check(n: int, k1: int, k2: int, i: int) -> bool:
    """Does C_N(K1+K2, i) split as the convolution over i1 + i2 = i?

    The rows K1, K2 and K1+K2 are cut at min(i, T - i) with
    T = (N-1)(K1+K2) and read from one pass of the row step, at
    O((K1+K2)*min(i, T - i)) cost (below N, from the closed form).  So
    the check holds the window's row K1+K2 against the convolution of
    its own earlier rows.  Reflecting every level maps the split at i
    term by term onto the split at T - i (i1 -> (N-1)K1 - i1), so both
    cuts check the same sum.
    """
    if k1 < 0 or k2 < 0:
        raise ValueError("lengths must be naturals")
    _check_sum_space(n, k1 + k2, i)
    i = min(i, (n - 1) * (k1 + k2) - i)
    rows = _rows_at(n, i, (k1, k2, k1 + k2))
    lo = max(0, i - (n - 1) * k2)
    hi = min((n - 1) * k1, i)
    split = sum(rows[k1][i1] * rows[k2][i - i1] for i1 in range(lo, hi + 1))
    return rows[k1 + k2][i] == split


class NomialTable:
    """Cached rows C_N(K, 0..(N-1)K) for K = 0..K_max.

    Row K has (N-1)*K + 1 entries, is palindromic, and sums to N^K;
    rows are built once by the shared row step and read-only afterwards.
    """

    def __init__(self, n: int, k_max: int):
        _check_sum_space(n, k_max, 0)
        self._n = n
        self._k_max = k_max
        self._rows = list(itertools.islice(_rows(n, (n - 1) * k_max), k_max + 1))

    @property
    def n(self) -> int:
        return self._n

    @property
    def k_max(self) -> int:
        return self._k_max

    @property
    def rows(self) -> list[list[int]]:
        return [list(r) for r in self._rows]

    def row(self, k: int) -> list[int]:
        if not 0 <= k <= self._k_max:
            raise ValueError(f"row {k} not in table (K_max={self._k_max})")
        return list(self._rows[k])

    def value(self, k: int, i: int) -> int:
        row = self._rows[k] if 0 <= k <= self._k_max else None
        if row is None or not 0 <= i < len(row):
            raise ValueError(f"C({k}, {i}) not in table")
        return row[i]
