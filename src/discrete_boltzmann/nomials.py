"""N-nomial coefficients by four independent routes.

C_N(K, i) counts the length-K sequences over {0, ..., N-1} whose entries
sum to i.  The binomial coefficients are the N=2 column of this family,
the trinomial and quadrinomial triangles the N=3 and N=4 columns.  The
four routes here (direct sequence enumeration, summing multiset
coefficients, the row recursion, and the multichoose closed form for
i < N) agree wherever their preconditions overlap; tests and the
verification sweep hold them against each other.

Row K of the triangle holds the coefficients of (1 + x + ... + x^(N-1))^K.
Two row steps, which share no code, build it.  The sliding window
``_rows`` makes row K from row K-1 at O(1) per cell, for ``NomialTable``
and the recursion oracle.  ``_rows_at`` runs the D-finite recurrence of
each row it is asked for on its own, at O(1) big-integer steps per entry;
every other reader asks it for its rows, so rows read together (the
numbers family's K-1 and K, the Vandermonde split's K1, K2 and K1+K2)
are independent runs.

Every row is a palindrome: level reversal j -> N-1-j preserves multiset
coefficients (``multisets.reverse``), so C_N(K, i) = C_N(K, T - i) with
T = (N-1)K.  ``nomial``, ``vandermonde_check`` and
``boltzmann.boltzmann_on_numbers`` read a row cut at i from the shorter
side, at w = min(i, T - i).  So ``nomial``'s closed form covers the top
N-1 sums as well as the bottom N, and its window costs O(K*w) cells
otherwise; the other two run the recurrence at O(w) steps per row.
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
    ``budget``.  The power is cut at one past the budget's bit length,
    where for n >= 2 it already exceeds the budget, so a refusal never
    computes a huge n**k."""
    if n ** min(k, budget.bit_length() + 1) > budget:
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
    reads the window at every i, never ``_rows_at``'s recurrence.
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
    costs O(1).  Only ``NomialTable``, which needs every row, and the
    oracle ``nomial_recursive`` read it.
    """
    row = [1]
    for k in itertools.count(1):
        yield row
        top = min(width, (n - 1) * k)
        padded = row + [0] * (top + 1 - len(row))  # row K-1, zero-filled to the new width
        row = list(itertools.accumulate(map(sub, padded, itertools.chain([0] * n, padded))))


def _rows_at(n: int, width: int, ks: Iterable[int]) -> dict[int, list[int]]:
    """Rows C_N(K, 0..min(width, (N-1)K)) for each K in ``ks``, keyed by K.

    Each row is its own run of the D-finite recurrence of ((1 - x^N)/(1 - x))^K,

        (m+1) a[m+1] = (m+K) a[m] + (m+1-N-KN) a[m+1-N] + (K(N-1)-m+N) a[m-N],

    with a[0] = 1, a[j < 0] = 0 and an exact division: three
    big-integer-by-small products per entry, whatever K is.  Below N the
    last two terms vanish, so those N-1 steps run as a plain product.
    """
    rows = {}
    for k in set(ks):
        top = min(width, (n - 1) * k)
        a = [0, 1]  # a[j + 1] = C_N(K, j); the leading 0 is C_N(K, -1)
        for m in range(min(top, n - 1)):
            a.append(a[-1] * (m + k) // (m + 1))
        for m in range(n - 1, top):
            a.append(((m + k) * a[m + 1] + (m + 1 - n - k * n) * a[m + 2 - n]
                      + (k * (n - 1) - m + n) * a[m + 1 - n]) // (m + 1))
        rows[k] = a[1:]
    return rows


def polynomial_expand(n: int, k: int) -> list[int]:
    """Exact integer coefficients of (1 + x + ... + x^(N-1))^K.

    The coefficient of x^i is C_N(K, i); this is the generating-function
    route, the full row K from one run of ``_rows_at``'s recurrence.
    """
    _check_sum_space(n, k, 0)
    return _rows_at(n, (n - 1) * k, (k,))[k]


def vandermonde_check(n: int, k1: int, k2: int, i: int) -> bool:
    """Does C_N(K1+K2, i) split as the convolution over i1 + i2 = i?

    The rows K1, K2 and K1+K2 are cut at min(i, T - i) with
    T = (N-1)(K1+K2), each from its own run of ``_rows_at``'s recurrence
    at O(min(i, T - i)) steps, so the check holds one run against the
    convolution of two others.  Reflecting every level maps the split at i
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
