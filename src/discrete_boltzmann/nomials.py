"""N-nomial coefficients by four independent routes.

C_N(K, i) counts the length-K sequences over {0, ..., N-1} whose entries
sum to i.  The binomial coefficients are the N=2 column of this family,
the trinomial and quadrinomial triangles the N=3 and N=4 columns.  The
routes here (direct sequence enumeration, summing multiset coefficients,
the row recursion, the multichoose closed form for i < N, and
``nomial``'s inclusion-exclusion sum) agree wherever their
preconditions overlap; tests and the verification sweep hold them
against each other.

Row K of the triangle holds the coefficients of (1 + x + ... + x^(N-1))^K.
Two row steps, which share no code, build it.  The sliding window
``_rows`` makes row K from row K-1 at O(1) per cell, for the whole
triangle (``NomialTable.rows``), the recursion oracle and the level
chain ``markov.shift_on_numbers``, which reads its first rows together.
``_row(n, k, width)`` runs the D-finite recurrence of one row, at O(1)
big-integer steps per entry and with no earlier row, only to the row's
middle floor(T/2): the entries past it are the first half mirrored (the
palindrome below).  Every other reader of a row, ``NomialTable.row``
included, calls it once per row it reads, so rows read together (the
level-sum law's K-L, the Vandermonde split's K1 and K2, an urn's
per-label rows) are independent runs.

A single value reads no row.  Every row is a palindrome: level reversal
j -> N-1-j preserves multiset coefficients (``multisets.reverse``), so
C_N(K, i) = C_N(K, T - i) with T = (N-1)K.  ``nomial`` reads one value at
w = min(i, T - i) from the inclusion-exclusion sum

    C_N(K, w) = sum_j (-1)^j C(K, j) C(w - jN + K - 1, K - 1),  j <= w // N,

stepping each term from the one before by one exact ratio, so a value
costs w // N + 1 steps; below N the sum is its first term, the
multichoose closed form.  Every other reader of one value calls it.
``nomial_recursive`` reads the window at i, an independent oracle for
both the sum and the mirror.
"""

from __future__ import annotations

import itertools
from math import comb, perm
from operator import sub
from collections.abc import Iterator

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
    reads the window at every i, never ``_row``'s recurrence.
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
    """C_N(K, i) from the inclusion-exclusion sum, read on the row's shorter side.

    With T = (N-1)K and w = min(i, T - i), C_N(K, i) = C_N(K, w) is

        sum_{j <= w // N} (-1)^j C(K, j) C(m_j, K - 1),  m_j = w - jN + K - 1,

    where w <= T/2 keeps w // N below K, so C(K, j) never runs out.  The
    first term is one ``math.comb``; each later term is the one before
    times the exact ratio (K - j)/(j + 1) * C(m_j - N, K - 1)/C(m_j, K - 1),
    whose binomial part cancels to two falling products of
    r = min(N, K - 1) factors each,
    perm(m_j - max(N, K - 1), r) / perm(m_j, r).  A value costs w // N + 1
    steps and reads no row; below N it is the first term,
    multichoose(K, w).  K = 0 is the empty sequence's 1.  Never 0 for
    valid parameters.
    """
    _check_sum_space(n, k, i)
    if k == 0:
        return 1
    w = min(i, (n - 1) * k - i)
    m, r, cut = w + k - 1, min(n, k - 1), max(n, k - 1)
    term = total = comb(m, k - 1)
    for j in range(w // n):
        term = term * (k - j) * perm(m - cut, r) // ((j + 1) * perm(m, r))
        total += term if j % 2 else -term
        m -= n
    return total


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
    costs O(1).  Only ``NomialTable.rows``, which needs every row, the
    oracle ``nomial_recursive`` and the level chain
    ``markov.shift_on_numbers``, which needs the first K or fewer
    (N-1)-nomial rows cut at its sum, read it.  It computes every entry
    and mirrors none, so it is the full-row reference that the tests and
    the self-check's palindrome law read.
    """
    row = [1]
    for k in itertools.count(1):
        yield row
        top = min(width, (n - 1) * k)
        padded = row + [0] * (top + 1 - len(row))  # row K-1, zero-filled to the new width
        row = list(itertools.accumulate(map(sub, padded, itertools.chain([0] * n, padded))))


def _row(n: int, k: int, width: int) -> list[int]:
    """Row K of the triangle cut at ``width``: C_N(K, 0..min(width, (N-1)K)).

    One run of the D-finite recurrence of ((1 - x^N)/(1 - x))^K,

        (m+1) a[m+1] = (m+K) a[m] + (m+1-N-KN) a[m+1-N] + (K(N-1)-m+N) a[m-N],

    with a[0] = 1, a[j < 0] = 0 and an exact division: three
    big-integer-by-small products per entry, whatever K is.  Below N the
    last two terms vanish, so those N-1 steps run as a plain product.
    The recurrence runs only to half = min(width, floor(T/2)) with
    T = (N-1)K; entries past it are the palindrome's mirror,
    C_N(K, i) = C_N(K, T - i), copied from the first half.
    """
    full = (n - 1) * k
    top = min(width, full)
    half = min(top, full // 2)
    a = [0, 1]  # a[j + 1] = C_N(K, j); the leading 0 is C_N(K, -1)
    for m in range(min(half, n - 1)):
        a.append(a[-1] * (m + k) // (m + 1))
    for m in range(n - 1, half):
        a.append(((m + k) * a[m + 1] + (m + 1 - n - k * n) * a[m + 2 - n]
                  + (k * (n - 1) - m + n) * a[m + 1 - n]) // (m + 1))
    row = a[1:]
    if top > half:  # C_N(K, half+1..top) = C_N(K, T-half-1..T-top)
        row += row[full - top:full - half][::-1]
    return row


def polynomial_expand(n: int, k: int) -> list[int]:
    """Exact integer coefficients of (1 + x + ... + x^(N-1))^K.

    The coefficient of x^i is C_N(K, i); this is the generating-function
    route, the full row K from one run of ``_row``'s recurrence to the
    middle (N-1)K // 2, the rest mirrored.
    """
    _check_sum_space(n, k, 0)
    return _row(n, k, (n - 1) * k)


def vandermonde_check(n: int, k1: int, k2: int, i: int) -> bool:
    """Does C_N(K1+K2, i) split as the convolution over i1 + i2 = i?

    The rows K1 and K2 are cut at min(i, T - i) with T = (N-1)(K1+K2),
    each from its own run of ``_row``'s recurrence, which stops at that
    cut or at the row's own middle, whichever comes first, and mirrors
    the rest; the left side is ``nomial``'s value, so the convolution
    is held against the inclusion-exclusion sum, which reads no row.
    Reflecting every level maps the split at i term by term onto the
    split at T - i (i1 -> (N-1)K1 - i1), so both cuts check the same sum.
    """
    if k1 < 0 or k2 < 0:
        raise ValueError("lengths must be naturals")
    _check_sum_space(n, k1 + k2, i)
    i = min(i, (n - 1) * (k1 + k2) - i)
    row1, row2 = _row(n, k1, i), _row(n, k2, i)
    lo = max(0, i - (n - 1) * k2)
    hi = min((n - 1) * k1, i)
    split = sum(row1[i1] * row2[i - i1] for i1 in range(lo, hi + 1))
    return nomial(n, k1 + k2, i) == split


class NomialTable:
    """Checked access to rows C_N(K, 0..(N-1)K) for K = 0..K_max.

    Row K has (N-1)*K + 1 entries, is palindromic, and sums to N^K.  The
    table stores only N and K_max: ``row`` runs ``_row``'s recurrence
    once, to the middle of the row, and mirrors the rest, ``value`` calls
    ``nomial``, and ``rows`` makes one pass of the window, which builds
    each row, every entry computed, from the one before.
    """

    def __init__(self, n: int, k_max: int):
        _check_sum_space(n, k_max, 0)
        self._n = n
        self._k_max = k_max

    @property
    def n(self) -> int:
        return self._n

    @property
    def k_max(self) -> int:
        return self._k_max

    @property
    def rows(self) -> list[list[int]]:
        return list(self._each_row())

    def _each_row(self) -> Iterator[list[int]]:
        """Rows K = 0..K_max from one window pass, each made as it is read."""
        return itertools.islice(_rows(self._n, (self._n - 1) * self._k_max), self._k_max + 1)

    def row(self, k: int) -> list[int]:
        if not 0 <= k <= self._k_max:
            raise ValueError(f"row {k} not in table (K_max={self._k_max})")
        return _row(self._n, k, (self._n - 1) * k)

    def value(self, k: int, i: int) -> int:
        if not (0 <= k <= self._k_max and 0 <= i <= (self._n - 1) * k):
            raise ValueError(f"C({k}, {i}) not in table")
        return nomial(self._n, k, i)
