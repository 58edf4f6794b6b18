"""Exact multisets over finite ground sets.

A multiset assigns a natural multiplicity to each label of a fixed,
ordered ground set.  It is stored as its dense count vector in ground
order, the one form that enumeration, arithmetic and the shift chain
all compute in.  Everything here is pure, immutable, and computed
with arbitrary-precision integers; no floating point enters this module.

Ket text form
-------------
Multisets print and parse as ``3|0> + 1|3>``: each term is a natural
multiplicity, a bar, the label, and a closing angle bracket, with terms
joined by `` + `` in ground-set order.  The empty multiset is ``0``.
Labels are either naturals (energy levels) or identifiers (colours).
Repeated labels add up and zero-multiplicity terms are dropped, so the
parser accepts any order.
"""

from __future__ import annotations

import math
import re
from collections.abc import Iterable, Iterator, Mapping, Sequence
from itertools import chain, repeat

Label = int | str

__all__ = [
    "GroundSet",
    "Multiset",
    "levels",
    "empty",
    "unit",
    "size",
    "coefficient",
    "som",
    "accumulate",
    "enumerate_multisets",
    "enumerate_multisets_with_sum",
    "reverse",
    "leq",
    "binom",
    "multichoose",
    "format_multiset",
    "parse_multiset",
]


def binom(n: int, i: int) -> int:
    """Number of size-``i`` subsets of an ``n``-element set: n!/((n-i)!*i!)."""
    if n < 0 or i < 0 or i > n:
        raise ValueError(f"binom({n}, {i}) is undefined")
    return math.comb(n, i)


def multichoose(m: int, j: int) -> int:
    """Number of size-``j`` multisets over an ``m``-element set: (m+j-1)!/((m-1)!*j!)."""
    if m < 1 or j < 0:
        raise ValueError(f"multichoose({m}, {j}) is undefined")
    return math.comb(m + j - 1, j)


class GroundSet:
    """An ordered, nonempty alphabet of distinct labels.

    The order is fixed at construction and is canonical for the lifetime
    of the set; enumeration order and printed output depend on it.
    """

    __slots__ = ("_labels", "_index")

    def __init__(self, labels: Iterable[Label]):
        labels = tuple(labels)
        if not labels:
            raise ValueError("ground set must be nonempty")
        index = {x: k for k, x in enumerate(labels)}
        if len(index) != len(labels):
            raise ValueError("ground set labels must be pairwise distinct")
        self._labels = labels
        self._index = index

    @property
    def labels(self) -> tuple[Label, ...]:
        return self._labels

    def index(self, label: Label) -> int:
        return self._index[label]

    def is_numeric(self) -> bool:
        """True when every label is a natural number."""
        return all(isinstance(x, int) for x in self._labels)

    def is_levels(self) -> bool:
        """True when the labels are exactly the levels 0, 1, ..., N-1."""
        return self._labels == tuple(range(len(self._labels)))

    def __len__(self) -> int:
        return len(self._labels)

    def __iter__(self) -> Iterator[Label]:
        return iter(self._labels)

    def __contains__(self, label: object) -> bool:
        return label in self._index

    def __eq__(self, other: object) -> bool:
        return isinstance(other, GroundSet) and self._labels == other._labels

    def __hash__(self) -> int:
        return hash(self._labels)

    def __repr__(self) -> str:
        return f"GroundSet({list(self._labels)!r})"


def levels(n: int) -> GroundSet:
    """The numeric ground set {0, 1, ..., n-1} of energy levels."""
    if n < 1:
        raise ValueError("need at least one level")
    return GroundSet(range(n))


class Multiset:
    """A finite map from ground-set labels to natural multiplicities,
    stored only as its dense count vector (a tuple in ground order), the
    form that enumeration, arithmetic and the shift chain compute in.
    Equality and hashing see the ground set and that vector.
    """

    __slots__ = ("_ground", "_vec", "_hash")

    def __init__(self, ground: GroundSet,
                 counts: Mapping[Label, int] | Iterable[tuple[Label, int]] = ()):
        if not isinstance(ground, GroundSet):
            raise TypeError("ground must be a GroundSet")
        items = counts.items() if isinstance(counts, Mapping) else counts
        vec = [0] * len(ground)
        for label, n in items:
            if label not in ground:
                raise ValueError(f"label {label!r} not in ground set")
            if not isinstance(n, int) or n < 0:
                raise ValueError(f"multiplicity of {label!r} must be a natural, got {n!r}")
            vec[ground.index(label)] += n
        self._ground = ground
        self._vec = tuple(vec)
        self._hash = hash((ground._labels, self._vec))  # == hash((ground, vec)), one call fewer

    @classmethod
    def _from_vector(cls, ground: GroundSet, vec: tuple[int, ...]) -> "Multiset":
        """Trusted constructor: ``vec`` is a tuple of naturals in ground order."""
        phi = object.__new__(cls)
        phi._ground, phi._vec, phi._hash = ground, vec, hash((ground._labels, vec))
        return phi

    @property
    def ground(self) -> GroundSet:
        return self._ground

    @property
    def size(self) -> int:
        """Total number of elements, multiplicities included."""
        return sum(self._vec)

    def support(self) -> tuple[Label, ...]:
        """Labels with nonzero multiplicity, in ground order."""
        return tuple(x for x, n in zip(self._ground.labels, self._vec) if n)

    def counts_vector(self) -> tuple[int, ...]:
        """Dense multiplicity vector following the ground-set order."""
        return self._vec

    def items(self) -> tuple[tuple[Label, int], ...]:
        return tuple((x, n) for x, n in zip(self._ground.labels, self._vec) if n)

    def __call__(self, label: Label) -> int:
        k = self._ground._index.get(label)
        return 0 if k is None else self._vec[k]

    def __bool__(self) -> bool:
        return any(self._vec)

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, Multiset)
                and self._vec == other._vec
                and self._ground == other._ground)

    def __hash__(self) -> int:
        return self._hash

    def __le__(self, other: "Multiset") -> bool:
        return leq(self, other)

    def __add__(self, other: "Multiset") -> "Multiset":
        self._require_common_ground(other)
        return Multiset._from_vector(
            self._ground, tuple(a + b for a, b in zip(self._vec, other._vec)))

    def __sub__(self, other: "Multiset") -> "Multiset":
        self._require_common_ground(other)
        diff = tuple(a - b for a, b in zip(self._vec, other._vec))
        if min(diff) < 0:
            raise ValueError("multiset subtraction would go negative")
        return Multiset._from_vector(self._ground, diff)

    def __mul__(self, k: int) -> "Multiset":
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            raise ValueError("cannot scale a multiset by a negative factor")
        return Multiset._from_vector(self._ground, tuple(k * n for n in self._vec))

    __rmul__ = __mul__

    def _require_common_ground(self, other: "Multiset") -> None:
        if not isinstance(other, Multiset) or self._ground != other._ground:
            raise ValueError("multisets must share a ground set")

    def __str__(self) -> str:
        return format_multiset(self)

    def __repr__(self) -> str:
        return f"<Multiset {format_multiset(self)}>"


def empty(ground: GroundSet) -> Multiset:
    return Multiset(ground)


def unit(ground: GroundSet, label: Label) -> Multiset:
    """The singleton multiset 1|label>."""
    return Multiset(ground, {label: 1})


def size(phi: Multiset) -> int:
    return phi.size


def coefficient(phi: Multiset) -> int:
    """Number of sequences accumulating to ``phi``: size! / prod(counts!),
    read from the count vector by ``_vector_coefficient``."""
    return _vector_coefficient(phi._vec)


def _vector_coefficient(vec: tuple[int, ...]) -> int:
    """size! / prod(counts!) of a count vector with one division; counts
    below 2 add no factor, so zeros appended to ``vec`` change nothing."""
    den = 1
    for n in vec:
        if n > 1:
            den *= math.factorial(n)
    return math.factorial(sum(vec)) // den


def som(phi: Multiset) -> int:
    """Multiplicity-weighted sum of the numeric labels (total energy)."""
    if not phi.ground.is_numeric():
        raise ValueError("som requires a numeric ground set")
    return sum(n * x for x, n in phi.items())


MAX_INFERRED_LEVELS = 1 << 20


def _inferred_ground(labels: Iterable[Label]) -> GroundSet:
    """Canonical ground for bare labels: levels 0..max for numerics,
    sorted label order otherwise.  Canonicalizing here keeps multisets
    equal regardless of the order their labels were first seen in.
    Every level up to max is a label of the ground, so a numeric label
    of ``MAX_INFERRED_LEVELS`` or more is refused before any is built."""
    distinct = set(labels)
    if not distinct:
        raise ValueError("cannot infer a ground set from no labels")
    if all(isinstance(x, int) for x in distinct):
        top = max(distinct)
        if top >= MAX_INFERRED_LEVELS:
            shown = top if top.bit_length() <= 64 else f"of {top.bit_length()} bits"
            raise ValueError(f"numeric labels infer the levels 0..max, at most "
                             f"{MAX_INFERRED_LEVELS} of them; label {shown} is past them")
        return levels(top + 1)
    if any(isinstance(x, int) for x in distinct):
        raise ValueError("cannot infer a ground set from mixed label types")
    return GroundSet(sorted(distinct))


def accumulate(seq: Sequence[Label], ground: GroundSet | None = None) -> Multiset:
    """Forget the order of a sequence, keeping only multiplicities.

    When no ground set is given a canonical one is inferred from the
    sequence; the empty sequence then has no ground to infer and is
    rejected.
    """
    if ground is None:
        ground = _inferred_ground(seq)
    return Multiset(ground, [(x, 1) for x in seq])


def reverse(phi: Multiset) -> Multiset:
    """Flip level j to level N-1-j; multiset coefficients are preserved."""
    if not phi.ground.is_levels():
        raise ValueError("reverse requires the ground set 0..N-1")
    return Multiset._from_vector(phi.ground, phi.counts_vector()[::-1])


def leq(phi: Multiset, psi: Multiset) -> bool:
    """Pointwise comparison of multiplicities over a common ground set."""
    phi._require_common_ground(psi)
    return all(a <= b for a, b in zip(phi.counts_vector(), psi.counts_vector()))


# ---------------------------------------------------------------------------
# Enumeration
#
# Canonical order is colexicographic on the dense multiplicity vector:
# two multisets compare at the last ground position where they differ.
# Equivalently, the reversed count vectors are in ascending lexicographic
# order.  The fills below step from each vector to its colex successor
# in place (Nijenhuis and Wilf, *Combinatorial Algorithms*, 1978, ch. 5):
# find the lowest position whose count can still grow, increment it, and
# refill every position below it with its smallest feasible count.  Each
# bound keeps the leftover feasible, so no step ever backtracks.
# ---------------------------------------------------------------------------


def _bounded_fill(caps: Sequence[int], k: int) -> Iterator[tuple[int, ...]]:
    """The count vectors of size ``k`` with vec[p] <= caps[p], colex order.

    Of the r particles left, position p takes at least r - tail_room[p],
    where tail_room[p] is the most the positions below it can hold, and
    position 0 takes the rest.  The successor grows the lowest position
    p >= 1 that is under its cap and has a particle below it.
    """
    m = len(caps)
    tail_room = [0] * (m + 1)
    for p in range(m):
        tail_room[p + 1] = tail_room[p] + caps[p]
    if k > tail_room[m] or min(caps) < 0:
        return
    vec = [0] * m
    p, r = m, k  # refill every position below p with the r particles left
    while True:
        for l in range(p - 1, 0, -1):
            c = r - tail_room[l]
            if c > 0:
                vec[l] = c
                r -= c
            else:
                vec[l] = 0
        vec[0] = r
        yield tuple(vec)
        p = 1
        while p < m and (not r or vec[p] == caps[p]):
            r += vec[p]
            p += 1
        if p == m:
            return
        vec[p] += 1
        r -= 1


def _level_sum_fill(n: int, k: int, i: int) -> Iterator[tuple[int, ...]]:
    """The count vectors over levels 0..n-1 with ``k`` particles and level
    sum ``i``, colex order; the space must be valid.  Its callers pass
    the N' reachable levels that ``_check_sum_space`` returns.

    With r particles of sum w left for levels 0..l, level l takes at
    least max(0, w - (l - 1) * r), the least that leaves a sum the levels
    below it can carry, and levels 1 and 0 take w and r - w.  The
    successor grows the lowest level j >= 2 with a sum of at least j
    below it, since one more particle at j takes j from that sum.
    """
    if n == 1:
        yield (k,)
        return
    vec = [0] * n
    j, r, w = n, k, i  # refill every level below j with r particles of sum w
    while True:
        for l in range(j - 1, 1, -1):
            c = w - (l - 1) * r
            if c > 0:
                vec[l] = c
                r -= c
                w -= l * c
            else:
                vec[l] = 0
        vec[1] = w
        vec[0] = r - w
        yield tuple(vec)
        j = 2
        while j < n and w < j:
            c = vec[j]
            r += c
            w += j * c
            j += 1
        if j == n:
            return
        vec[j] += 1
        r -= 1
        w -= j


def enumerate_multisets(ground: GroundSet, k: int,
                        caps: Mapping[Label, int] | None = None) -> Iterator[Multiset]:
    """All multisets of size ``k`` over ``ground``, in canonical colex order.

    With ``caps``, restricts each label x to at most caps[x] occurrences,
    which enumerates exactly the sub-multisets of size k of a given urn;
    each count vector is the colex successor of the one before under
    those caps.
    Yields multichoose(len(ground), k) multisets in the unrestricted case.
    A negative size raises at the call, not at the first element.
    """
    if k < 0:
        raise ValueError("size must be a natural")
    m = len(ground)
    cap_vec = [k] * m if caps is None else [min(k, caps.get(x, 0)) for x in ground]
    return (Multiset._from_vector(ground, vec) for vec in _bounded_fill(cap_vec, k))


def _check_sum_space(n: int, k: int, i: int, k_min: int = 0) -> int:
    """The one check of a level-sum space, the size-K multisets over the
    levels 0..N-1 with sum i: N >= 1, K >= ``k_min`` and 0 <= i <= (N-1)K.
    Counting, enumeration and the shift chain allow K = 0; the Boltzmann
    and urn families pass ``k_min`` = 1.  An empty space reads as the
    empty range [0, -1].

    It returns N' = min(N, i + 1), the levels a particle can reach: none
    sits above level i, so the space is the (N', K, i) space with each
    count vector padded by N - N' zeros, in the same colex order.  The
    level-sum routines work on N'-long vectors, and ``_padded`` takes
    them to N levels only where a ``Multiset`` over ``levels(N)`` is
    built or looked up."""
    empty = n < 1 or k < k_min
    top = -1 if empty else (n - 1) * k
    if not 0 <= i <= top:
        need = f" (needs N >= 1 and K >= {k_min})" if empty else ""
        raise ValueError(f"sum {i} out of range [0, {top}] for N={n}, K={k}{need}")
    return min(n, i + 1)


def _padded(n: int, vecs: Iterable[tuple[int, ...]]) -> Iterator[tuple[int, ...]]:
    """Count vectors over the N' levels ``_check_sum_space`` returns, at
    least one and all of one length, each over all N levels: its N - N'
    zeros appended, N' read from the first.  The one place a level-sum
    vector is padded; with N' = N each vector is returned as it is."""
    vecs = iter(vecs)
    first = next(vecs)
    vecs = chain((first,), vecs)
    return vecs if len(first) == n else map(tuple.__add__, vecs, repeat((0,) * (n - len(first))))


def _count_with_sum(n: int, k: int, i: int) -> int:
    """The number of multisets ``enumerate_multisets_with_sum`` yields,
    counted in O(min(N, w) w) additions without building any,
    w = min(i, T - i).

    It is the coefficient of q^i in the Gaussian binomial [N-1+K choose K]_q,
    the product over j = 1..N-1 of (1 - q^(K+j)) / (1 - q^j), whose
    coefficients are palindromic about T/2 with T = (N-1)K.  A factor
    with j > w changes no coefficient up to q^w, so the product stops
    at j = min(N - 1, w).
    """
    _check_sum_space(n, k, i)
    w = min(i, (n - 1) * k - i)
    a = [1] + [0] * w  # after step j: [K+j choose j]_q cut at w
    for j in range(1, min(n, w + 1)):
        for d in range(w, k + j - 1, -1):  # times 1 - q^(K+j)
            a[d] -= a[d - k - j]
        for d in range(j, w + 1):  # over 1 - q^j
            a[d] += a[d - j]
    return a[w]


def enumerate_multisets_with_sum(n: int, k: int, i: int) -> Iterator[Multiset]:
    """All multisets over levels 0..n-1 with size ``k`` and som ``i``.

    Each count vector is the colex successor of the one before, taken in
    place under the remaining-size and remaining-sum bounds, never by
    filtering the full size-k family.  Canonical colex order.  An invalid
    space raises at the call.  The fill runs on the N' levels a particle
    can reach, and ``_padded`` takes each vector to N levels only here.
    """
    reach, ground = _check_sum_space(n, k, i), levels(n)
    return (Multiset._from_vector(ground, vec)
            for vec in _padded(n, _level_sum_fill(reach, k, i)))


# ---------------------------------------------------------------------------
# Text form
# ---------------------------------------------------------------------------

_TERM_RE = re.compile(r"^(\d+)\s*\|\s*([A-Za-z_]\w*|\d+)\s*>$")


def _decimal(n: int) -> str:
    """The decimal text of an integer of any size: every text form writes its integers here.

    ``str`` refuses past the interpreter's digit limit (4,300 digits by
    default, set process-wide), so a longer number is split in halves by
    a power of ten; the limit itself is never read or changed.
    """
    try:
        return str(n)
    except ValueError:
        if n < 0:
            return "-" + _decimal(-n)
        k = n.bit_length() * 3 // 20  # about half the digits: log10(2) > 3/10
        high, low = divmod(n, 10 ** k)
        return _decimal(high) + _decimal(low).zfill(k)


def _integer(text: str) -> int:
    """The integer a decimal text writes, of any length: ket text reads its integers here.

    ``int`` refuses past the interpreter's digit limit, so a longer
    string of decimal digits, signed or not, is split in halves as
    ``_decimal`` splits numbers; any other text ``int`` refuses raises its
    error.  The limit itself is never read or changed.
    """
    try:
        return int(text)
    except ValueError:
        sign, digits = (text[0], text[1:]) if text[:1] in ("+", "-") else ("", text)
        if not digits.isdecimal():
            raise
        k = len(digits) // 2
        value = _integer(digits[:-k]) * 10 ** k + _integer(digits[-k:])
        return -value if sign == "-" else value


def format_multiset(phi: Multiset) -> str:
    if not phi:
        return "0"
    return " + ".join(f"{_decimal(n)}|{_decimal(x) if type(x) is int else x}>"
                      for x, n in phi.items())


def parse_multiset(text: str, ground: GroundSet | None = None) -> Multiset:
    """Parse the ket text form; see the module docstring for the grammar.

    Without an explicit ground set a canonical one is inferred: levels
    0..max for all-numeric labels, sorted label order otherwise.
    """
    stripped = text.strip()
    if stripped == "0":
        if ground is None:
            raise ValueError("the empty multiset needs an explicit ground set")
        return Multiset(ground)
    pairs: list[tuple[Label, int]] = []
    for part in stripped.split("+"):
        m = _TERM_RE.match(part.strip())
        if not m:
            raise ValueError(f"malformed multiset term {part.strip()!r}")
        count, label = m.groups()
        pairs.append((_integer(label) if label.isdigit() else label, _integer(count)))
    if ground is None:
        ground = _inferred_ground(x for x, _ in pairs)
    return Multiset(ground, pairs)
