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
from typing import Iterable, Iterator, Mapping, Sequence, Union

Label = Union[int, str]

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
                 counts: Union[Mapping[Label, int], Iterable[tuple[Label, int]]] = ()):
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
        self._hash = hash((ground, self._vec))

    @classmethod
    def _from_vector(cls, ground: GroundSet, vec: tuple[int, ...]) -> "Multiset":
        """Trusted constructor: ``vec`` is a tuple of naturals in ground order."""
        phi = object.__new__(cls)
        phi._ground, phi._vec, phi._hash = ground, vec, hash((ground, vec))
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
    """Number of sequences accumulating to ``phi``: size! / prod(counts!)."""
    out = math.factorial(phi.size)
    for _, n in phi.items():
        out //= math.factorial(n)
    return out


def som(phi: Multiset) -> int:
    """Multiplicity-weighted sum of the numeric labels (total energy)."""
    if not phi.ground.is_numeric():
        raise ValueError("som requires a numeric ground set")
    return sum(n * x for x, n in phi.items())


def _inferred_ground(labels: Iterable[Label]) -> GroundSet:
    """Canonical ground for bare labels: levels 0..max for numerics,
    sorted label order otherwise.  Canonicalizing here keeps multisets
    equal regardless of the order their labels were first seen in."""
    distinct = set(labels)
    if not distinct:
        raise ValueError("cannot infer a ground set from no labels")
    if all(isinstance(x, int) for x in distinct):
        return levels(max(distinct) + 1)
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
# order.  The recursive generators below emit exactly that order by
# choosing the count of the last ground position in the outermost loop.
# ---------------------------------------------------------------------------


# The recursive fills are module-level functions, not closures: a nested
# generator that calls itself sits in a reference cycle, which only the
# cyclic garbage collector frees.

def _bounded_fill(vec: list[int], caps: Sequence[int], tail_room: list[int],
                  pos: int, remaining: int) -> Iterator[tuple[int, ...]]:
    """Fill vec[0..pos] with ``remaining`` under ``caps``, colex order."""
    if pos == 0:
        if remaining <= caps[0]:
            vec[0] = remaining
            yield tuple(vec)
        return
    lo = max(0, remaining - tail_room[pos])
    hi = min(caps[pos], remaining)
    for c in range(lo, hi + 1):
        vec[pos] = c
        yield from _bounded_fill(vec, caps, tail_room, pos - 1, remaining - c)


def _level_sum_fill(vec: list[int], j: int, remaining: int, weight: int) -> Iterator[tuple[int, ...]]:
    """Fill vec[0..j] with ``remaining`` particles of level sum ``weight``, colex order.

    Prunes on both remaining size and remaining sum: after fixing counts
    at levels above j, a count c at level j is feasible iff the leftover
    sum fits in the leftover slots at levels below j.
    """
    if j == 0:
        if weight == 0:
            vec[0] = remaining
            yield tuple(vec)
        return
    # leftover weight after taking c at level j must satisfy
    # 0 <= weight - c*j <= (j-1)*(remaining - c)
    lo = max(0, weight - (j - 1) * remaining)
    hi = min(remaining, weight // j)
    for c in range(lo, hi + 1):
        vec[j] = c
        yield from _level_sum_fill(vec, j - 1, remaining - c, weight - c * j)


def enumerate_multisets(ground: GroundSet, k: int,
                        caps: Mapping[Label, int] | None = None) -> Iterator[Multiset]:
    """All multisets of size ``k`` over ``ground``, in canonical colex order.

    With ``caps``, restricts each label x to at most caps[x] occurrences,
    which enumerates exactly the sub-multisets of size k of a given urn.
    Yields multichoose(len(ground), k) multisets in the unrestricted case.
    A negative size raises at the call, not at the first element.
    """
    if k < 0:
        raise ValueError("size must be a natural")
    m = len(ground)
    cap_vec = [k] * m if caps is None else [min(k, caps.get(x, 0)) for x in ground]
    # tail_room[p] = cap_vec[0] + ... + cap_vec[p-1], the most the positions below p can hold
    tail_room = [0] * (m + 1)
    for p in range(m):
        tail_room[p + 1] = tail_room[p] + cap_vec[p]
    return (Multiset._from_vector(ground, vec)
            for vec in _bounded_fill([0] * m, cap_vec, tail_room, m - 1, k))


def _check_sum_space(n: int, k: int, i: int, k_min: int = 0) -> None:
    """The one check of a level-sum space, the size-K multisets over the
    levels 0..N-1 with sum i: N >= 1, K >= ``k_min`` and 0 <= i <= (N-1)K.
    Counting, enumeration and the shift chain allow K = 0; the Boltzmann
    and urn families pass ``k_min`` = 1.  An empty space reads as the
    empty range [0, -1]."""
    empty = n < 1 or k < k_min
    top = -1 if empty else (n - 1) * k
    if not 0 <= i <= top:
        need = f" (needs N >= 1 and K >= {k_min})" if empty else ""
        raise ValueError(f"sum {i} out of range [0, {top}] for N={n}, K={k}{need}")


def _count_with_sum(n: int, k: int, i: int) -> int:
    """The number of multisets ``enumerate_multisets_with_sum`` yields,
    counted level by level in O(N K i) additions without building any."""
    _check_sum_space(n, k, i)
    # ways[r][w]: count vectors over the levels so far with r particles and
    # level sum w; level 0 alone holds every particle at sum 0
    ways = [[1] + [0] * i for _ in range(k + 1)]
    for j in range(1, min(n - 1, i) + 1):
        for r in range(1, k + 1):
            row = ways[r]
            ways[r] = row[:j] + [a + b for a, b in zip(row[j:], ways[r - 1])]
    return ways[k][i]


def enumerate_multisets_with_sum(n: int, k: int, i: int) -> Iterator[Multiset]:
    """All multisets over levels 0..n-1 with size ``k`` and som ``i``.

    Generated by bounded composition with remaining-size and
    remaining-sum pruning, never by filtering the full size-k family.
    Canonical colex order.  An invalid space raises at the call.
    """
    _check_sum_space(n, k, i)
    ground = levels(n)
    return (Multiset._from_vector(ground, vec) for vec in _level_sum_fill([0] * n, n - 1, k, i))


# ---------------------------------------------------------------------------
# Text form
# ---------------------------------------------------------------------------

_TERM_RE = re.compile(r"^(\d+)\s*\|\s*([A-Za-z_]\w*|\d+)\s*>$")


def format_multiset(phi: Multiset) -> str:
    if not phi:
        return "0"
    return " + ".join(f"{n}|{x}>" for x, n in phi.items())


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
        pairs.append((int(label) if label.isdigit() else label, int(count)))
    if ground is None:
        ground = _inferred_ground(x for x, _ in pairs)
    return Multiset(ground, pairs)
