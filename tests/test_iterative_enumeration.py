"""Iterative colex enumeration and the shift chain compiled on integer keys.

The level-sum and urn enumerators step each count vector to its colex
successor in place, and ``_ShiftChain`` moves integer keys instead of
building neighbouring count vectors.  The references here are test-local
copies of what they replaced: the recursive fills, the tuple compile of
the drop and climb factors, and ``coefficient`` read from the items.
Detailed balance of every small transition matrix against the Boltzmann
law on multisets is a second certificate of the compiled rows, one that
does not pass through ``push``; detailed balance of every small level
chain against the Boltzmann law on numbers certifies its rows the same
way.
"""

import itertools
import math

from discrete_boltzmann import (
    GroundSet,
    boltzmann_on_multisets,
    boltzmann_on_numbers,
    coefficient,
    enumerate_multisets,
    enumerate_multisets_with_sum,
    shift_on_numbers,
    transition_matrix,
)
from discrete_boltzmann.markov import _ShiftChain


def _recursive_level_sum_fill(vec, j, remaining, weight):
    """The recursive level-sum fill the successor replaced."""
    if j == 0:
        if weight == 0:
            vec[0] = remaining
            yield tuple(vec)
        return
    lo = max(0, weight - (j - 1) * remaining)
    hi = min(remaining, weight // j)
    for c in range(lo, hi + 1):
        vec[j] = c
        yield from _recursive_level_sum_fill(vec, j - 1, remaining - c, weight - c * j)


def _recursive_bounded_fill(vec, caps, tail_room, pos, remaining):
    """The recursive capped fill the successor replaced."""
    if pos == 0:
        if remaining <= caps[0]:
            vec[0] = remaining
            yield tuple(vec)
        return
    lo = max(0, remaining - tail_room[pos])
    hi = min(caps[pos], remaining)
    for c in range(lo, hi + 1):
        vec[pos] = c
        yield from _recursive_bounded_fill(vec, caps, tail_room, pos - 1, remaining - c)


def _recursive_urn(ground, k, caps):
    m = len(ground)
    cap_vec = [k] * m if caps is None else [min(k, caps.get(x, 0)) for x in ground]
    tail_room = [0] * (m + 1)
    for p in range(m):
        tail_room[p + 1] = tail_room[p] + cap_vec[p]
    return list(_recursive_bounded_fill([0] * m, cap_vec, tail_room, m - 1, k))


def _tuple_drop(vec):
    moves = []
    for d in range(1, len(vec)):
        if vec[d]:
            moves.append((vec[:d - 1] + (vec[d - 1] + 1, vec[d] - 1) + vec[d + 1:], vec[d]))
    return moves


def _tuple_climb(inter):
    targets, nums = [], []
    for u in range(len(inter) - 1):
        if inter[u]:
            targets.append(inter[:u] + (inter[u] - 1, inter[u + 1] + 1) + inter[u + 2:])
            nums.append(inter[u])
    return targets, nums, sum(nums)


def _tuple_compile(vecs):
    """The factors as compiled before integer keys: every intermediate and
    target built as a tuple and looked up by its count vector."""
    index = {v: j for j, v in enumerate(vecs)}
    inters = {}
    drops = [[(inters.setdefault(inter, len(inters)), w) for inter, w in _tuple_drop(v)]
             for v in vecs]
    climbs = [([index[t] for t in targets], nums, c) for targets, nums, c in map(_tuple_climb, inters)]
    return index, [v[0] for v in vecs], drops, climbs


def _items_coefficient(phi):
    return math.factorial(phi.size) // math.prod(math.factorial(n) for _, n in phi.items())


def spaces(max_levels, max_size, min_size=0):
    for n in range(1, max_levels + 1):
        for k in range(min_size, max_size + 1):
            for i in range((n - 1) * k + 1):
                yield n, k, i


URN_LABELS = ("a", "b", "c", "d")


def urns():
    """Every cap vector in -1..3 over one to four labels, with sizes 0 to 5
    (caps of 3 lie above the small sizes), the unrestricted family and
    labels left out of the caps (cap 0)."""
    for m in range(1, len(URN_LABELS) + 1):
        ground = GroundSet(URN_LABELS[:m])
        for k in range(6):
            yield ground, k, None
            yield ground, k, {URN_LABELS[0]: k}
            for caps in itertools.product(range(-1, 4), repeat=m):
                yield ground, k, dict(zip(URN_LABELS, caps))


class TestLevelSumSuccessor:
    def test_recursive_order_up_to_eight_levels_and_particles(self):
        total = 0
        for n, k, i in spaces(8, 8):
            vecs = [phi.counts_vector() for phi in enumerate_multisets_with_sum(n, k, i)]
            assert vecs == list(_recursive_level_sum_fill([0] * n, n - 1, k, i)), (n, k, i)
            total += len(vecs)
        assert total == 24_309


class TestBoundedSuccessor:
    def test_recursive_order_on_capped_urns(self):
        checked = 0
        for ground, k, caps in urns():
            vecs = [phi.counts_vector() for phi in enumerate_multisets(ground, k, caps=caps)]
            assert vecs == _recursive_urn(ground, k, caps), (ground, k, caps)
            checked += bool(vecs)
        assert checked > 1000

    def test_edge_urns(self):
        one = GroundSet(["x"])
        assert [phi.counts_vector() for phi in enumerate_multisets(one, 3)] == [(3,)]
        assert list(enumerate_multisets(one, 3, caps={"x": 2})) == []
        pair = GroundSet(["x", "y"])
        assert [phi.counts_vector() for phi in enumerate_multisets(pair, 0, caps={})] == [(0, 0)]
        assert [phi.counts_vector() for phi in enumerate_multisets(pair, 2, caps={"y": 9})] == [(0, 2)]
        assert list(enumerate_multisets(pair, 1, caps={"x": -1, "y": 1})) == []


class TestKeyedCompile:
    def test_factors_match_the_tuple_compile(self):
        for n, k, i in spaces(7, 8):
            chain = _ShiftChain(n, k, i)
            index, stay, drops, climbs = _tuple_compile([phi.counts_vector() for phi in chain.states])
            assert chain.index == index, (n, k, i)
            assert chain.stay == stay, (n, k, i)
            assert chain.drops == drops, (n, k, i)
            assert chain.climbs == climbs, (n, k, i)


class TestDetailedBalance:
    def test_every_matrix_up_to_six_levels_and_particles(self):
        pairs = 0
        for n, k, i in spaces(6, 6, min_size=1):
            pi = boltzmann_on_multisets(n, k, i)
            states, rows = transition_matrix(n, k, i)
            weights = [pi(phi) for phi in states]
            for j, l in itertools.combinations(range(len(states)), 2):
                assert weights[j] * rows[j][l] == weights[l] * rows[l][j], (n, k, i, j, l)
                pairs += bool(rows[j][l])
        assert pairs > 1000

    def test_every_level_chain_up_to_six_levels_and_particles(self):
        pairs = 0
        for n, k, i in spaces(6, 6, min_size=1):
            rho = boltzmann_on_numbers(n, k, i)
            chain = shift_on_numbers(n, k, i)
            for a, b in itertools.combinations(rho.support, 2):
                flow = rho(a) * chain(a)(b)
                assert flow == rho(b) * chain(b)(a), (n, k, i, a, b)
                pairs += bool(flow)
        assert pairs > 1000


class TestVectorCoefficient:
    def test_level_sum_spaces(self):
        for n, k, i in spaces(6, 6):
            for phi in enumerate_multisets_with_sum(n, k, i):
                assert coefficient(phi) == _items_coefficient(phi), phi

    def test_urns(self):
        for ground, k, caps in urns():
            for phi in enumerate_multisets(ground, k, caps=caps):
                assert coefficient(phi) == _items_coefficient(phi), phi
