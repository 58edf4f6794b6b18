"""The sum-preserving shift chain on particle configurations.

One step of the chain moves a random particle one level down and then a
random particle one level up, so both the particle count and the total
energy are conserved.  The Boltzmann family on multisets is a fixed
point of this kernel; pulling the kernel through frequentist learning
and its Bayesian inversion gives a chain on levels with the Boltzmann
family on numbers as fixed point.  All equilibrium checks here are
exact rational computations, never tolerance-based.

The kernel is the composite of two channels, P = (phi(0)/K) I + D C: the
drop D moves a particle from level d >= 1 to d - 1 with weight phi(d)/K,
and the climb C moves a particle of the intermediate psi from level
u < N - 1 to u + 1 with weight psi(u)/(K - psi(N-1)).  ``_drop`` and
``_climb`` compute those halves on count vectors and own the move rule;
each gives O(N) entries per row, where a merged row has O(N^2).
``shift`` and the sampler assemble merged rows from them.

``shift_channel`` compiles one (N, K, i) space once into the two factors
and is a ``Channel`` in its own right.  Iteration pushes an integer
vector over one denominator through the drop and the climb in turn; the
stationarity residual is one step of it, each row of the level chain is
one push of that level's flrn-dagger prior, and the matrix export
assembles merged rows from the factors.  ``_priors`` owns that prior,
coefficient(phi) * phi(j) by state, for ``flrn_dagger`` and the level
chain alike.
"""

from __future__ import annotations

import math
import operator
import random
from fractions import Fraction
from typing import Iterable, Iterator

from .distributions import Channel, Dist, pushforward, total_variation
from .multisets import Multiset, _count_with_sum, coefficient, enumerate_multisets_with_sum

__all__ = [
    "shift",
    "shift_channel",
    "stationarity_residual",
    "flrn_dagger",
    "shift_on_numbers",
    "iterate_chain",
    "transition_matrix",
    "sample_trajectory",
]

MAX_MATRIX_STATES = 10_000

# A row holds lists, not tuples: freed tuples of many lengths stay in the
# interpreter's per-length free lists and raise the peak resident memory.
_Row = tuple[list, list[int], int]


def _drop(vec: tuple[int, ...]) -> list[tuple[tuple[int, ...], int]]:
    """The drop half: per level d >= 1 held, in order, the intermediate
    with one particle moved to d - 1 and the numerator vec[d] over K."""
    moves = []
    for d in range(1, len(vec)):
        if vec[d]:
            moves.append((vec[:d - 1] + (vec[d - 1] + 1, vec[d] - 1) + vec[d + 1:], vec[d]))
    return moves


def _climb(inter: tuple[int, ...]) -> _Row:
    """The climb half: per level u < N - 1 held, in order, the target with
    one particle moved to u + 1 and the numerator inter[u], over their sum
    K - inter[N-1]."""
    targets, nums = [], []
    for u in range(len(inter) - 1):
        if inter[u]:
            targets.append(inter[:u] + (inter[u] - 1, inter[u + 1] + 1) + inter[u + 2:])
            nums.append(inter[u])
    return targets, nums, sum(nums)


def _assemble(stay_key, stay: int, drops, climbs, k: int, low: int) -> _Row:
    """A merged row from its halves: the stay numerator at ``stay_key``,
    then each drop (m, w) through its climb ``climbs[m]``, targets in the
    order first reached.  With ``low`` particles below the top before the
    drop (low + 1 after a drop from the top), every weight is a count over
    k * low * (low + 1); the row is returned in lowest terms."""
    if k == 0:
        raise ValueError("shift needs at least one particle")
    scale = low * (low + 1) or 1
    row = {stay_key: stay * scale} if stay else {}
    for m, w in drops:
        targets, nums, c = climbs[m]
        per_move = w * (scale // c)
        for t, x in zip(targets, nums):
            row[t] = row.get(t, 0) + per_move * x
    den = k * scale
    g = math.gcd(den, *row.values())
    return list(row), [x // g for x in row.values()], den // g


def _shift_row(vec: tuple[int, ...], climbs: dict) -> _Row:
    """The row of ``shift`` on a count vector; ``climbs`` keeps each
    intermediate's climb half for the calls that share it."""
    drops = _drop(vec)
    for inter, _ in drops:
        if inter not in climbs:
            climbs[inter] = _climb(inter)
    k = sum(vec)
    return _assemble(vec, vec[0], drops, climbs, k, k - vec[-1])


def shift(phi: Multiset) -> Dist:
    """One step of the chain from configuration ``phi``.

    With probability phi(0)/K the downgraded particle sat at level 0 and
    nothing happens.  Otherwise a particle drops from level d to d-1 and
    one particle of the intermediate configuration, drawn among those
    below the top level, climbs one level.  Every target has the same
    size and the same energy total as ``phi``.
    """
    if not phi.ground.is_levels():
        raise ValueError("shift needs a configuration over levels 0..N-1")
    targets, nums, den = _shift_row(phi.counts_vector(), {})
    return Dist(zip((Multiset._from_vector(phi.ground, t) for t in targets), nums), den)


class _ShiftChain(Channel):
    """The shift chain on one (N, K, i) space as stay + drop * climb.

    ``states`` are the configurations in enumeration order and ``index``
    maps each count vector to its position.  State j stays with numerator
    ``stay[j]`` = phi(0) and drops by ``drops[j]``, one (intermediate,
    phi(d)) per level d >= 1 it holds, all over K.  The intermediates, of
    energy i - 1, are numbered as the drops first reach them;
    ``climbs[m]`` holds intermediate m's target indices, numerators psi(u)
    and denominator K - psi(N-1).  Each factor row has O(N) entries.
    ``push`` is two sparse passes; ``row(j)`` is the merged row of
    ``shift`` from state j in lowest terms, and calling the channel gives
    it as a ``Dist``.
    """

    __slots__ = ("ground", "space", "states", "index", "stay", "drops", "climbs")

    def __init__(self, n: int, k: int, i: int):
        self.states = list(enumerate_multisets_with_sum(n, k, i))
        self.ground = self.states[0].ground
        self.space = (k, i)
        vecs = [phi.counts_vector() for phi in self.states]
        self.index = {v: j for j, v in enumerate(vecs)}
        self.stay = [v[0] for v in vecs]
        inters: dict[tuple[int, ...], int] = {}
        self.drops = [[(inters.setdefault(inter, len(inters)), w) for inter, w in _drop(v)]
                      for v in vecs]
        self.climbs = [([self.index[t] for t in targets], nums, c)
                       for targets, nums, c in map(_climb, inters)]

    def row(self, j: int) -> _Row:
        k = self.space[0]
        low = k - self.states[j].counts_vector()[-1]
        return _assemble(j, self.stay[j], self.drops[j], self.climbs, k, low)

    def locate(self, phi) -> int:
        """The index of ``phi``; raises unless it is a state of this space."""
        j = None
        if isinstance(phi, Multiset) and phi.ground == self.ground:
            j = self.index.get(phi.counts_vector())
        if j is None:
            k, i = self.space
            raise ValueError(f"{phi} is not a size-{k}, energy-{i} configuration")
        return j

    def __call__(self, phi: Multiset) -> Dist:
        targets, nums, den = self.row(self.locate(phi))
        return Dist(zip((self.states[t] for t in targets), nums), den)

    def vector(self, omega: Dist) -> list[int]:
        """The numerators of ``omega`` over its denominator, by state."""
        vec = [0] * len(self.states)
        for phi, m in omega.numerators():
            vec[self.locate(phi)] = m
        return vec

    def push(self, vec: list[int], den: int) -> tuple[list[int], int]:
        """One step from vec/den: the drop pass into the intermediates over
        K, the climb pass back over the lcm of the live climb
        denominators, the stay term, then one gcd reduction."""
        k = self.space[0]
        if k == 0:
            raise ValueError("shift needs at least one particle")
        mid = [0] * len(self.climbs)
        for c, drops in zip(vec, self.drops):
            if c:
                for m, w in drops:
                    mid[m] += c * w
        live = [(c, self.climbs[m]) for m, c in enumerate(mid) if c]
        scale = math.lcm(*{d for _, (_, _, d) in live})
        out = [c * s * scale for c, s in zip(vec, self.stay)]
        for c, (targets, nums, d) in live:
            c *= scale // d
            for t, x in zip(targets, nums):
                out[t] += c * x
        den *= k * scale
        g = math.gcd(den, *out)
        return ([x // g for x in out], den // g) if g > 1 else (out, den)


def _vector_distance(a: list[int], a_den: int, b: list[int], b_den: int) -> Fraction:
    """Total variation between a/a_den and b/b_den over the same states."""
    return Fraction(sum(abs(x * b_den - y * a_den) for x, y in zip(a, b)), 2 * a_den * b_den)


def shift_channel(n: int, k: int, i: int) -> Channel:
    """The shift kernel restricted to the configurations with size k and
    energy i, compiled once; evaluating it elsewhere raises."""
    return _ShiftChain(n, k, i)


def stationarity_residual(omega: Dist, channel: Channel) -> Fraction:
    """Exact total variation between one pushforward step and the input;
    zero if and only if ``omega`` is stationary.  A ``shift_channel``
    raises when ``omega`` has support outside its space."""
    return iterate_chain(omega, channel, 1, omega)[1][1]


def _priors(states: list[Multiset],
            columns: Iterable[tuple[int, ...]]) -> Iterator[tuple[int, list[int]]]:
    """The flrn-dagger prior of each attainable level j: the numerators
    coefficient(phi) * phi(j) by state, read from the states' count
    ``columns`` with one ``coefficient`` per state.  A level no state
    holds (every level when K = 0) has no prior."""
    weights = [coefficient(phi) for phi in states]
    for j, column in enumerate(columns):
        prior = list(map(operator.mul, weights, column))
        if any(prior):
            yield j, prior


def _level_channel(rows: dict[int, Dist], k: int, i: int) -> Channel:
    """The channel on levels with the given rows; any other level raises."""
    def kernel(j: int) -> Dist:
        row = rows.get(j)
        if row is None:
            raise ValueError(f"level {j} is unattainable with size {k} and energy {i}")
        return row

    return Channel(kernel)


def flrn_dagger(n: int, k: int, i: int) -> Channel:
    """Bayesian inversion of frequentist learning with the Boltzmann
    prior: from a level j back to the configurations containing it,
    each weighted by coefficient(phi) * phi(j), normalized."""
    states = list(enumerate_multisets_with_sum(n, k, i))
    columns = zip(*(phi.counts_vector() for phi in states))
    rows = {j: Dist(zip(states, prior), sum(prior)) for j, prior in _priors(states, columns)}
    return _level_channel(rows, k, i)


def shift_on_numbers(n: int, k: int, i: int) -> Channel:
    """The level chain flrn after shift after flrn-dagger.

    Row j pushes the flrn-dagger prior coefficient(phi) * phi(j) once
    through the compiled shift chain and reads the level counts of the
    result over K times its denominator.
    """
    chain = _ShiftChain(n, k, i)
    columns = list(zip(*(phi.counts_vector() for phi in chain.states)))
    rows = {}
    for j, prior in _priors(chain.states, columns):
        vec, den = chain.push(prior, sum(prior))
        counts = [sum(map(operator.mul, vec, col)) for col in columns]
        rows[j] = Dist(enumerate(counts), den * k)
    return _level_channel(rows, k, i)


def iterate_chain(omega0: Dist, channel: Channel, steps: int,
                  reference: Dist) -> list[tuple[int, Fraction]]:
    """Push ``omega0`` through the chain, recording the exact total
    variation distance to ``reference`` at every step (step 0 included).

    A ``shift_channel`` iterates integer vectors over its states and
    raises when ``omega0`` or ``reference`` has support outside them.
    """
    if steps < 0:
        raise ValueError(f"steps must be at least 0, got {steps}")
    if not isinstance(channel, _ShiftChain):
        out = [(0, total_variation(omega0, reference))]
        current = omega0
        for step in range(1, steps + 1):
            current = pushforward(channel, current)
            out.append((step, total_variation(current, reference)))
        return out
    vec, den = channel.vector(omega0), omega0.denominator
    ref, ref_den = channel.vector(reference), reference.denominator
    out = [(0, _vector_distance(vec, den, ref, ref_den))]
    for step in range(1, steps + 1):
        vec, den = channel.push(vec, den)
        out.append((step, _vector_distance(vec, den, ref, ref_den)))
    return out


def transition_matrix(n: int, k: int, i: int,
                      max_states: int = MAX_MATRIX_STATES) -> tuple[list[Multiset], list[list[Fraction]]]:
    """Explicit row-stochastic matrix of the shift chain, for inspection.

    States follow the canonical enumeration order; row phi holds the
    transition weights shift(phi)(psi), assembled from the compiled
    factors.  Guarded to small spaces: the states are counted, and
    refused, before any configuration or factor is built.
    """
    size = _count_with_sum(n, k, i)
    if size > max_states:
        raise ValueError(f"{size} states exceed the matrix limit {max_states}")
    chain = _ShiftChain(n, k, i)
    zero = Fraction(0)
    weights: dict[tuple[int, int], Fraction] = {}  # rows share few distinct weights
    rows = []
    for j in range(size):
        row = [zero] * size
        targets, nums, den = chain.row(j)
        for t, m in zip(targets, nums):
            row[t] = weights.get((m, den)) or weights.setdefault((m, den), Fraction(m, den))
        rows.append(row)
    return chain.states, rows


def sample_trajectory(phi0: Multiset, steps: int, seed: int = 0) -> list[Multiset]:
    """Demo Monte-Carlo walk along the chain with a seeded generator.

    Each successor is drawn exactly: one uniform integer below the
    step's denominator walks its integer cumulative numerators, in the
    order of ``shift(phi).numerators()``.  It walks count vectors, one
    row per visited vector, and builds configurations only for the path
    it returns.  Sampling is a demonstration feature only; every
    equilibrium claim here is established by exact pushforward instead.
    """
    if steps < 0:
        raise ValueError(f"steps must be at least 0, got {steps}")
    ground = phi0.ground
    if not ground.is_levels():
        raise ValueError("shift needs a configuration over levels 0..N-1")
    rng = random.Random(seed)
    rows: dict[tuple[int, ...], _Row] = {}
    climbs: dict[tuple[int, ...], _Row] = {}
    vecs = [phi0.counts_vector()]
    for _ in range(steps):
        vec = vecs[-1]
        row = rows.get(vec)
        if row is None:
            row = rows[vec] = _shift_row(vec, climbs)
        targets, nums, den = row
        r = rng.randrange(den)
        for target, m in zip(targets, nums):
            r -= m
            if r < 0:
                vecs.append(target)
                break
    return [phi0] + [Multiset._from_vector(ground, v) for v in vecs[1:]]
