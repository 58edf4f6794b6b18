"""The sum-preserving shift chain on particle configurations.

One step of the chain moves a random particle one level down and then a
random particle one level up, so both the particle count and the total
energy are conserved.  The Boltzmann family on multisets is a fixed
point of this kernel; pulling the kernel through frequentist learning
and its Bayesian inversion gives a chain on levels with the Boltzmann
family on numbers as fixed point.  Both chains are reversible: the
climb is the reversal of the drop under the Boltzmann law, so each
chain satisfies detailed balance with its Boltzmann family.  All
equilibrium checks here are exact rational computations, never
tolerance-based.

The kernel is the composite of two channels, P = (phi(0)/K) I + D C: the
drop D moves a particle from level d >= 1 to d - 1 with weight phi(d)/K,
and the climb C moves a particle of the intermediate psi from level
u < N - 1 to u + 1 with weight psi(u)/(K - psi(N-1)).  ``_drop`` and
``_climb`` compute those halves and own the move rule; each gives O(N')
entries per row, where a merged row has O(N'^2), with N' the reachable
levels below.  ``shift`` and the sampler assemble merged rows from them.

The halves name configurations by integer keys, one base-(K + 1) digit
per reachable level since no count exceeds K: key(v) = sum of
v[j] * (K + 1)^j over the levels j < N' = min(N, i + 1), since no
particle of a configuration of energy i sits above level i and a step
keeps the energy.  A drop at level d moves a key by
(K + 1)^(d-1) - (K + 1)^d and a climb at level u by
(K + 1)^(u+1) - (K + 1)^u, so no neighbouring count vector is built;
each intermediate's counts come from its source vector and its drop
level.  Count vectors are N' long inside the chain and get their N - N'
zeros only where a configuration over levels 0..N-1 is built or looked
up.

``shift_channel`` compiles one (N, K, i) space once into the two factors
and is a ``Channel`` in its own right.  The compile reads the space's
count vectors and makes one drop pass: since the climb is the reversal
of the drop, the intermediate psi climbs back to exactly the states that
drop into it, so its climbs are the transpose of the drops, collected in
that same pass.  Configurations are built only where the API returns
them, on first use.  Iteration pushes an integer vector over one
denominator through the drop and the climb in turn; the stationarity
residual is one step of it, each row of the level chain is one push of
that level's flrn-dagger prior, and the matrix export assembles merged
rows from the factors.  ``_priors`` owns that prior,
coefficient(phi) * phi(j) by state, for ``flrn_dagger`` and the level
chain alike.
"""

from __future__ import annotations

import math
import operator
import random
from bisect import bisect_right
from fractions import Fraction
from itertools import accumulate
from typing import Iterable, Iterator

from .distributions import Channel, Dist, _fraction, pushforward, total_variation
from .multisets import (Multiset, _check_sum_space, _count_with_sum, _level_sum_fill, _padded,
                        _vector_coefficient, levels)

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


def _key_moves(n: int, k: int) -> tuple[list[int], list[int]]:
    """The integer keys of the size-K count vectors over the n = N'
    reachable levels, one base-(K + 1) digit per level since no count
    exceeds K: the place values ``powers`` = (K + 1)^j, so key(v) = sum
    of v[j] * (K + 1)^j, and the moves ``up`` = (K + 1)^(u+1) - (K + 1)^u.
    A climb at level u adds up[u] to a key and a drop at level d
    subtracts up[d - 1]."""
    powers = [(k + 1) ** j for j in range(n)]
    return powers, [b - a for a, b in zip(powers, powers[1:])]


def _vector(key: int, powers: list[int], k: int) -> tuple[int, ...]:
    """The size-K count vector whose key over ``powers`` is ``key``."""
    return tuple([key // p % (k + 1) for p in powers])


def _drop(vecs: list[tuple[int, ...]], keys: list[int], up: list[int], inters: dict[int, int],
          climbs: list[_Row] | None = None
          ) -> tuple[list[list[tuple[int, int]]], list[tuple[int, tuple[int, ...], int]]]:
    """The drop half on count vectors and their keys: per vector, per
    level d >= 1 held, in order, (m, vec[d]) over K, where m numbers in
    ``inters`` the intermediate with one particle moved to d - 1, of key
    key - up[d - 1].  Intermediates are numbered as first reached.

    Without ``climbs``, each intermediate new to ``inters`` comes back as
    (key, vec, d) for ``_climb``.  With ``climbs``, ``vecs`` is a whole
    space in colex order and the climb half is read as the transpose of
    the drop half.  The intermediate psi climbs at level u to
    psi - e_u + e_(u+1), which is exactly a vector that drops into psi at
    d = u + 1, with numerator psi(u) = vec[d - 1] + 1, over
    K - psi(N-1), where psi(N-1) is vec[N-1] less one for a drop from
    the top.  Those sources last differ at level u + 1, so colex order
    reaches them by ascending u, the order ``_climb`` lists them in.  So
    ``climbs[m]`` gets intermediate m's climb row, with targets as
    positions in ``vecs``, and nothing comes back."""
    rows, new = [], []
    number = inters.get
    top = len(up)
    for j, (vec, key) in enumerate(zip(vecs, keys)):
        row = []
        d = 0
        for step in up:
            d += 1
            w = vec[d]
            if w:
                inter = key - step
                m = number(inter)
                if m is None:
                    m = inters[inter] = len(inters)
                    if climbs is None:
                        new.append((inter, vec, d))
                    else:
                        climbs.append(([], [], sum(vec) - vec[-1] + (d == top)))
                if climbs is not None:
                    targets, nums, _ = climbs[m]
                    targets.append(j)
                    nums.append(vec[d - 1] + 1)
                row.append((m, w))
        rows.append(row)
    return rows, new


def _climb(inters: list[tuple[int, tuple[int, ...], int]], up: list[int]) -> Iterator[_Row]:
    """The climb half on the intermediates (key, vec, d) that ``_drop``
    returns: for the intermediate psi, vec with one particle moved from d
    to d - 1, per level u < N - 1 held, in order, the target key
    key + up[u] and the numerator psi(u), over their sum K - psi(N-1).
    It serves single rows, where no state list exists; the compiled
    chain reads its climbs off the drop pass."""
    for key, vec, d in inters:
        psi = list(vec)
        psi[d - 1] += 1
        psi[d] -= 1
        targets, nums = [], []
        for c, step in zip(psi, up):
            if c:
                targets.append(key + step)
                nums.append(c)
        yield targets, nums, sum(nums)


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


def _keys_of(vec: tuple[int, ...]) -> tuple[int, list[int], list[int]]:
    """How a walk from the count vector ``vec`` over levels 0..N-1 is
    keyed: its size K and the place values and moves of ``_key_moves``
    over its N' reachable levels.  A step keeps K and the energy E, so
    N' = min(N, E + 1) holds for every configuration the walk reaches,
    and each shares the start's empty levels N'..N-1, which a decoded
    key takes back."""
    k = sum(vec)
    reach = _check_sum_space(len(vec), k, sum(map(operator.mul, vec, range(len(vec)))))
    return k, *_key_moves(reach, k)


def _shift_row(vec: tuple[int, ...], key: int, up: list[int], inters: dict[int, int],
               climbs: list[_Row]) -> _Row:
    """The row of ``shift`` on a count vector and its key, targets as
    keys; ``inters`` and ``climbs`` keep each intermediate's number and
    climb half for the calls that share them."""
    (drops,), new = _drop([vec], [key], up, inters)
    climbs.extend(_climb(new, up))
    k = sum(vec)
    return _assemble(key, vec[0], drops, climbs, k, k - vec[-1])


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
    vec = phi.counts_vector()
    k, powers, up = _keys_of(vec)
    top = vec[len(powers):]
    key = sum(map(operator.mul, vec, powers))
    targets, nums, den = _shift_row(vec[:len(powers)], key, up, {}, [])
    return Dist._from_counts([Multiset._from_vector(phi.ground, _vector(t, powers, k) + top)
                              for t in targets], nums, den)


def _space(n: int, k: int, i: int) -> list[tuple[int, ...]]:
    """The count vectors of one (N, K, i) space in enumeration order over
    its N' reachable levels, after its one check; an invalid space
    raises."""
    return list(_level_sum_fill(_check_sum_space(n, k, i), k, i))


class _ShiftChain(Channel):
    """The shift chain on one (N, K, i) space as stay + drop * climb.

    ``vecs`` are the states' count vectors in enumeration order, over
    the N' = min(N, i + 1) levels a particle can reach.  State j
    stays with numerator ``stay[j]`` = phi(0) and drops by ``drops[j]``,
    one (intermediate, phi(d)) per level d >= 1 it holds, all over K.  The
    intermediates, of energy i - 1, are numbered as the drops first reach
    them; ``climbs[m]`` holds intermediate m's target indices, numerators
    psi(u) and denominator K - psi(N'-1); psi(N-1) is the same, since an
    intermediate has no particle at level i.  Each factor row has O(N')
    entries.  The compile moves integer keys over the N' levels,
    key(v) = sum of v[j] * (K + 1)^j, a drop at level d adding
    (K + 1)^(d-1) - (K + 1)^d, and makes one pass:
    the climbs are the transpose of the drops, since the states that drop
    into an intermediate are exactly the ones it climbs back to, so the
    pass that numbers the intermediates also lists their climbs.
    ``states`` (the configurations) and ``index`` (count vector over all
    N levels to position) take ``vecs`` to N levels by ``_padded``; both
    are built on first use and kept.  ``push`` is two sparse passes;
    ``row(j)`` is the merged row of ``shift`` from state j in lowest
    terms, and calling the channel gives it as a ``Dist``.

    The chain is reversible under the Boltzmann law pi on multisets: the
    climb is the pi-reversal of the drop, so pi(phi) * P(phi, phi') =
    pi(phi') * P(phi', phi) for every pair of states, which
    ``verify`` checks on these rows.
    """

    __slots__ = ("ground", "space", "vecs", "stay", "drops", "climbs", "_states", "_index")

    def __init__(self, n: int, k: int, i: int):
        self.vecs = vecs = _space(n, k, i)
        self.ground = levels(n)
        self.space = (k, i)
        self._states = self._index = None
        self.stay = [v[0] for v in vecs]
        powers, up = _key_moves(len(vecs[0]), k)
        keys = [sum(map(operator.mul, v, powers)) for v in vecs]
        self.climbs = []
        self.drops, _ = _drop(vecs, keys, up, {}, self.climbs)

    @property
    def states(self) -> list[Multiset]:
        """The configurations in enumeration order, built on first use."""
        if self._states is None:
            ground = self.ground
            self._states = [Multiset._from_vector(ground, v)
                            for v in _padded(len(ground), self.vecs)]
        return self._states

    @property
    def index(self) -> dict[tuple[int, ...], int]:
        """The position of each count vector over all N levels, built on
        first use."""
        if self._index is None:
            self._index = dict(zip(_padded(len(self.ground), self.vecs), range(len(self.vecs))))
        return self._index

    def row(self, j: int) -> _Row:
        k = self.space[0]
        return _assemble(j, self.stay[j], self.drops[j], self.climbs, k, k - self.vecs[j][-1])

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
        states = self.states
        return Dist._from_counts([states[t] for t in targets], nums, den)

    def vector(self, omega: Dist) -> list[int]:
        """The numerators of ``omega`` over its denominator, by state.  Each
        ground object met is compared with the space's ground once, by
        ``locate``; elements on a ground already met are looked up directly."""
        vec = [0] * len(self.vecs)
        index = self.index.get
        ground = None
        for phi, m in omega.numerators():
            j = (index(phi.counts_vector())
                 if isinstance(phi, Multiset) and phi.ground is ground else None)
            if j is None:
                j = self.locate(phi)
                ground = phi.ground
            vec[j] = m
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
        climbs = self.climbs
        scale = math.lcm(*{climbs[m][2] for m, c in enumerate(mid) if c})
        out = [c * s * scale for c, s in zip(vec, self.stay)]
        for c, (targets, nums, d) in zip(mid, climbs):
            if c:
                c *= scale // d
                for t, x in zip(targets, nums):
                    out[t] += c * x
        den *= k * scale
        g = math.gcd(den, *out)
        return ([x // g for x in out], den // g) if g > 1 else (out, den)


def _vector_distance(a: list[int], a_den: int, b: list[int], b_den: int) -> Fraction:
    """Total variation between a/a_den and b/b_den over the same states."""
    gaps = map(operator.sub, map(b_den.__mul__, a), map(a_den.__mul__, b))
    return Fraction(sum(map(abs, gaps)), 2 * a_den * b_den)


def shift_channel(n: int, k: int, i: int) -> Channel:
    """The shift kernel restricted to the configurations with size k and
    energy i, compiled once; evaluating it elsewhere raises."""
    return _ShiftChain(n, k, i)


def stationarity_residual(omega: Dist, channel: Channel) -> Fraction:
    """Exact total variation between one pushforward step and the input;
    zero if and only if ``omega`` is stationary.  A ``shift_channel``
    raises when ``omega`` has support outside its space."""
    return iterate_chain(omega, channel, 1, omega)[1][1]


def _priors(vecs: list[tuple[int, ...]],
            columns: Iterable[tuple[int, ...]]) -> Iterator[tuple[int, list[int]]]:
    """The flrn-dagger prior of each attainable level j: the numerators
    coefficient(phi) * phi(j) by state, read from the states' N'-long
    count vectors ``vecs`` and their ``columns`` with one coefficient per
    state; no configuration is built.  A level no state holds (every
    level when K = 0) has no prior."""
    weights = list(map(_vector_coefficient, vecs))
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
    vecs = _space(n, k, i)
    ground = levels(n)
    states = [Multiset._from_vector(ground, v) for v in _padded(n, vecs)]
    rows = {j: Dist._from_counts(states, prior, sum(prior))
            for j, prior in _priors(vecs, zip(*vecs))}
    return _level_channel(rows, k, i)


def shift_on_numbers(n: int, k: int, i: int) -> Channel:
    """The level chain flrn after shift after flrn-dagger.

    Row j pushes the flrn-dagger prior coefficient(phi) * phi(j) once
    through the compiled shift chain and reads the level counts of the
    result over K times its denominator.  The chain is reversible: with
    rho = ``boltzmann_on_numbers(n, k, i)``, rho(j) Q(j, j') =
    rho(j') Q(j', j) on every pair of levels.
    """
    chain = _ShiftChain(n, k, i)
    columns = list(zip(*chain.vecs))
    rows = {}
    for j, prior in _priors(chain.vecs, columns):
        vec, den = chain.push(prior, sum(prior))
        counts = [sum(map(operator.mul, vec, col)) for col in columns]
        rows[j] = Dist._from_counts(range(len(counts)), counts, den * k)
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
    ref, ref_den = ((vec, den) if reference is omega0
                    else (channel.vector(reference), reference.denominator))
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
            w = weights.get((m, den))
            if w is None:
                g = math.gcd(m, den)
                w = weights[m, den] = _fraction(m // g, den // g)
            row[t] = w
        rows.append(row)
    return chain.states, rows


def sample_trajectory(phi0: Multiset, steps: int, seed: int = 0) -> list[Multiset]:
    """Demo Monte-Carlo walk along the chain with a seeded generator.

    Each successor is drawn exactly: one uniform integer below the
    step's denominator is placed by bisection among its integer
    cumulative numerators, in the order of ``shift(phi).numerators()``.
    It walks integer keys, one row per visited configuration, and builds
    each configuration reached once, reusing it wherever the path
    returns to it.  Sampling is a demonstration feature only; every
    equilibrium claim here is established by exact pushforward instead.
    """
    if steps < 0:
        raise ValueError(f"steps must be at least 0, got {steps}")
    ground = phi0.ground
    if not ground.is_levels():
        raise ValueError("shift needs a configuration over levels 0..N-1")
    rng = random.Random(seed)
    vec = phi0.counts_vector()
    k, powers, up = _keys_of(vec)
    top = vec[len(powers):]
    key = sum(map(operator.mul, vec, powers))
    configs = {key: phi0}  # the configuration of each key reached
    rows: dict[int, _Row] = {}  # targets, cumulative numerators, denominator
    inters: dict[int, int] = {}
    climbs: list[_Row] = []
    path = [phi0]
    for _ in range(steps):
        row = rows.get(key)
        if row is None:
            targets, nums, den = _shift_row(configs[key].counts_vector()[:len(powers)], key, up,
                                            inters, climbs)
            row = rows[key] = targets, list(accumulate(nums)), den
        targets, cum, den = row
        key = targets[bisect_right(cum, rng.randrange(den))]
        phi = configs.get(key)
        if phi is None:
            phi = configs[key] = Multiset._from_vector(ground, _vector(key, powers, k) + top)
        path.append(phi)
    return path
