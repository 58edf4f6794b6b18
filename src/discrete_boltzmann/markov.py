"""The sum-preserving shift chain on particle configurations.

One step of the chain moves a random particle one level down and then a
random particle one level up, so both the particle count and the total
energy are conserved.  The Boltzmann family on multisets is a fixed
point of this kernel; pulling the kernel through frequentist learning
and its Bayesian inversion gives a chain on levels with the Boltzmann
family on numbers as fixed point.  All equilibrium checks here are
exact rational computations, never tolerance-based.

``shift`` is the one-state kernel and the one owner of the move rule.
On a space of N levels, K particles and energy i the chain is compiled
once into sparse integer rows: the states as count vectors in
enumeration order, and for each state its row of ``shift`` in lowest
terms (target indices, integer numerators, one denominator), built the
first time it is read.  ``shift_channel`` is that compiled form, a
``Channel`` in its own right.  Iteration pushes an integer vector over
one denominator through it, and the stationarity residual is one step
of iteration; the matrix export fills its rows from it; and each row
of the level chain is one push of that level's flrn-dagger prior.
"""

from __future__ import annotations

import math
import operator
import random
from fractions import Fraction

from .distributions import Channel, Dist, pushforward, total_variation
from .multisets import Multiset, coefficient, enumerate_multisets_with_sum, levels

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


def _shift_row(vec: tuple[int, ...]) -> _Row:
    """The move rule of ``shift`` on a count vector over levels: the
    distinct targets in the order they are first reached, their integer
    numerators and the common denominator, in lowest terms."""
    n, k = len(vec), sum(vec)
    if k == 0:
        raise ValueError("shift needs at least one particle")
    # the particles below the top level number `low`, or low + 1 after a
    # drop from the top, so every weight is a count over k * scale
    low = k - vec[n - 1]
    scale = low * (low + 1) or 1
    row = {vec: vec[0] * scale} if vec[0] else {}
    for d in range(1, n):
        if vec[d] == 0:
            continue
        inter = vec[:d - 1] + (vec[d - 1] + 1, vec[d] - 1) + vec[d + 1:]
        per_move = vec[d] * (scale // (k - inter[n - 1]))
        for u in range(n - 1):
            if inter[u]:
                target = inter[:u] + (inter[u] - 1, inter[u + 1] + 1) + inter[u + 2:]
                row[target] = row.get(target, 0) + per_move * inter[u]
    den = k * scale
    g = math.gcd(den, *row.values())
    return list(row), [m // g for m in row.values()], den // g


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
    targets, nums, den = _shift_row(phi.counts_vector())
    return Dist(zip((Multiset._from_vector(phi.ground, t) for t in targets), nums), den)


class _ShiftChain(Channel):
    """The shift chain on one (N, K, i) space as sparse integer rows.

    ``states`` are the configurations in enumeration order and ``index``
    maps each count vector to its position.  ``row(j)`` is the row of
    ``shift`` from state j as (target indices, numerators, denominator)
    in lowest terms, built on first use.  As a ``Channel`` it is
    ``shift_channel``: calling it gives the row of ``phi`` as a ``Dist``.
    """

    __slots__ = ("ground", "space", "states", "index", "_rows")

    def __init__(self, n: int, k: int, i: int):
        self.ground = levels(n)
        self.space = (k, i)
        self.states = list(enumerate_multisets_with_sum(n, k, i))
        self.index = {phi.counts_vector(): j for j, phi in enumerate(self.states)}
        self._rows: list[_Row | None] = [None] * len(self.states)

    def row(self, j: int) -> _Row:
        row = self._rows[j]
        if row is None:
            targets, nums, den = _shift_row(self.states[j].counts_vector())
            row = self._rows[j] = ([self.index[t] for t in targets], nums, den)
        return row

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
        """One step from vec/den: a sparse integer mat-vec scaled to the
        lcm of the live rows' denominators, then one gcd reduction."""
        live = [(c, self.row(j)) for j, c in enumerate(vec) if c]
        scale = math.lcm(*{d for _, (_, _, d) in live})
        out = [0] * len(vec)
        for c, (targets, nums, d) in live:
            c *= scale // d
            for t, m in zip(targets, nums):
                out[t] += c * m
        den *= scale
        g = math.gcd(den, *out)
        return ([m // g for m in out], den // g) if g > 1 else (out, den)


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


def flrn_dagger(n: int, k: int, i: int) -> Channel:
    """Bayesian inversion of frequentist learning with the Boltzmann
    prior: from a level j back to the configurations containing it,
    each weighted by coefficient(phi) * phi(j), normalized."""
    space = list(enumerate_multisets_with_sum(n, k, i))

    def kernel(j: int) -> Dist:
        weights = [(phi, coefficient(phi) * phi(j)) for phi in space if phi(j)]
        if not weights:
            raise ValueError(f"level {j} is unattainable with size {k} and energy {i}")
        return Dist(weights, sum(w for _, w in weights))

    return Channel(kernel)


def shift_on_numbers(n: int, k: int, i: int) -> Channel:
    """The level chain flrn after shift after flrn-dagger.

    Row j pushes the flrn-dagger prior coefficient(phi) * phi(j) once
    through the compiled shift chain and reads the level counts of the
    result over K times its denominator.
    """
    chain = _ShiftChain(n, k, i)
    weights = [coefficient(phi) for phi in chain.states]
    columns = list(zip(*(phi.counts_vector() for phi in chain.states)))
    lumped = {}
    for j, column in enumerate(columns):
        prior = [w * c for w, c in zip(weights, column)]
        # a level no configuration holds (every level when K = 0) has no row
        if any(prior):
            vec, den = chain.push(prior, sum(prior))
            counts = [sum(map(operator.mul, vec, col)) for col in columns]
            lumped[j] = Dist(enumerate(counts), den * k)

    def kernel(j: int) -> Dist:
        dist = lumped.get(j)
        if dist is None:
            raise ValueError(f"level {j} is unattainable with size {k} and energy {i}")
        return dist

    return Channel(kernel)


def iterate_chain(omega0: Dist, channel: Channel, steps: int,
                  reference: Dist) -> list[tuple[int, Fraction]]:
    """Push ``omega0`` through the chain, recording the exact total
    variation distance to ``reference`` at every step (step 0 included).

    A ``shift_channel`` iterates integer vectors over its states and
    raises when ``omega0`` or ``reference`` has support outside them.
    """
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
    transition weights shift(phi)(psi), filled from the compiled sparse
    rows.  Guarded to small spaces.
    """
    chain = _ShiftChain(n, k, i)
    size = len(chain.states)
    if size > max_states:
        raise ValueError(f"{size} states exceed the matrix limit {max_states}")
    zero = Fraction(0)
    rows = []
    for j in range(size):
        row = [zero] * size
        targets, nums, den = chain.row(j)
        for t, m in zip(targets, nums):
            row[t] = Fraction(m, den)
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
    ground = phi0.ground
    if not ground.is_levels():
        raise ValueError("shift needs a configuration over levels 0..N-1")
    rng = random.Random(seed)
    rows: dict[tuple[int, ...], _Row] = {}
    vecs = [phi0.counts_vector()]
    for _ in range(steps):
        vec = vecs[-1]
        row = rows.get(vec)
        if row is None:
            row = rows[vec] = _shift_row(vec)
        targets, nums, den = row
        r = rng.randrange(den)
        for target, m in zip(targets, nums):
            r -= m
            if r < 0:
                vecs.append(target)
                break
    return [phi0] + [Multiset._from_vector(ground, v) for v in vecs[1:]]
