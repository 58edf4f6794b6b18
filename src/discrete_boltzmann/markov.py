"""The sum-preserving shift chain on particle configurations.

One step of the chain moves a random particle one level down and then a
random particle one level up, so both the particle count and the total
energy are conserved.  The Boltzmann family on multisets is a fixed
point of this kernel; pulling the kernel through frequentist learning
and its Bayesian inversion gives a chain on levels with the Boltzmann
family on numbers as fixed point.  All equilibrium checks here are
exact rational computations, never tolerance-based.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .distributions import (
    Channel,
    Dist,
    flrn,
    pushforward,
    total_variation,
)
from .multisets import (
    Multiset,
    coefficient,
    enumerate_multisets_with_sum,
    levels,
    som,
)

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
    n, k = len(vec), sum(vec)
    if k == 0:
        raise ValueError("shift needs at least one particle")
    # the particles below the top level number `low`, or low + 1 after a
    # drop from the top, so every weight is a count over k * scale
    low = k - vec[n - 1]
    scale = low * (low + 1) or 1
    pairs: list[tuple[Multiset, int]] = [(phi, vec[0] * scale)]
    for d in range(1, n):
        if vec[d] == 0:
            continue
        inter = vec[:d - 1] + (vec[d - 1] + 1, vec[d] - 1) + vec[d + 1:]
        per_move = vec[d] * (scale // (k - inter[n - 1]))
        for u in range(n - 1):
            if inter[u]:
                target = inter[:u] + (inter[u] - 1, inter[u + 1] + 1) + inter[u + 2:]
                pairs.append((Multiset._from_vector(phi.ground, target), per_move * inter[u]))
    return Dist(pairs, k * scale)


def shift_channel(n: int, k: int, i: int) -> Channel:
    """The shift kernel restricted to the configurations with size k and
    energy i; evaluating it elsewhere raises."""
    ground = levels(n)

    def kernel(phi: Multiset) -> Dist:
        if phi.ground != ground or phi.size != k or som(phi) != i:
            raise ValueError(f"{phi} is not a size-{k}, energy-{i} configuration")
        return shift(phi)

    return Channel(kernel)


def stationarity_residual(omega: Dist, channel: Channel) -> Fraction:
    """Exact total variation between one pushforward step and the input;
    zero if and only if ``omega`` is stationary."""
    return total_variation(pushforward(channel, omega), omega)


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
    """The level chain flrn after shift after flrn-dagger."""
    return flrn_dagger(n, k, i).then(shift_channel(n, k, i)).then(Channel(flrn))


def iterate_chain(omega0: Dist, channel: Channel, steps: int,
                  reference: Dist) -> list[tuple[int, Fraction]]:
    """Push ``omega0`` through the chain, recording the exact total
    variation distance to ``reference`` at every step (step 0 included)."""
    out = [(0, total_variation(omega0, reference))]
    current = omega0
    for step in range(1, steps + 1):
        current = pushforward(channel, current)
        out.append((step, total_variation(current, reference)))
    return out


def transition_matrix(n: int, k: int, i: int,
                      max_states: int = MAX_MATRIX_STATES) -> tuple[list[Multiset], list[list[Fraction]]]:
    """Explicit row-stochastic matrix of the shift chain, for inspection.

    States follow the canonical enumeration order; row phi holds the
    transition weights shift(phi)(psi).  Guarded to small spaces.
    """
    states = list(enumerate_multisets_with_sum(n, k, i))
    if len(states) > max_states:
        raise ValueError(f"{len(states)} states exceed the matrix limit {max_states}")
    rows = []
    for phi in states:
        step = shift(phi)
        rows.append([step(psi) for psi in states])
    return states, rows


def sample_trajectory(phi0: Multiset, steps: int, seed: int = 0) -> list[Multiset]:
    """Demo Monte-Carlo walk along the chain with a seeded generator.

    Each successor is drawn exactly: one uniform integer below the
    step's denominator walks its integer cumulative numerators.
    Sampling is a demonstration feature only; every equilibrium claim in
    this module is established by exact pushforward instead.
    """
    rng = random.Random(seed)
    path = [phi0]
    for _ in range(steps):
        step = shift(path[-1])
        r = rng.randrange(step.denominator)
        for psi, n in step.numerators():
            r -= n
            if r < 0:
                path.append(psi)
                break
    return path
