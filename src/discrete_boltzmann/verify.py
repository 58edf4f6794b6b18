"""Exhaustive small-scale verification of every library invariant.

Each check sweeps a bounded parameter range with exact arithmetic and
reports pass/fail and its wall time; the CLI ``verify all`` subcommand
prints one line per check (and its time on stderr) and fails loudly on
any violation.  Nothing here is sampled or tolerance-based except the
approximation-solver checks, whose tolerances are fixed.
"""

from __future__ import annotations

import itertools
import random
import time
from fractions import Fraction
from typing import Iterator, NamedTuple

from .approx import discrete_exponential, max_entropy_dist, ratio_approx
from .boltzmann import (
    boltzmann_on_energy,
    boltzmann_on_multisets,
    boltzmann_on_numbers,
    boltzmann_on_numbers_via_multisets,
    microstate_uniform,
    projection_marginal,
)
from .distributions import (
    Channel,
    flrn,
    image,
    mean,
    multiset_coefficient_distribution,
    point,
    pushforward,
    uniform,
    variance,
)
from .markov import flrn_dagger, shift, shift_channel, shift_on_numbers, stationarity_residual
from .multisets import (
    GroundSet,
    Multiset,
    accumulate,
    binom,
    coefficient,
    enumerate_multisets,
    enumerate_multisets_with_sum,
    levels,
    multichoose,
    reverse,
    som,
)
from .multivariate import (
    hypergeometric,
    mult_binom,
    mult_multichoose,
    nomial_coeff_multisets,
    nomial_distribution,
    polya,
)
from .nomials import (
    nomial,
    nomial_enum_sequences,
    nomial_prefix_sum,
    nomial_recursive,
    nomial_via_multisets,
    polynomial_expand,
    vandermonde_check,
)

__all__ = ["CheckResult", "run_all"]


class CheckResult(NamedTuple):
    name: str
    ok: bool
    detail: str = ""
    seconds: float = 0.0  # wall time of the check (time.perf_counter)


def _check(results: list[CheckResult], name: str, fn) -> None:
    start = time.perf_counter()
    try:
        ok, detail = True, fn() or ""
    except Exception as exc:  # noqa: BLE001 - verification must report, not crash
        ok, detail = False, f"{type(exc).__name__}: {exc}"
    results.append(CheckResult(name, ok, detail, time.perf_counter() - start))


def _fail(msg: str):
    raise AssertionError(msg)


def _spaces(max_levels: int, max_size: int, min_size: int = 1) -> Iterator[tuple[int, int, int]]:
    """Every (N, K, i) with N <= max_levels, min_size <= K <= max_size and
    0 <= i <= (N - 1) * K, N outermost."""
    for n in range(1, max_levels + 1):
        for k in range(min_size, max_size + 1):
            for i in range((n - 1) * k + 1):
                yield n, k, i


# ---------------------------------------------------------------------------
# multiset checks
# ---------------------------------------------------------------------------

def _multiset_counting(max_labels: int, max_size: int) -> str:
    cases = 0
    for m in range(1, max_labels + 1):
        ground = levels(m)
        for k in range(max_size + 1):
            found = list(enumerate_multisets(ground, k))
            if len(found) != multichoose(m, k):
                _fail(f"|M[{k}]| wrong for {m} labels")
            if len(set(found)) != len(found):
                _fail(f"duplicate multisets for m={m}, k={k}")
            cases += 1
    return f"{cases} (labels, size) pairs"


def _accumulation_fibers(max_labels: int, max_size: int) -> str:
    cases = 0
    for m in range(1, min(max_labels, 4) + 1):
        ground = levels(m)
        for k in range(min(max_size, 6) + 1):
            fibers: dict[Multiset, int] = {}
            for seq in itertools.product(ground.labels, repeat=k):
                phi = accumulate(seq, ground)
                fibers[phi] = fibers.get(phi, 0) + 1
            for phi in enumerate_multisets(ground, k):
                if fibers.get(phi, 0) != coefficient(phi):
                    _fail(f"fiber size of {phi} != coefficient")
            cases += 1
    return f"{cases} brute-force fiber sweeps"


def _coefficient_sums(max_labels: int, max_size: int) -> str:
    for m in range(1, min(max_labels, 5) + 1):
        for k in range(min(max_size, 6) + 1):
            total = sum(coefficient(phi) for phi in enumerate_multisets(levels(m), k))
            if total != m ** k:
                _fail(f"coefficient sum != {m}^{k}")
    return "coefficient sums equal N^K"


def _reversal_laws(max_labels: int, max_size: int) -> str:
    for n in range(1, min(max_labels, 5) + 1):
        for k in range(min(max_size, 5) + 1):
            for phi in enumerate_multisets(levels(n), k):
                rev = reverse(phi)
                if coefficient(rev) != coefficient(phi):
                    _fail("reversal changed a coefficient")
                if som(rev) != (n - 1) * k - som(phi):
                    _fail("reversal broke the som law")
                if reverse(rev) != phi:
                    _fail("reversal is not an involution")
    return "coefficient, som, involution laws"


def _multichoose_prefix_identities() -> str:
    for n in range(1, 9):
        for m in range(1, 13):
            if sum(multichoose(n, j) for j in range(m)) != multichoose(m, n):
                _fail(f"plain prefix identity fails at n={n}, m={m}")
            if m >= 2:
                lhs = sum(multichoose(n, j) * j for j in range(m))
                if lhs != n * multichoose(m - 1, n + 1):
                    _fail(f"weighted prefix identity fails at n={n}, m={m}")
            if m >= 3:
                lhs = sum(multichoose(n, j) * j * j for j in range(m))
                rhs = n * (n + 1) * multichoose(m - 2, n + 2) + n * multichoose(m - 1, n + 1)
                if lhs != rhs:
                    _fail(f"square-weighted prefix identity fails at n={n}, m={m}")
    return "three multichoose prefix identities, n <= 8"


# ---------------------------------------------------------------------------
# nomial checks
# ---------------------------------------------------------------------------

def _nomial_route_agreement(max_levels: int, max_size: int, budget: int) -> str:
    cases = 0
    for n, k, i in _spaces(max_levels, max_size, min_size=0):
        values = {nomial(n, k, i), nomial_via_multisets(n, k, i), nomial_recursive(n, k, i),
                  polynomial_expand(n, k)[i]}
        if n ** k <= budget:
            values.add(nomial_enum_sequences(n, k, i, budget))
        if k >= 1 and i < n:
            values.add(multichoose(k, i))
        if k >= 1 and (n - 1) * k - i < n:  # the closed form on the mirrored side
            values.add(multichoose(k, (n - 1) * k - i))
        if len(values) != 1:
            _fail(f"routes disagree at N={n}, K={k}, i={i}: {values}")
        cases += 1
    return f"{cases} parameter triples"


def _nomial_row_laws(max_levels: int, max_size: int) -> str:
    for n in range(1, max_levels + 2):
        for k in range(max_size + 2):
            row = polynomial_expand(n, k)
            if len(row) != (n - 1) * k + 1:
                _fail(f"row length wrong at N={n}, K={k}")
            if sum(row) != n ** k:
                _fail(f"row sum != N^K at N={n}, K={k}")
            if row != row[::-1]:
                _fail(f"row not palindromic at N={n}, K={k}")
            # held against multiset enumeration, which shares no code with the row step
            for i, value in enumerate(row):
                if value != nomial_via_multisets(n, k, i):
                    _fail(f"expansion disagrees with the multiset count at N={n}, K={k}, i={i}")
    return "row length, sum, palindrome, expansion agreement"


def _nomial_vandermonde(max_levels: int, max_size: int) -> str:
    for n in range(1, max_levels + 1):
        for k1 in range(max_size + 1):
            for k2 in range(max_size + 1 - k1):
                for i in range((n - 1) * (k1 + k2) + 1):
                    if not vandermonde_check(n, k1, k2, i):
                        _fail(f"Vandermonde fails at N={n}, K1={k1}, K2={k2}, i={i}")
    return "full split sweep"


def _nomial_prefix_theorem(max_levels: int, max_size: int) -> str:
    for n in range(1, max_levels + 1):
        for k in range(1, max_size + 1):
            for bound in range(n + 1):
                nomial_prefix_sum(n, k, bound)  # raises on mismatch
    return "prefix sums match the multichoose closed form"


# ---------------------------------------------------------------------------
# distribution checks
# ---------------------------------------------------------------------------

def _dist_constructions(max_labels: int, max_size: int) -> str:
    for m in range(1, min(max_labels, 4) + 1):
        ground = levels(m)
        for k in range(1, min(max_size, 5) + 1):
            mcd = multiset_coefficient_distribution(ground, k)
            if sum(mcd.weights()) != 1:
                _fail("multiset coefficient distribution does not normalize")
            learned = pushforward(Channel(flrn), mcd)
            if learned != uniform(ground.labels):
                _fail(f"flrn of the coefficient distribution is not uniform at m={m}, k={k}")
    return "normalization and averaged-urn law"


def _image_vs_point_channel(max_labels: int) -> str:
    for m in range(2, min(max_labels, 3) + 1):
        ground = levels(m)
        omega = multiset_coefficient_distribution(ground, 2)
        for f in (som, coefficient, lambda phi: phi.size):
            via_image = image(omega, f)
            via_push = pushforward(Channel(lambda x, f=f: point(f(x))), omega)
            if via_image != via_push:
                _fail("image disagrees with point-channel pushforward")
    return "image equals point-channel pushforward"


# ---------------------------------------------------------------------------
# Boltzmann checks
# ---------------------------------------------------------------------------

def _boltzmann_reversal(max_levels: int, max_size: int) -> str:
    for n, k, i in _spaces(max_levels, min(max_size, 5)):
        flipped = image(boltzmann_on_multisets(n, k, i), reverse)
        if flipped != boltzmann_on_multisets(n, k, (n - 1) * k - i):
            _fail(f"multiset family unstable under reversal at ({n},{k},{i})")
        relabeled = image(boltzmann_on_numbers(n, k, i), lambda j: n - 1 - j)
        if relabeled != boltzmann_on_numbers(n, k, (n - 1) * k - i):
            _fail(f"numbers family unstable under reversal at ({n},{k},{i})")
    return "both families stable under reversal"


def _boltzmann_mean_law(max_levels: int, max_size: int) -> str:
    for n, k, i in _spaces(max_levels + 1, max_size):
        if mean(boltzmann_on_numbers(n, k, i)) != Fraction(i, k):
            _fail(f"mean != i/K at ({n},{k},{i})")
    return "mean equals i/K everywhere"


def _boltzmann_routes(max_levels: int, max_size: int) -> str:
    for n, k, i in _spaces(max_levels, min(max_size, 5)):
        if boltzmann_on_numbers(n, k, i) != boltzmann_on_numbers_via_multisets(n, k, i):
            _fail(f"number routes disagree at ({n},{k},{i})")
    return "nomial-ratio route equals learning pushforward"


def _boltzmann_energy_moments(max_energy: int = 20, max_particles: int = 8) -> str:
    for e in range(1, max_energy + 1):
        for k in range(2, max_particles + 1):
            dist = boltzmann_on_energy(e, k)
            if mean(dist) != Fraction(e, k):
                _fail(f"energy mean wrong at E={e}, K={k}")
            expected = Fraction(e * (e + k) * (k - 1), k * k * (k + 1))
            if variance(dist) != expected:
                _fail(f"energy variance wrong at E={e}, K={k}")
            if k == 2 and dist != uniform(range(e + 1)):
                _fail(f"K=2 energy family not uniform at E={e}")
    return "mean E/K, closed-form variance, K=2 uniformity"


def _boltzmann_support_truncation(max_levels: int, max_size: int) -> str:
    for n in range(2, max_levels + 1):
        for k in range(1, max_size + 1):
            for i in range(min(n, (n - 1) * k + 1)):
                support = boltzmann_on_numbers(n, k, i).support
                if any(j > i for j in support):
                    _fail(f"support leaks past i at ({n},{k},{i})")
    return "support within 0..i when i < N"


def _microstate_oracles(max_levels: int, max_size: int, budget: int) -> str:
    cases = 0
    for n, k, i in _spaces(max_levels, max_size):
        if n ** k > budget:
            continue
        unif = microstate_uniform(n, k, i, budget)
        if len(unif) != nomial(n, k, i):
            _fail(f"microstate count != nomial at ({n},{k},{i})")
        ground = levels(n)
        if image(unif, lambda v: accumulate(v, ground)) != boltzmann_on_multisets(n, k, i):
            _fail(f"accumulation image misses the multiset family at ({n},{k},{i})")
        for pos in range(k):
            if projection_marginal(unif, pos) != boltzmann_on_numbers(n, k, i):
                _fail(f"projection marginal misses the numbers family at ({n},{k},{i})")
        cases += 1
    return f"{cases} microstate spaces checked"


# ---------------------------------------------------------------------------
# Markov checks
# ---------------------------------------------------------------------------

def _shift_conservation(max_levels: int, max_size: int) -> str:
    for n, k, i in _spaces(max_levels, min(max_size, 5)):
        for phi in enumerate_multisets_with_sum(n, k, i):
            step = shift(phi)
            if sum(step.weights()) != 1:
                _fail(f"shift weights do not sum to 1 from {phi}")
            for target in step:
                if target.size != k or som(target) != i:
                    _fail(f"shift broke conservation from {phi}")
    return "size and energy conserved, rows stochastic"


def _shift_stationarity(max_levels: int, max_size: int) -> str:
    """Stationarity by one push, and detailed balance
    pi(phi) * P(phi, phi') = pi(phi') * P(phi', phi) on the rows of the same
    compiled chain, cross-multiplied over the law's and the rows' denominators."""
    for n, k, i in _spaces(max_levels, max_size):
        law = boltzmann_on_multisets(n, k, i)
        chain = shift_channel(n, k, i)
        residual = stationarity_residual(law, chain)
        if residual != 0:
            _fail(f"multiset family not stationary at ({n},{k},{i}): {residual}")
        pi = chain.vector(law)
        rows = [chain.row(j) for j in range(len(pi))]
        back = [dict(zip(targets, nums)) for targets, nums, _ in rows]
        for j, (targets, nums, den) in enumerate(rows):
            for t, x in zip(targets, nums):
                if pi[j] * x * rows[t][2] != pi[t] * back[t].get(j, 0) * den:
                    _fail(f"shift chain fails detailed balance at ({n},{k},{i}) between "
                          f"{chain.states[j]} and {chain.states[t]}")
    return "Boltzmann-on-multisets is a fixed point"


def _numbers_chain_stationarity(max_levels: int, max_size: int) -> str:
    """Stationarity by one push, and detailed balance
    rho(a) * Q(a, b) = rho(b) * Q(b, a) on every level pair of the same rows."""
    for n, k, i in _spaces(max_levels, min(max_size, 4)):
        bn = boltzmann_on_numbers(n, k, i)
        chain = shift_on_numbers(n, k, i)
        if pushforward(chain, bn) != bn:
            _fail(f"numbers family not stationary at ({n},{k},{i})")
        for a, b in itertools.combinations(bn.support, 2):
            if bn(a) * chain(a)(b) != bn(b) * chain(b)(a):
                _fail(f"level chain fails detailed balance at ({n},{k},{i}) between {a} and {b}")
    return "Boltzmann-on-numbers is a fixed point of the level chain"


def _dagger_identities(max_levels: int, max_size: int) -> str:
    for n, k, i in _spaces(max_levels, min(max_size, 4)):
        dag = flrn_dagger(n, k, i)
        bn = boltzmann_on_numbers(n, k, i)
        if pushforward(dag, bn) != boltzmann_on_multisets(n, k, i):
            _fail(f"dagger pushforward misses the prior at ({n},{k},{i})")
        for j in range(min(n, i + 1)):
            denom = sum(coefficient(phi) * phi(j) for phi in enumerate_multisets_with_sum(n, k, i))
            rest = i - j
            closed = k * nomial(n, k - 1, rest) if 0 <= rest <= (n - 1) * (k - 1) else 0
            if denom != closed:
                _fail(f"dagger denominator law fails at ({n},{k},{i}), j={j}")
    return "Bayesian inversion reproduces the prior; denominator law"


# ---------------------------------------------------------------------------
# approximation checks
# ---------------------------------------------------------------------------

def _approx_roundness() -> str:
    mu = Fraction(5)
    geo = ratio_approx(25, mu)
    r = mu / (mu + 1)
    for j in range(25):
        if geo(j + 1) != geo(j) * r:
            _fail("geometric candidate has a non-constant ratio")
    dist, s = max_entropy_dist(25, mu)
    if not 0 < s < 1:
        _fail("max-entropy base out of range for a decreasing profile")
    if abs(float(mean(dist)) - 5.0) > 1e-9:
        _fail("max-entropy mean misses the target")
    exp_dist = discrete_exponential(25, mu)
    if abs(sum(exp_dist.weights()) - 1) != 0:
        _fail("discrete exponential not exactly normalized")
    return "ratio exactness, solver mean, exact normalization"


# ---------------------------------------------------------------------------
# multivariate checks
# ---------------------------------------------------------------------------

def _random_urn(rng: random.Random, max_labels: int, max_total: int) -> Multiset:
    m = rng.randint(1, max_labels)
    ground = GroundSet([f"x{j}" for j in range(m)])
    counts = {x: 1 for x in ground.labels}
    for _ in range(rng.randint(0, max_total - m)):
        counts[rng.choice(ground.labels)] += 1
    return Multiset(ground, counts)


def _multivariate_identities(trials: int, seed: int = 2024) -> str:
    """On random urns, each urn law's draws against their label-by-label
    oracle: the oracles sum to the law's normalizer (the Vandermonde
    identity), every draw weighs its oracle over that normalizer, and the
    law pushes forward along frequentist learning to flrn(psi)."""
    rng = random.Random(seed)
    for _ in range(trials):
        psi = _random_urn(rng, 4, 8)
        total = psi.size
        k = rng.randint(0, total)
        n = rng.randint(2, 5)
        i = rng.randint(0, (n - 1) * total)
        learned = flrn(psi)
        laws = [
            ("binomial", "hypergeometric", f"K={k}", k, dict(psi.items()),
             hypergeometric(k, psi), binom(total, k), lambda phi: mult_binom(psi, phi)),
            ("multichoose", "Polya", f"K={k}", k, None,
             polya(k, psi), multichoose(total, k), lambda phi: mult_multichoose(psi, phi)),
            ("nomial", "nomial", f"N={n}, i={i}", i, {x: (n - 1) * c for x, c in psi.items()},
             nomial_distribution(i, psi, n), nomial(n, total, i),
             lambda phi: nomial_coeff_multisets(n, psi, phi)),
        ]
        for identity, name, at, size, caps, dist, norm, oracle in laws:
            weights = {phi: oracle(phi) for phi in enumerate_multisets(psi.ground, size, caps=caps)}
            if sum(weights.values()) != norm:
                _fail(f"{identity} Vandermonde fails for {psi}, {at}")
            if any(dist(phi) * norm != w for phi, w in weights.items()):
                _fail(f"{name} draw weight differs from its oracle for {psi}, {at}")
            if size >= 1 and pushforward(Channel(flrn), dist) != learned:
                _fail(f"{name} learning law fails for {psi}, {at}")
    return f"{trials} random urns"


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def run_all(max_levels: int = 4, max_size: int = 5, budget: int = 10_000_000,
            trials: int = 25) -> list[CheckResult]:
    """Run every invariant sweep; every returned result must hold."""
    results: list[CheckResult] = []
    _check(results, "multisets: enumeration counts", lambda: _multiset_counting(max_levels, max_size))
    _check(results, "multisets: accumulation fibers", lambda: _accumulation_fibers(max_levels, max_size))
    _check(results, "multisets: coefficient sums", lambda: _coefficient_sums(max_levels, max_size))
    _check(results, "multisets: reversal laws", lambda: _reversal_laws(max_levels, max_size))
    _check(results, "multichoose: prefix identities", _multichoose_prefix_identities)
    _check(results, "nomials: route agreement", lambda: _nomial_route_agreement(max_levels, max_size, budget))
    _check(results, "nomials: row laws", lambda: _nomial_row_laws(max_levels, max_size))
    _check(results, "nomials: Vandermonde", lambda: _nomial_vandermonde(max_levels, max_size))
    _check(results, "nomials: prefix-sum theorem", lambda: _nomial_prefix_theorem(max_levels, max_size))
    _check(results, "distributions: constructors", lambda: _dist_constructions(max_levels, max_size))
    _check(results, "distributions: image law", lambda: _image_vs_point_channel(max_levels))
    _check(results, "boltzmann: reversal stability", lambda: _boltzmann_reversal(max_levels, max_size))
    _check(results, "boltzmann: mean law", lambda: _boltzmann_mean_law(max_levels, max_size))
    _check(results, "boltzmann: route agreement", lambda: _boltzmann_routes(max_levels, max_size))
    _check(results, "boltzmann: energy moments", _boltzmann_energy_moments)
    _check(results, "boltzmann: support truncation", lambda: _boltzmann_support_truncation(max_levels, max_size))
    _check(results, "boltzmann: microstate oracles", lambda: _microstate_oracles(max_levels, min(max_size, 5), budget))
    _check(results, "markov: conservation", lambda: _shift_conservation(max_levels, max_size))
    _check(results, "markov: shift stationarity", lambda: _shift_stationarity(max_levels, max_size))
    _check(results, "markov: numbers-chain stationarity", lambda: _numbers_chain_stationarity(max_levels, max_size))
    _check(results, "markov: Bayesian inversion", lambda: _dagger_identities(max_levels, max_size))
    _check(results, "approx: solver laws", _approx_roundness)
    _check(results, "multivariate: identity sweep", lambda: _multivariate_identities(trials))
    return results
