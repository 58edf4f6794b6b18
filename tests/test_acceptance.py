"""Acceptance criteria, one test per criterion.

Every criterion is exact arithmetic unless a tolerance is stated; each
test prints a PASS line with its runtime (visible with ``pytest -s`` or
in the captured output of a failing run) and enforces the stated time
budget, which this desk-scale suite undercuts by a wide margin.
"""

import itertools
import math
import random
import time
from fractions import Fraction

from discrete_boltzmann import (
    Channel,
    Dist,
    GroundSet,
    Multiset,
    accumulate,
    binom,
    boltzmann_on_energy,
    boltzmann_on_multisets,
    boltzmann_on_numbers,
    boltzmann_on_numbers_via_multisets,
    compare,
    enumerate_multisets,
    enumerate_multisets_with_sum,
    flrn,
    hypergeometric,
    image,
    iterate_chain,
    levels,
    mean,
    microstate_uniform,
    mult_binom,
    mult_multichoose,
    multichoose,
    nomial,
    nomial_distribution,
    nomial_prefix_sum,
    nomial_recursive,
    nomial_via_multisets,
    parse_multiset,
    polya,
    polynomial_expand,
    projection_marginal,
    pushforward,
    reverse,
    scaled_unnormalized,
    shift_channel,
    shift_on_numbers,
    stationarity_residual,
    transition_matrix,
    variance,
)

F = Fraction


def _criterion(number: int, label: str, budget_seconds: float):
    """Run the wrapped check, print its pass line, enforce the budget."""

    def wrap(fn):
        def run():
            start = time.perf_counter()
            try:
                fn()
            except BaseException:
                print(f"FAIL criterion {number}: {label}")
                raise
            elapsed = time.perf_counter() - start
            assert elapsed < budget_seconds, \
                f"criterion {number} took {elapsed:.2f}s, budget {budget_seconds}s"
            print(f"PASS criterion {number}: {label} ({elapsed:.2f}s)")

        run.__name__ = fn.__name__
        return run

    return wrap


# ---------------------------------------------------------------------------
# 1. triangle displays
# ---------------------------------------------------------------------------

@_criterion(1, "trinomial and quadrinomial rows digit-for-digit", 1.0)
def test_criterion_1_triangle_rows():
    assert [polynomial_expand(3, k) for k in range(5)] == [
        [1],
        [1, 1, 1],
        [1, 2, 3, 2, 1],
        [1, 3, 6, 7, 6, 3, 1],
        [1, 4, 10, 16, 19, 16, 10, 4, 1],
    ]
    assert [polynomial_expand(4, k) for k in range(6)] == [
        [1],
        [1, 1, 1, 1],
        [1, 2, 3, 4, 3, 2, 1],
        [1, 3, 6, 10, 12, 12, 10, 6, 3, 1],
        [1, 4, 10, 20, 31, 40, 44, 40, 31, 20, 10, 4, 1],
        [1, 5, 15, 35, 65, 101, 135, 155, 155, 135, 101, 65, 35, 15, 5, 1],
    ]


# ---------------------------------------------------------------------------
# 2. headline coefficients and the 20-configuration distribution
# ---------------------------------------------------------------------------

@_criterion(2, "C_4(4,3)=20, C_9(6,8)=1287, 20-configuration distribution", 1.0)
def test_criterion_2_headline_values():
    assert nomial(4, 4, 3) == 20
    assert nomial(9, 6, 8) == 1287
    g = levels(9)
    expected = Dist([
        (parse_multiset("5|0> + 1|8>", g), F(2, 429)),
        (parse_multiset("4|0> + 1|1> + 1|7>", g), F(10, 429)),
        (parse_multiset("4|0> + 1|2> + 1|6>", g), F(10, 429)),
        (parse_multiset("4|0> + 1|3> + 1|5>", g), F(10, 429)),
        (parse_multiset("4|0> + 2|4>", g), F(5, 429)),
        (parse_multiset("3|0> + 2|1> + 1|6>", g), F(20, 429)),
        (parse_multiset("3|0> + 2|2> + 1|4>", g), F(20, 429)),
        (parse_multiset("3|0> + 1|2> + 2|3>", g), F(20, 429)),
        (parse_multiset("3|0> + 1|1> + 1|2> + 1|5>", g), F(40, 429)),
        (parse_multiset("3|0> + 1|1> + 1|3> + 1|4>", g), F(40, 429)),
        (parse_multiset("2|0> + 4|2>", g), F(5, 429)),
        (parse_multiset("2|0> + 2|1> + 2|3>", g), F(10, 143)),
        (parse_multiset("2|0> + 1|1> + 2|2> + 1|3>", g), F(20, 143)),
        (parse_multiset("2|0> + 2|1> + 1|2> + 1|4>", g), F(20, 143)),
        (parse_multiset("2|0> + 3|1> + 1|5>", g), F(20, 429)),
        (parse_multiset("1|0> + 4|1> + 1|4>", g), F(10, 429)),
        (parse_multiset("1|0> + 3|1> + 1|2> + 1|3>", g), F(40, 429)),
        (parse_multiset("1|0> + 2|1> + 3|2>", g), F(20, 429)),
        (parse_multiset("4|1> + 2|2>", g), F(5, 429)),
        (parse_multiset("5|1> + 1|3>", g), F(2, 429)),
    ])
    assert boltzmann_on_multisets(9, 6, 8) == expected


# ---------------------------------------------------------------------------
# 3. the four-level example through all three routes
# ---------------------------------------------------------------------------

@_criterion(3, "numbers family at (4,4,3) via three routes", 1.0)
def test_criterion_3_three_routes():
    expected = Dist([(0, F(1, 2)), (1, F(3, 10)), (2, F(3, 20)), (3, F(1, 20))])
    assert boltzmann_on_numbers_via_multisets(4, 4, 3) == expected
    assert boltzmann_on_numbers(4, 4, 3) == expected
    assert boltzmann_on_energy(3, 4) == expected


# ---------------------------------------------------------------------------
# 4. the nine appendix rationals and their scaled decimals
# ---------------------------------------------------------------------------

@_criterion(4, "energy family at (8,6): exact rationals and scaled decimals", 1.0)
def test_criterion_4_energy_family():
    dist = boltzmann_on_energy(8, 6)
    assert [dist(j) for j in range(9)] == [
        F(5, 13), F(10, 39), F(70, 429), F(14, 143), F(70, 1287),
        F(35, 1287), F(5, 429), F(5, 1287), F(1, 1287)]
    published = [2.31, 1.54, 0.979, 0.587, 0.326, 0.163, 0.0699, 0.0233, 0.00466]
    for have, want in zip(scaled_unnormalized(8, 6), published):
        assert abs(have - want) <= 0.005


# ---------------------------------------------------------------------------
# 5. the exact identity sweep
# ---------------------------------------------------------------------------

@_criterion(5, "identity sweep N<=5, K<=6 (exact, zero tolerance)", 60.0)
def test_criterion_5_identity_sweep():
    # sequence-definition histogram is the oracle for route agreement
    for n in range(1, 6):
        for k in range(7):
            histogram = {}
            for v in itertools.product(range(n), repeat=k):
                s = sum(v)
                histogram[s] = histogram.get(s, 0) + 1
            row = polynomial_expand(n, k)
            assert sum(row) == n ** k
            assert row == row[::-1]
            for i in range((n - 1) * k + 1):
                value = histogram.get(i, 0)
                assert value == nomial(n, k, i) == nomial_via_multisets(n, k, i) \
                    == nomial_recursive(n, k, i) == row[i]
                if k >= 1 and i < n:
                    assert value == multichoose(k, i)
                # Vandermonde across every split of k
                for k1 in range(k + 1):
                    k2 = k - k1
                    lo = max(0, i - (n - 1) * k2)
                    hi = min((n - 1) * k1, i)
                    assert value == sum(nomial(n, k1, i1) * nomial(n, k2, i - i1)
                                        for i1 in range(lo, hi + 1))
            if k >= 1:
                for bound in range(n + 1):
                    nomial_prefix_sum(n, k, bound)

    # multichoose prefix identities
    for small in range(1, 9):
        for m in range(1, 14):
            assert sum(multichoose(small, j) for j in range(m)) == multichoose(m, small)
            if m >= 2:
                assert sum(multichoose(small, j) * j for j in range(m)) == \
                    small * multichoose(m - 1, small + 1)
            if m >= 3:
                assert sum(multichoose(small, j) * j * j for j in range(m)) == \
                    small * (small + 1) * multichoose(m - 2, small + 2) + \
                    small * multichoose(m - 1, small + 1)

    # distribution-level laws
    for n in range(1, 6):
        for k in range(1, 7):
            for i in range((n - 1) * k + 1):
                bn = boltzmann_on_numbers(n, k, i)
                assert mean(bn) == F(i, k)
                if i < n:
                    assert all(j <= i for j in bn.support)
                mirror = (n - 1) * k - i
                assert image(boltzmann_on_multisets(n, k, i), reverse) == \
                    boltzmann_on_multisets(n, k, mirror)
                assert image(bn, lambda j: n - 1 - j) == boltzmann_on_numbers(n, k, mirror)

    # energy-family closed forms
    for e in range(1, 21):
        for k in range(2, 9):
            dist = boltzmann_on_energy(e, k)
            assert mean(dist) == F(e, k)
            assert variance(dist) == F(e * (e + k) * (k - 1), k * k * (k + 1))


# ---------------------------------------------------------------------------
# 6. Markov equilibria
# ---------------------------------------------------------------------------

@_criterion(6, "shift and level-chain equilibria N<=4, K<=5 (exact)", 120.0)
def test_criterion_6_markov_stationarity():
    for n in range(1, 5):
        for k in range(1, 6):
            for i in range((n - 1) * k + 1):
                residual = stationarity_residual(
                    boltzmann_on_multisets(n, k, i), shift_channel(n, k, i))
                assert residual == 0, (n, k, i)
                bn = boltzmann_on_numbers(n, k, i)
                assert pushforward(shift_on_numbers(n, k, i), bn) == bn, (n, k, i)


# ---------------------------------------------------------------------------
# 7. the maximum-entropy solve
# ---------------------------------------------------------------------------

@_criterion(7, "max-entropy solve at E=25, K=5", 1.0)
def test_criterion_7_max_entropy():
    report = compare(25, 5)
    s = report.max_entropy_base
    assert 0.840 <= s <= 0.842
    assert 0.171 <= -math.log(s) <= 0.175
    assert 2.68 <= report.candidate("max-entropy").entropy <= 2.70
    assert 2.66 <= report.reference_entropy <= 2.68
    assert report.candidate("max-entropy").kl_from_reference <= \
        report.candidate("discrete-exponential").kl_from_reference


# ---------------------------------------------------------------------------
# 8. multivariate distributions and identities
# ---------------------------------------------------------------------------

def _random_urn(rng: random.Random) -> Multiset:
    m = rng.randint(1, 4)
    ground = GroundSet([f"x{j}" for j in range(m)])
    counts = {x: 1 for x in ground.labels}
    for _ in range(rng.randint(0, 8 - m)):
        counts[rng.choice(ground.labels)] += 1
    return Multiset(ground, counts)


@_criterion(8, "nomial distribution, binary case, learning and VDM identities", 30.0)
def test_criterion_8_multivariate():
    psi = parse_multiset("1|a> + 5|b> + 3|c>")
    expected = Dist([
        (parse_multiset("2|a> + 10|b> + 3|c>", psi.ground), F(7, 156)),
        (parse_multiset("2|a> + 9|b> + 4|c>", psi.ground), F(5, 26)),
        (parse_multiset("1|a> + 10|b> + 4|c>", psi.ground), F(1, 26)),
        (parse_multiset("2|a> + 8|b> + 5|c>", psi.ground), F(15, 52)),
        (parse_multiset("1|a> + 9|b> + 5|c>", psi.ground), F(5, 52)),
        (parse_multiset("10|b> + 5|c>", psi.ground), F(1, 52)),
        (parse_multiset("2|a> + 7|b> + 6|c>", psi.ground), F(5, 26)),
        (parse_multiset("1|a> + 8|b> + 6|c>", psi.ground), F(5, 52)),
        (parse_multiset("9|b> + 6|c>", psi.ground), F(5, 156)),
    ])
    assert nomial_distribution(15, psi) == expected

    rng = random.Random(20240831)
    for _ in range(50):
        urn = _random_urn(rng)
        total = urn.size
        k = rng.randint(0, total)
        caps = dict(urn.items())
        assert sum(mult_binom(urn, phi)
                   for phi in enumerate_multisets(urn.ground, k, caps=caps)) == \
            binom(total, k)
        assert sum(mult_multichoose(urn, phi)
                   for phi in enumerate_multisets(urn.ground, k)) == \
            multichoose(total, k)
        learned = flrn(urn)
        draw = rng.randint(1, total)
        assert pushforward(Channel(flrn), hypergeometric(draw, urn)) == learned
        assert pushforward(Channel(flrn), polya(draw, urn)) == learned
        n = rng.randint(2, 5)
        i = rng.randint(1, (n - 1) * total)
        assert pushforward(Channel(flrn), nomial_distribution(i, urn, n)) == learned
        # binary case collapses to draw-and-remove
        pair = Multiset(GroundSet("ab"),
                        {"a": rng.randint(1, 6), "b": rng.randint(1, 6)})
        j = rng.randint(0, pair.size)
        assert nomial_distribution(j, pair) == hypergeometric(j, pair)


# ---------------------------------------------------------------------------
# 9. microstate oracles against the formula routes
# ---------------------------------------------------------------------------

@_criterion(9, "sequence/accumulation/projection oracles N<=4, K<=5", 60.0)
def test_criterion_9_oracle_equivalence():
    for n in range(1, 5):
        ground = levels(n)
        for k in range(1, 6):
            histogram = {}
            for v in itertools.product(range(n), repeat=k):
                s = sum(v)
                histogram[s] = histogram.get(s, 0) + 1
            for i in range((n - 1) * k + 1):
                assert histogram[i] == nomial(n, k, i)
                unif = microstate_uniform(n, k, i)
                assert image(unif, lambda v: accumulate(v, ground)) == \
                    boltzmann_on_multisets(n, k, i)
                formula = boltzmann_on_numbers(n, k, i)
                for pos in range(k):
                    assert projection_marginal(unif, pos) == formula


# ---------------------------------------------------------------------------
# 10. the compiled shift chain on spaces of hundreds to thousands of states
# ---------------------------------------------------------------------------

@_criterion(10, "30 chain steps on 1,634 states and the 663-state matrix", 3.0)
def test_criterion_10_compiled_chain_scale():
    space = list(enumerate_multisets_with_sum(8, 12, 40))
    assert len(space) == 1634
    ref = boltzmann_on_multisets(8, 12, 40)
    trace = iterate_chain(Dist([(space[0], 1)]), shift_channel(8, 12, 40), 30, ref)
    assert [step for step, _ in trace] == list(range(31))
    assert all(0 < tv <= 1 for _, tv in trace)
    states, rows = transition_matrix(8, 10, 30)
    assert len(states) == 663
    assert all(sum(w for w in row if w) == 1 for row in rows)


# ---------------------------------------------------------------------------
# 11. the numbers family below N at a large size
# ---------------------------------------------------------------------------

@_criterion(11, "numbers family at (2001, 1000, 2000), below N", 0.1)
def test_criterion_11_numbers_family_below_n():
    dist = boltzmann_on_numbers(2001, 1000, 2000)
    assert len(dist) == 2001
    assert dist(0) == F(math.comb(2998, 2000), math.comb(2999, 2000))
    assert dist(2000) == F(1, math.comb(2999, 2000))
