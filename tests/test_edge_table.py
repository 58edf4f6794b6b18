"""Every public function and class at the edges of its domain.

One table of calls covers each function and class in
``discrete_boltzmann.__all__`` at the edges that apply to it: N = 1,
K = 0 and K = 1, the sums i = 0 and i = T = (N - 1)K, the empty urn and a
one-label urn, and means of 0, E, 5e-324, the largest float, 1.8e308
(which rounds to inf), +-inf and NaN.  Each call must return a value or
raise ``ValueError``; any other exception type on an argument of the
right type is a defect.  Calls with an argument of the wrong type (a list
where a ``GroundSet`` is required, a support that is not a sequence) stay
out: ``TypeError`` is right there.
"""

import math
import sys
import types

import pytest

import discrete_boltzmann as db
from discrete_boltzmann import (
    ApproxReport,
    CandidateReport,
    Channel,
    Dist,
    GroundSet,
    Multiset,
    NomialTable,
    boltzmann_on_energy,
    boltzmann_on_multisets,
    levels,
    parse_multiset,
    point,
    shift_channel,
    uniform,
)

E = 4
MEANS = {"0": 0, "E": E, "5e-324": 5e-324, "max float": sys.float_info.max,
         "1.8e308": 1.8e308, "inf": math.inf, "-inf": -math.inf, "nan": math.nan}
# (N, K, i) at N = 1, K = 0 and 1, and i = 0 and T
SPACES = [(1, 3, 0), (3, 0, 0), (3, 1, 0), (3, 1, 2), (3, 2, 0), (3, 2, 4)]


def _urns():
    return {"empty": Multiset(GroundSet(["a"])), "one-label": parse_multiset("3|a>"),
            "two-label": parse_multiset("2|a> + 1|b>")}


def _cases():
    """(public name, case id, thunk) for every edge call."""
    cases = []

    def add(name, label, thunk):
        cases.append((name, f"{name}[{label}]", thunk))

    for n, k, i in SPACES:
        at = f"{n},{k},{i}"
        for name in ("nomial", "nomial_closed_form", "nomial_enum_sequences", "nomial_recursive",
                     "nomial_via_multisets", "boltzmann_on_multisets", "boltzmann_on_numbers",
                     "boltzmann_on_numbers_via_multisets", "microstate_uniform", "shift_channel",
                     "shift_on_numbers", "flrn_dagger", "transition_matrix"):
            add(name, at, lambda f=getattr(db, name), n=n, k=k, i=i: f(n, k, i))
        add("nomial_prefix_sum", at, lambda n=n, k=k, i=i: db.nomial_prefix_sum(n, k, i))
        add("vandermonde_check", at, lambda n=n, k=k, i=i: db.vandermonde_check(n, k, k, i))
        add("enumerate_multisets_with_sum", at,
            lambda n=n, k=k, i=i: list(db.enumerate_multisets_with_sum(n, k, i)))
        add("Channel", at, lambda n=n, k=k, i=i: shift_channel(n, k, i)(
            next(db.enumerate_multisets_with_sum(n, k, i))))
        add("flrn_dagger", f"{at} at level 0", lambda n=n, k=k, i=i: db.flrn_dagger(n, k, i)(0))
        add("shift_on_numbers", f"{at} at {i // max(k, 1)}",
            lambda n=n, k=k, i=i: db.shift_on_numbers(n, k, i)(i // max(k, 1)))
        add("iterate_chain", at, lambda n=n, k=k, i=i: db.iterate_chain(
            boltzmann_on_multisets(n, k, i), shift_channel(n, k, i), 1,
            boltzmann_on_multisets(n, k, i)))
        add("stationarity_residual", at, lambda n=n, k=k, i=i: db.stationarity_residual(
            boltzmann_on_multisets(n, k, i), shift_channel(n, k, i)))
        add("projection_marginal", f"{at} at 0", lambda n=n, k=k, i=i: db.projection_marginal(
            db.microstate_uniform(n, k, i), 0))
    for n in (1, 3):
        for k in (0, 1):
            at = f"{n},{k}"
            add("polynomial_expand", at, lambda n=n, k=k: db.polynomial_expand(n, k))
            add("NomialTable", at, lambda n=n, k=k: NomialTable(n, k).rows)
            add("NomialTable", f"{at} row", lambda n=n, k=k: NomialTable(n, k).row(k))
            add("NomialTable", f"{at} value at T",
                lambda n=n, k=k: NomialTable(n, k).value(k, (n - 1) * k))
            add("multiset_coefficient_distribution", at,
                lambda n=n, k=k: db.multiset_coefficient_distribution(levels(n), k))
            add("enumerate_multisets", at, lambda n=n, k=k: list(db.enumerate_multisets(levels(n), k)))
            add("binom", at, lambda n=n, k=k: db.binom(n, k))
            add("multichoose", at, lambda n=n, k=k: db.multichoose(n, k))
            add("boltzmann_on_energy", f"{n},{k}", lambda n=n, k=k: boltzmann_on_energy(n, k))
            add("scaled_unnormalized", f"{n},{k}", lambda n=n, k=k: db.scaled_unnormalized(n, k))
            add("compare", f"{n},{k}", lambda n=n, k=k: db.compare(n, k))
    add("boltzmann_on_energy", "1,2", lambda: boltzmann_on_energy(1, 2))
    add("scaled_unnormalized", "1,2", lambda: db.scaled_unnormalized(1, 2))
    add("compare", "1,2", lambda: db.compare(1, 2))
    add("ApproxReport", "candidate at 1,2", lambda: db.compare(1, 2).candidate("max-entropy"))
    add("ApproxReport", "fields", lambda: ApproxReport._make(db.compare(1, 2)))
    add("CandidateReport", "fields", lambda: CandidateReport._make(db.compare(1, 2).candidates[0]))
    add("levels", "1", lambda: levels(1))
    add("levels", "0", lambda: levels(0))
    add("GroundSet", "empty", lambda: GroundSet([]))
    add("GroundSet", "one label", lambda: GroundSet(["a"]))
    add("unit", "one label", lambda: db.unit(GroundSet(["a"]), "a"))
    add("empty", "one label", lambda: db.empty(GroundSet(["a"])))
    add("accumulate", "empty sequence", lambda: db.accumulate([], GroundSet(["a"])))
    add("accumulate", "one label", lambda: db.accumulate(["a", "a"]))
    add("parse_multiset", "0", lambda: db.parse_multiset("0", GroundSet(["a"])))
    add("parse_multiset", "0 without a ground", lambda: db.parse_multiset("0"))

    for label, psi in _urns().items():
        add("Multiset", label, lambda psi=psi: Multiset(psi.ground, psi.items()))
        for name in ("size", "coefficient", "som", "reverse", "format_multiset", "flrn"):
            add(name, label, lambda f=getattr(db, name), psi=psi: f(psi))
        add("leq", label, lambda psi=psi: db.leq(psi, psi))
        add("mult_binom", label, lambda psi=psi: db.mult_binom(psi, psi))
        add("mult_multichoose", label, lambda psi=psi: db.mult_multichoose(psi, psi))
        add("nomial_coeff_multisets", label,
            lambda psi=psi: db.nomial_coeff_multisets(1, psi, Multiset(psi.ground)))
        add("enumerate_multisets", f"{label} caps", lambda psi=psi: list(
            db.enumerate_multisets(psi.ground, psi.size, caps=dict(psi.items()))))
        for k in (0, 1, psi.size):
            at = f"{label}, draw {k}"
            add("hypergeometric", at, lambda psi=psi, k=k: db.hypergeometric(k, psi))
            add("polya", at, lambda psi=psi, k=k: db.polya(k, psi))
            add("nomial_distribution", at, lambda psi=psi, k=k: db.nomial_distribution(k, psi))
            add("nomial_distribution", f"{at}, N = 1",
                lambda psi=psi, k=k: db.nomial_distribution(k, psi, 1))
        for n, i in ((1, 0), (3, 0), (3, 2 * psi.size)):
            at = f"{label}, N = {n}, i = {i}"
            add("boltzmann_multi", at, lambda psi=psi, n=n, i=i: db.boltzmann_multi(n, psi, i))
            add("boltzmann_multi_on_levels", at,
                lambda psi=psi, n=n, i=i: db.boltzmann_multi_on_levels(n, psi, i))

    config = parse_multiset("3|0>", levels(1))
    add("shift", "N = 1", lambda: db.shift(config))
    add("shift", "K = 0", lambda: db.shift(Multiset(levels(3))))
    add("sample_trajectory", "N = 1", lambda: db.sample_trajectory(config, 3))
    add("sample_trajectory", "K = 0", lambda: db.sample_trajectory(Multiset(levels(3)), 3))

    add("Dist", "no weights", lambda: Dist({}))
    add("Dist", "one element", lambda: Dist({0: 1}))
    add("Dist", "zero weight", lambda: Dist({0: 1, 1: 0}))
    for label, p in (("inf", math.inf), ("-inf", -math.inf), ("nan", math.nan)):
        add("Dist", f"weight {label}", lambda p=p: Dist({0: p}))
    add("point", "0", lambda: point(0))
    add("uniform", "empty", lambda: uniform([]))
    add("uniform", "one element", lambda: uniform([0]))
    add("flrn", "one label", lambda: db.flrn(parse_multiset("1|a>")))
    add("image", "point", lambda: db.image(point(0), lambda x: x + 1))
    add("pushforward", "point", lambda: db.pushforward(lambda x: point(x), point(0)))
    add("channel_compose", "points", lambda: db.channel_compose(
        Channel(point), Channel(point))(0))
    for name in ("mean", "variance", "entropy"):
        add(name, "point", lambda f=getattr(db, name): f(point(0)))
        add(name, "label support", lambda f=getattr(db, name): f(point("a")))
    for name in ("kl_divergence", "total_variation"):
        add(name, "same point", lambda f=getattr(db, name): f(point(0), point(0)))
        add(name, "disjoint points", lambda f=getattr(db, name): f(point(0), point(1)))

    for label, mu in MEANS.items():
        add("ratio_approx", f"mu {label}", lambda mu=mu: db.ratio_approx(E, mu))
        add("discrete_exponential", f"mu {label}", lambda mu=mu: db.discrete_exponential(E, mu))
        add("max_entropy_dist", f"mu {label}", lambda mu=mu: db.max_entropy_dist(E, mu))
        add("continuous_exponential_pdf", f"mu {label}",
            lambda mu=mu: db.continuous_exponential_pdf(mu)(0.0))
    for name in ("ratio_approx", "discrete_exponential", "max_entropy_dist"):
        add(name, "E = 1, mu 1", lambda f=getattr(db, name): f(1, 1))
        add(name, "E = 0, mu 1", lambda f=getattr(db, name): f(0, 1))
    return cases


CASES = _cases()


@pytest.mark.parametrize("thunk", [thunk for _, _, thunk in CASES],
                         ids=[case_id for _, case_id, _ in CASES])
def test_returns_a_value_or_raises_value_error(thunk):
    try:
        thunk()
    except ValueError:
        pass


def test_every_public_function_and_class_is_in_the_table():
    public = {name for name in db.__all__
              if not isinstance(getattr(db, name), types.ModuleType)}
    assert public - {name for name, _, _ in CASES} == set()


class TestSixDefects:
    """The calls that raised another exception type; each now raises ``ValueError``."""

    @pytest.mark.parametrize("make", [db.ratio_approx, db.discrete_exponential,
                                      db.max_entropy_dist], ids=lambda f: f.__name__)
    def test_infinite_mean(self, make):
        with pytest.raises(ValueError, match="^cannot convert Infinity to integer ratio$"):
            make(1, math.inf)

    def test_infinite_mean_of_the_density(self):
        with pytest.raises(ValueError, match="^cannot convert Infinity to integer ratio$"):
            db.continuous_exponential_pdf(math.inf)

    def test_infinite_weight(self):
        with pytest.raises(ValueError, match="^cannot convert Infinity to integer ratio$"):
            Dist({0: math.inf})

    def test_zero_denominator_in_ket_text(self):
        from discrete_boltzmann.ketform import parse_dist
        with pytest.raises(ValueError, match=r"^zero denominator in distribution term '1/0\|0>'$"):
            parse_dist("1/0|0>")
