"""Exact combinatorics of particles over energy levels.

Multisets with fixed size and sum, the N-nomial coefficients counting
them, the discrete Boltzmann distribution families they normalize, the
shift Markov chain whose equilibria they are, their classical
approximations, and the multivariate urn generalizations.  All
probability is exact rational arithmetic; floats appear only in
entropy, divergences, and the approximation solvers.

The public names are resolved lazily (PEP 562): ``import
discrete_boltzmann`` loads no submodule, and the first read of a name
imports its home module, so a ``dboltz`` process loads only what its
command runs.  The seven home modules are public names too, as they
were when this package imported them eagerly.
"""

# home module -> the public names it defines
_HOMES = {
    "multisets": (
        "GroundSet",
        "Multiset",
        "accumulate",
        "binom",
        "coefficient",
        "empty",
        "enumerate_multisets",
        "enumerate_multisets_with_sum",
        "format_multiset",
        "leq",
        "levels",
        "multichoose",
        "parse_multiset",
        "reverse",
        "size",
        "som",
        "unit",
    ),
    "nomials": (
        "NomialTable",
        "nomial",
        "nomial_closed_form",
        "nomial_enum_sequences",
        "nomial_prefix_sum",
        "nomial_recursive",
        "nomial_via_multisets",
        "polynomial_expand",
        "vandermonde_check",
    ),
    "distributions": (
        "Channel",
        "Dist",
        "channel_compose",
        "entropy",
        "flrn",
        "image",
        "kl_divergence",
        "mean",
        "multiset_coefficient_distribution",
        "point",
        "pushforward",
        "total_variation",
        "uniform",
        "variance",
    ),
    "boltzmann": (
        "boltzmann_on_energy",
        "boltzmann_on_multisets",
        "boltzmann_on_numbers",
        "boltzmann_on_numbers_via_multisets",
        "microstate_uniform",
        "projection_marginal",
        "scaled_unnormalized",
    ),
    "markov": (
        "flrn_dagger",
        "iterate_chain",
        "sample_trajectory",
        "shift",
        "shift_channel",
        "shift_on_numbers",
        "stationarity_residual",
        "transition_matrix",
    ),
    "approx": (
        "ApproxReport",
        "CandidateReport",
        "compare",
        "continuous_exponential_pdf",
        "discrete_exponential",
        "max_entropy_dist",
        "ratio_approx",
    ),
    "multivariate": (
        "boltzmann_multi",
        "boltzmann_multi_on_levels",
        "hypergeometric",
        "mult_binom",
        "mult_multichoose",
        "nomial_coeff_multisets",
        "nomial_distribution",
        "polya",
    ),
}
_HOME = {name: module for module, names in _HOMES.items() for name in names}

__all__ = [*_HOME, *_HOMES]
__version__ = "0.1.0"


def __getattr__(name: str):
    module = _HOME.get(name, name if name in _HOMES else None)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module
    home = import_module(f"{__name__}.{module}")
    value = home if module == name else getattr(home, name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
