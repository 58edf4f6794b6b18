"""The level-sum space (N, K, i) has one validator and one flrn-dagger prior.

Every public entry point on the size-K multisets over the levels 0..N-1
with sum i is checked by ``multisets._check_sum_space`` and fails with
one message form.  Counting, enumeration and the shift chain allow
K = 0; the Boltzmann and urn families need K >= 1.  ``flrn_dagger`` and
``shift_on_numbers`` read their priors from ``markov._priors``:
``_scan_row`` below is the per-row scan over every state that the shared
prior replaced, kept here as the reference.  ``_count_with_sum`` sizes
the space without building it and is held to the enumeration's length;
its product stops at j = min(N - 1, w), so many levels above a small sum
cost nothing.
"""

import pathlib
import re
import time

import pytest

from discrete_boltzmann import (
    Dist,
    GroundSet,
    Multiset,
    boltzmann_multi,
    boltzmann_on_multisets,
    boltzmann_on_numbers,
    boltzmann_on_numbers_via_multisets,
    coefficient,
    enumerate_multisets,
    enumerate_multisets_with_sum,
    flrn_dagger,
    levels,
    microstate_uniform,
    nomial,
    nomial_closed_form,
    nomial_distribution,
    nomial_enum_sequences,
    nomial_recursive,
    nomial_via_multisets,
    shift_channel,
    shift_on_numbers,
    transition_matrix,
)
from discrete_boltzmann import markov
from discrete_boltzmann.multisets import _count_with_sum, _level_sum_fill, _vector_coefficient

MESSAGE = re.compile(r"^sum -?\d+ out of range \[0, -?\d+\] for N=-?\d+, K=-?\d+")


def _urn(k):
    """A sizes urn of total size k over two kinds."""
    return Multiset(GroundSet("ab"), {"a": (k + 1) // 2, "b": k // 2})


# Each entry point as (n, k, i) -> result, with the K it needs at least.
ENTRY_POINTS = {
    "nomial": (nomial, 0),
    "nomial_enum_sequences": (nomial_enum_sequences, 0),
    "nomial_via_multisets": (nomial_via_multisets, 0),
    "nomial_recursive": (nomial_recursive, 0),
    "nomial_closed_form": (nomial_closed_form, 0),
    "boltzmann_on_multisets": (boltzmann_on_multisets, 1),
    "boltzmann_on_numbers": (boltzmann_on_numbers, 1),
    "boltzmann_on_numbers_via_multisets": (boltzmann_on_numbers_via_multisets, 1),
    "microstate_uniform": (microstate_uniform, 1),
    "enumerate_multisets_with_sum": (enumerate_multisets_with_sum, 0),
    "shift_channel": (shift_channel, 0),
    "flrn_dagger": (flrn_dagger, 0),
    "shift_on_numbers": (shift_on_numbers, 0),
    "transition_matrix": (transition_matrix, 0),
    "boltzmann_multi": (lambda n, k, i: boltzmann_multi(n, _urn(k), i), 1),
    "nomial_distribution": (lambda n, k, i: nomial_distribution(i, _urn(k), n), 1),
}

BAD_SPACES = {
    "no levels": (0, 2, 0),
    "negative size": (3, -1, 0),
    "negative sum": (3, 2, -1),
    "sum past the top": (3, 2, 5),
}


def _cases():
    for name, (fn, k_min) in ENTRY_POINTS.items():
        for label, space in BAD_SPACES.items():
            if space[1] < 0 and name in ("boltzmann_multi", "nomial_distribution"):
                continue  # no urn has a negative size
            yield pytest.param(fn, space, id=f"{name}-{label}")
        if k_min == 1:
            yield pytest.param(fn, (3, 0, 0), id=f"{name}-no particles")


class TestOneValidator:
    @pytest.mark.parametrize("fn, space", _cases())
    def test_every_entry_point_raises_the_one_message(self, fn, space):
        with pytest.raises(ValueError) as info:
            fn(*space)
        assert MESSAGE.match(str(info.value)), str(info.value)

    @pytest.mark.parametrize("name", list(ENTRY_POINTS))
    def test_sum_past_the_top_reads_the_same_everywhere(self, name):
        with pytest.raises(ValueError) as info:
            ENTRY_POINTS[name][0](3, 2, 5)
        assert str(info.value) == "sum 5 out of range [0, 4] for N=3, K=2"

    def test_an_empty_space_names_what_it_needs(self):
        with pytest.raises(ValueError) as info:
            boltzmann_on_numbers(3, 0, 0)
        assert str(info.value) == "sum 0 out of range [0, -1] for N=3, K=0 (needs N >= 1 and K >= 1)"
        with pytest.raises(ValueError) as info:
            nomial(0, 2, 0)
        assert str(info.value) == "sum 0 out of range [0, -1] for N=0, K=2 (needs N >= 1 and K >= 0)"

    def test_only_multisets_raises_the_range_message(self):
        src = pathlib.Path(markov.__file__).parent
        owners = [p.name for p in sorted(src.glob("*.py")) if "out of range [0" in p.read_text()]
        assert owners == ["multisets.py"]

    @pytest.mark.parametrize("n", range(1, 6))
    def test_no_particle_contracts_stay(self, n):
        assert nomial(n, 0, 0) == 1
        chain = shift_channel(n, 0, 0)
        (phi,) = chain.states
        with pytest.raises(ValueError, match="shift needs at least one particle"):
            chain(phi)
        with pytest.raises(ValueError, match="shift needs at least one particle"):
            chain.push([1], 1)
        levels_chain = shift_on_numbers(n, 0, 0)
        for j in range(n):
            with pytest.raises(ValueError, match="unattainable"):
                levels_chain(j)


class TestEnumeratorsValidateAtTheCall:
    def test_sum_space_raises_before_the_first_element(self):
        with pytest.raises(ValueError, match=MESSAGE):
            enumerate_multisets_with_sum(3, 2, 5)

    def test_negative_size_raises_before_the_first_element(self):
        with pytest.raises(ValueError, match="size must be a natural"):
            enumerate_multisets(levels(2), -1)


def _scan_row(space, j, k, i):
    """One flrn-dagger row by scanning every state and recomputing its
    coefficient: the rule the shared prior replaced."""
    weights = [(phi, coefficient(phi) * phi(j)) for phi in space if phi(j)]
    if not weights:
        raise ValueError(f"level {j} is unattainable with size {k} and energy {i}")
    return Dist(weights, sum(w for _, w in weights))


def _small_spaces():
    for n in range(1, 6):
        for k in range(6):
            for i in range((n - 1) * k + 1):
                yield n, k, i


class TestPriorOwner:
    def test_rows_match_the_per_row_scan(self):
        for n, k, i in _small_spaces():
            space = list(enumerate_multisets_with_sum(n, k, i))
            dagger = flrn_dagger(n, k, i)
            for j in [*range(-1, n + 1), 1.5]:
                try:
                    expected = _scan_row(space, j, k, i)
                except ValueError as exc:
                    with pytest.raises(ValueError) as info:
                        dagger(j)
                    assert str(info.value) == str(exc), (n, k, i, j)
                    continue
                row = dagger(j)
                assert row == expected, (n, k, i, j)
                assert row.support == expected.support, (n, k, i, j)

    @pytest.mark.parametrize("build", [flrn_dagger, shift_on_numbers])
    @pytest.mark.parametrize("n, k, i", [(3, 4, 4), (4, 5, 7), (5, 3, 6)])
    def test_one_enumeration_and_one_coefficient_per_state(self, monkeypatch, build, n, k, i):
        calls = {"enumerate": 0, "coefficient": 0}

        def counting(name, fn):
            def wrapped(*args):
                calls[name] += 1
                return fn(*args)
            return wrapped

        monkeypatch.setattr(markov, "_level_sum_fill", counting("enumerate", _level_sum_fill))
        monkeypatch.setattr(markov, "_vector_coefficient",
                            counting("coefficient", _vector_coefficient))
        channel = build(n, k, i)
        for j in range(n):
            channel(j)
        states = len(list(enumerate_multisets_with_sum(n, k, i)))
        assert calls == {"enumerate": 1, "coefficient": states}


class TestSpaceSize:
    """``_count_with_sum`` reads the Gaussian binomial from the shorter side."""

    def test_count_equals_the_enumeration(self):
        for n in range(1, 9):
            for k in range(9):
                for i in range((n - 1) * k + 1):
                    assert _count_with_sum(n, k, i) == \
                        sum(1 for _ in enumerate_multisets_with_sum(n, k, i)), (n, k, i)

    def test_no_factor_k(self):
        best = float("inf")
        for _ in range(3):
            start = time.perf_counter()
            _count_with_sum(30, 200, 2000)
            best = min(best, time.perf_counter() - start)
        assert best < 0.05, best

    def test_no_factor_above_the_sum(self):
        assert _count_with_sum(10**6, 2, 3) == 2
        best = float("inf")
        for _ in range(3):
            start = time.perf_counter()
            _count_with_sum(10**6, 2, 3)
            best = min(best, time.perf_counter() - start)
        assert best < 0.001, best
