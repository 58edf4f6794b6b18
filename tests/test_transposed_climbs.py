"""The shift chain's climbs compiled as the transpose of its drops, and
configurations built only where the API returns them.

The intermediate psi climbs back to exactly the states that drop into
it, so ``_ShiftChain`` lists each intermediate's climbs in the one drop
pass and never runs ``_climb``, which serves single rows only.  The
compile and ``push`` work on count vectors and integer keys: ``states``
and ``index`` are built on first use, the level chain builds none, and
``sample_trajectory`` builds each configuration it reaches once.
Numeric labels of a multiset with no ground set infer the levels
0..max, so a label past ``MAX_INFERRED_LEVELS`` is refused before any
level is built.
"""

import time

import pytest

from discrete_boltzmann import (
    Multiset,
    accumulate,
    boltzmann_on_multisets,
    enumerate_multisets_with_sum,
    parse_multiset,
    sample_trajectory,
    shift,
    shift_on_numbers,
    stationarity_residual,
)
from discrete_boltzmann import cli, markov, multisets
from discrete_boltzmann.markov import _ShiftChain
from discrete_boltzmann.multisets import MAX_INFERRED_LEVELS


def _forbidden(*args):
    raise AssertionError("the compile ran the climb pass")


@pytest.fixture
def built(monkeypatch):
    """The configurations built through ``Multiset._from_vector``."""
    seen = []
    original = Multiset._from_vector.__func__

    def counting(cls, ground, vec):
        seen.append(vec)
        return original(cls, ground, vec)

    monkeypatch.setattr(Multiset, "_from_vector", classmethod(counting))
    return seen


class TestOneDropPass:
    @pytest.mark.parametrize("n, k, i", [(1, 3, 0), (2, 1, 1), (3, 4, 4), (5, 6, 12), (7, 8, 24)])
    def test_compile_never_climbs(self, monkeypatch, n, k, i):
        expected = _ShiftChain(n, k, i).climbs
        monkeypatch.setattr(markov, "_climb", _forbidden)
        assert _ShiftChain(n, k, i).climbs == expected

    def test_single_rows_still_climb(self, monkeypatch):
        phi = next(enumerate_multisets_with_sum(4, 5, 7))
        monkeypatch.setattr(markov, "_climb", _forbidden)
        with pytest.raises(AssertionError, match="climb pass"):
            shift(phi)


class TestConfigurationsAtTheBoundary:
    def test_compile_and_push_build_no_configuration(self, built):
        chain = _ShiftChain(6, 11, 34)
        size = len(chain.vecs)
        chain.push([1] * size, size)
        assert built == []
        states = chain.states
        assert len(built) == size
        assert chain.states is states
        assert len(built) == size

    def test_call_builds_the_states_once(self, built):
        chain = _ShiftChain(4, 5, 7)
        phi = Multiset._from_vector(chain.ground, chain.vecs[3])
        built.clear()
        chain(phi)
        chain(phi)
        assert len(built) == len(chain.vecs)

    def test_residual_builds_no_configuration(self, built):
        law = boltzmann_on_multisets(5, 6, 12)
        built.clear()
        assert stationarity_residual(law, _ShiftChain(5, 6, 12)) == 0
        assert built == []

    def test_level_chain_builds_no_configuration(self, built):
        numbers = shift_on_numbers(40, 11, 34)
        for level in range(35):
            numbers(level)
        assert built == []

    def test_index_is_built_once(self):
        chain = _ShiftChain(4, 5, 7)
        assert chain.index is chain.index
        assert chain.index == {v: j for j, v in enumerate(chain.vecs)}

    def test_trajectory_builds_each_configuration_once(self, built):
        phi0 = next(enumerate_multisets_with_sum(4, 6, 9))
        path = sample_trajectory(phi0, 300, 5)
        distinct = set(path)
        assert len(distinct) < len(path)
        assert len(built) <= len(distinct)
        assert len({id(phi) for phi in path}) == len(distinct)


class TestInferredLevels:
    @pytest.mark.parametrize("text", ["1|" + "1" * 5000 + ">", "1|99999999999999999999>",
                                      "1|1000000000000000000>", "1|3000000>",
                                      f"1|{MAX_INFERRED_LEVELS}>"])
    def test_a_label_past_the_levels_is_refused_at_once(self, text):
        start = time.perf_counter()
        with pytest.raises(ValueError, match="infer the levels 0..max"):
            parse_multiset(text)
        assert time.perf_counter() - start < 0.1

    def test_accumulate_refuses_the_same_labels(self):
        with pytest.raises(ValueError, match="infer the levels 0..max"):
            accumulate([0, MAX_INFERRED_LEVELS])

    def test_small_labels_and_an_explicit_ground_still_read(self):
        assert len(parse_multiset("2|3> + 1|0>").ground) == 4
        ground = multisets.GroundSet([0, 10 ** 20])
        assert parse_multiset("1|100000000000000000000>", ground)(10 ** 20) == 1

    @pytest.mark.parametrize("label", ["99999999999999999999", "1" * 5000])
    def test_cli_exits_2_with_one_line(self, capsys, label):
        code = cli.run(["multivariate", "polya", "--urn", f"1|{label}>", "--draw", "1"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error: numeric labels infer the levels 0..max")
