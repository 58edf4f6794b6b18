"""One writer for exact integers, and no change to the interpreter's limit.

Every text form of the library and the CLI (kets, multiset text, the
plot CSV, JSON, ``nomial value`` and ``nomial table``) writes its
integers through ``multisets._decimal``, which splits a number past the
interpreter's int-to-str digit limit instead of changing the limit.  So
text past 4,300 digits comes out the same inside and outside the CLI,
and nothing here reads or sets the process-wide limit.
"""

import contextlib
import io
import json
import math
import sys
import tracemalloc
from fractions import Fraction as F

import pytest

from discrete_boltzmann import (
    Dist,
    GroundSet,
    Multiset,
    format_multiset,
    parse_multiset,
    ratio_approx,
)
from discrete_boltzmann import ketform
from discrete_boltzmann.cli import run
from discrete_boltzmann.ketform import _json_text, dist_to_json, dist_to_json_text, parse_dist
from discrete_boltzmann.multisets import _decimal, _integer

needs_limit = pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                                 reason="no int-to-str digit limit before Python 3.10.7")


@contextlib.contextmanager
def _lifted_limit():
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


class _Discard(io.TextIOBase):
    """A text writer that keeps nothing."""

    def write(self, text):
        return len(text)


@needs_limit
class TestPastTheLimit:
    def test_cli_never_sets_the_limit(self, monkeypatch, capsys):
        def refuse(limit):
            raise AssertionError("the digit limit was changed")

        monkeypatch.setattr(sys, "set_int_max_str_digits", refuse)
        # C(17999, 9000) has 5,417 digits
        assert run(["nomial", "value", "--levels", "9001", "--length", "9000",
                    "--sum", "9000"]) == 0
        assert len(capsys.readouterr().out.strip()) == 5417
        # at E = 2 and K = 10^4000 the energy law's denominators have 8,000 digits
        assert run(["boltzmann", "energy", "--total-energy", "2", "--particles",
                    "1" + "0" * 4000, "--format", "json"]) == 0
        envelope = json.loads(capsys.readouterr().out, parse_int=len)  # ints as digit counts
        assert [r["denominator"] for r in envelope["payload"]] == [4001, 8000, 8000]

    def test_urn_text_past_the_limit_is_read(self, capsys):
        # `--urn` text reads its counts through `_integer`; the integer flags still follow the limit
        limit = sys.get_int_max_str_digits() or 4300
        big = 10 ** limit
        assert run(["multivariate", "polya", "--urn", "1" + "0" * limit + "|a> + 1|b>",
                    "--draw", "1"]) == 0
        with _lifted_limit():
            expected = f"{big}/{big + 1}|1|a>> + 1/{big + 1}|1|b>>"
        assert capsys.readouterr().out.strip() == expected

    def test_dist_to_json_text_outside_the_cli(self):
        omega = ratio_approx(2000, 1000)
        limit = sys.get_int_max_str_digits()
        text = dist_to_json_text(omega)
        assert sys.get_int_max_str_digits() == limit
        with _lifted_limit():
            expected = json.dumps(dist_to_json(omega))
        assert text == expected
        assert sys.get_int_max_str_digits() == limit

    def test_format_multiset_writes_a_long_count(self):
        limit = sys.get_int_max_str_digits()
        phi = Multiset(GroundSet(["a", "b"]), {"a": 10 ** 5000 - 1, "b": 2})
        assert format_multiset(phi) == str(phi) == "9" * 5000 + "|a> + 2|b>"
        assert sys.get_int_max_str_digits() == limit

    def test_format_multiset_writes_a_long_label(self):
        ground = GroundSet([0, 10 ** 5000])
        phi = Multiset(ground, {10 ** 5000: 1})
        assert format_multiset(phi) == str(phi) == f"1|1{'0' * 5000}>"
        assert parse_multiset(str(phi), ground) == phi
        omega = Dist({phi: 1, Multiset(ground, {0: 1}): 1}, 2)
        assert parse_dist(str(omega), ground) == omega

    def test_long_integer_elements_in_kets_and_csv(self):
        omega = Dist({10 ** 5000: 1, -(10 ** 5000): 1}, 2)
        assert str(omega) == f"1/2|1{'0' * 5000}> + 1/2|-1{'0' * 5000}>"
        assert ketform.dist_to_csv_rows(omega) == [f"1{'0' * 5000},0.5", f"-1{'0' * 5000},0.5"]

    def test_decimal_of_negative_and_positive_integers(self):
        numbers = [0, 7, -7, 10 ** 5000, -(10 ** 5000 - 1), 3 ** 20000, -(2 ** 40000) + 1]
        texts = [_decimal(n) for n in numbers]
        with _lifted_limit():
            assert texts == [str(n) for n in numbers]


@needs_limit
class TestReader:
    """``multisets._integer`` reads what ``_decimal`` writes, past the limit too."""

    def test_integer_of_long_digit_strings(self):
        limit = sys.get_int_max_str_digits()
        numbers = [0, 7, -7, 10 ** 5000, -(10 ** 5000 - 1), 3 ** 20000, -(2 ** 40000) + 1]
        assert [_integer(_decimal(n)) for n in numbers] == numbers
        assert _integer("+" + "0" * 4999 + "12") == 12
        assert sys.get_int_max_str_digits() == limit

    @pytest.mark.parametrize("text", ["", "-", "--5", "1 2", "x" * 5000, "1" * 5000 + "x",
                                      "-" + "1" * 5000 + "-", " " + "1" * 5000, "²" * 5000])
    def test_integer_refuses_what_int_refuses(self, text):
        with pytest.raises(ValueError):
            _integer(text)

    def test_dist_round_trip_past_the_limit(self):
        for omega in (Dist({0: 1, 1: 10 ** 5000 - 1}, 10 ** 5000),
                      Dist({10 ** 5000: 1, -(10 ** 5000): 3}, 4),
                      ratio_approx(2000, 1000)):
            assert parse_dist(str(omega)) == omega

    def test_multiset_round_trip_past_the_limit(self):
        phi = parse_multiset("1" * 5000 + "|a>")
        assert phi("a") == (10 ** 5000 - 1) // 9
        assert str(phi) == "1" * 5000 + "|a>"
        psi = Multiset(GroundSet([0, 1]), {0: 2, 1: 3 ** 20000})
        assert parse_multiset(str(psi)) == psi
        omega = Dist({psi: 1, phi: 2}, 3)
        assert parse_dist(str(omega)) == omega

    @pytest.mark.parametrize("text, weights", [
        ("1/2|0> + 0.5|1>", {0: F(1, 2), 1: F(1, 2)}),
        ("2/4|a> + 1/2|b>", {"a": F(1, 2), "b": F(1, 2)}),
        (" 1/3 |0> + 2/3|1>", {0: F(1, 3), 1: F(2, 3)}),
        ("1e-1|-3> + 9/10|3>", {-3: F(1, 10), 3: F(9, 10)}),
        ("+1|x>", {"x": 1}),
    ])
    def test_other_weight_texts_parse_as_before(self, text, weights):
        assert parse_dist(text) == Dist(weights)


class TestJsonWriter:
    def test_writes_what_json_dumps_writes(self):
        value = {"list": [0, -2, 3.5, -0.0, 5e-324, 1e308, math.inf, -math.inf, math.nan,
                          True, False, None, [], {}],
                 "strings": ["", "ket |0>", "tab\t\"quoted\"\\", "é ü ∑   \U0001f600"],
                 "ünïcode key": {"nested": [[1, [2]], {"x": None}]}}
        assert _json_text(value) == json.dumps(value)

    def test_dist_json_reads_reduced_integers_not_fractions(self, monkeypatch):
        omega = Dist({0: 2, 1: 6, (2, "a"): 4}, 12)
        expected = [
            {"element": 0, "numerator": 1, "denominator": 6, "probability": 1 / 6},
            {"element": 1, "numerator": 1, "denominator": 2, "probability": 0.5},
            {"element": [2, "a"], "numerator": 1, "denominator": 3, "probability": 1 / 3},
        ]

        def refuse(self):
            raise AssertionError("Dist.items builds one Fraction per element")

        monkeypatch.setattr(Dist, "items", refuse)
        assert dist_to_json(omega) == expected
        assert dist_to_json_text(omega) == json.dumps(expected)
        assert not hasattr(ketform, "Fraction")


class TestNomialTableStreams:
    def test_rows_print_as_the_window_makes_them(self):
        argv = ["nomial", "table", "--levels", "3", "--max-length", "400"]
        with contextlib.redirect_stdout(_Discard()):
            run(["nomial", "table", "--levels", "3", "--max-length", "2"])  # load what runs
            tracemalloc.start()
            try:
                assert run(argv) == 0
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        # the whole table of 401 rows holds about 12 MB; one row about 0.1 MB
        assert peak < 2 * 2 ** 20, peak
