import json
import sys
from fractions import Fraction

import pytest

from discrete_boltzmann import (
    Dist,
    boltzmann_multi,
    boltzmann_on_energy,
    boltzmann_on_multisets,
    boltzmann_on_numbers,
    hypergeometric,
    levels,
    nomial_distribution,
    parse_multiset,
    uniform,
)
from discrete_boltzmann.cli import export_plot_data
from discrete_boltzmann.ketform import (
    dist_to_csv_rows,
    dist_to_json,
    dist_to_json_text,
    format_dist,
    parse_dist,
)

F = Fraction


class TestTextForm:
    def test_numbers_format(self):
        text = format_dist(boltzmann_on_energy(3, 4))
        assert text == "1/2|0> + 3/10|1> + 3/20|2> + 1/20|3>"

    def test_numbers_roundtrip(self):
        for dist in (boltzmann_on_energy(8, 6), boltzmann_on_numbers(5, 3, 6),
                     uniform(range(4))):
            assert parse_dist(format_dist(dist)) == dist

    def test_multiset_roundtrip(self):
        for dist in (boltzmann_on_multisets(4, 4, 3), boltzmann_on_multisets(9, 6, 8),
                     hypergeometric(3, parse_multiset("2|a> + 3|b> + 1|c>"))):
            ground = next(iter(dist)).ground
            assert parse_dist(format_dist(dist), ground) == dist

    def test_nested_kets_shape(self):
        text = format_dist(boltzmann_on_multisets(4, 4, 3))
        assert "1/5|1|0> + 3|1>>" in text
        assert "3/5|2|0> + 1|1> + 1|2>>" in text

    def test_symbolic_elements_roundtrip(self):
        psi = parse_multiset("1|a> + 5|b> + 3|c>")
        dist = nomial_distribution(15, psi)
        assert parse_dist(format_dist(dist), psi.ground) == dist

    def test_tuple_elements_roundtrip(self):
        dist = boltzmann_multi(3, parse_multiset("2|a> + 3|b>"), 4)
        assert parse_dist(format_dist(dist), levels(3)) == dist

    def test_whole_weights(self):
        dist = parse_dist("1|0>")
        assert dist(0) == 1

    def test_malformed(self):
        with pytest.raises(ValueError):
            parse_dist("1/2|0> + 1/2|1")
        with pytest.raises(ValueError):
            parse_dist("1/2|0> + 1/3|1>")  # weights do not sum to one


class TestJsonForm:
    def test_schema_fields(self):
        records = dist_to_json(boltzmann_on_energy(3, 4))
        assert records[0] == {
            "element": 0, "numerator": 1, "denominator": 2, "probability": 0.5}
        assert {tuple(sorted(r)) for r in records} == {
            ("denominator", "element", "numerator", "probability")}

    def test_rationals_are_authoritative(self):
        records = dist_to_json(boltzmann_on_energy(8, 6))
        rebuilt = Dist([(r["element"], F(r["numerator"], r["denominator"]))
                        for r in records])
        assert rebuilt == boltzmann_on_energy(8, 6)

    def test_multiset_elements_serialize_as_kets(self):
        records = dist_to_json(boltzmann_on_multisets(4, 4, 3))
        assert {r["element"] for r in records} == {
            "1|0> + 3|1>", "2|0> + 1|1> + 1|2>", "3|0> + 1|3>"}

    def test_json_text_is_valid(self):
        parsed = json.loads(dist_to_json_text(boltzmann_on_numbers(4, 4, 3)))
        assert sum(F(r["numerator"], r["denominator"]) for r in parsed) == 1


class TestCsvForm:
    def test_rows(self):
        rows = dist_to_csv_rows(boltzmann_on_energy(3, 4))
        assert rows[0] == "0,0.5"
        assert rows[1] == "1,0.3"

    def test_tuple_cells_are_quoted(self):
        rows = dist_to_csv_rows(boltzmann_multi(3, parse_multiset("2|a> + 3|b>"), 4))
        assert all(row.startswith('"') for row in rows)


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                    reason="no int-to-str digit limit before Python 3.10.7")
class TestPastTheDigitLimit:
    """Weights of more than 4,300 digits print outside the CLI as they do
    inside it, where the limit is lifted, and the limit stays as it was."""

    def test_text_forms(self, tmp_path):
        omega = Dist({0: 1, 1: 10 ** 5000 - 1}, 10 ** 5000)
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            kets = " + ".join(f"{p}|{x}>" for x, p in omega.items())
            rows = [f"{row},{p.numerator},{p.denominator}"
                    for row, p in zip(dist_to_csv_rows(omega), omega.weights())]
        finally:
            sys.set_int_max_str_digits(limit)
        path = tmp_path / "plot.csv"
        assert str(omega) == format_dist(omega) == kets
        assert repr(omega) == f"<Dist {kets}>"
        export_plot_data(omega, str(path))
        assert path.read_text().splitlines() == ["index,probability,numerator,denominator", *rows]
        assert sys.get_int_max_str_digits() == limit
