import json
import math
import os
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction

import pytest

from discrete_boltzmann import (
    boltzmann_on_energy,
    boltzmann_on_multisets,
    compare,
    continuous_exponential_pdf,
    levels,
)
from discrete_boltzmann.cli import export_plot_data, run
from discrete_boltzmann.ketform import parse_dist

F = Fraction
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def run_lines(capsys, *argv):
    code = run(list(argv))
    out = capsys.readouterr().out
    return code, out.strip().splitlines()


class TestNomialCommands:
    def test_value(self, capsys):
        code, lines = run_lines(capsys, "nomial", "value", "--levels", "9",
                                "--length", "6", "--sum", "8")
        assert code == 0 and lines == ["1287"]

    def test_value_routes_agree(self, capsys):
        results = []
        for route in ("auto", "multisets", "recursive", "sequences"):
            code, lines = run_lines(capsys, "nomial", "value", "--levels", "4",
                                    "--length", "4", "--sum", "3", "--route", route)
            assert code == 0
            results.append(lines[0])
        assert set(results) == {"20"}

    def test_table(self, capsys):
        code, lines = run_lines(capsys, "nomial", "table", "--levels", "3",
                                "--max-length", "4")
        assert code == 0
        assert lines == ["1", "1,1,1", "1,2,3,2,1", "1,3,6,7,6,3,1",
                         "1,4,10,16,19,16,10,4,1"]

    def test_value_beyond_the_int_to_str_digit_limit(self, capsys):
        # C(17999, 9000) has 5,417 digits, past the interpreter's default
        # limit of 4,300; the command prints it without changing the limit
        get_limit = getattr(sys, "get_int_max_str_digits", lambda: 0)
        before = get_limit()
        code, lines = run_lines(capsys, "nomial", "value", "--levels", "9001",
                                "--length", "9000", "--sum", "9000")
        assert get_limit() == before
        assert code == 0 and len(lines) == 1 and len(lines[0]) == 5417
        assert Decimal(lines[0]) == Decimal(math.comb(17999, 9000))

    def test_check(self, capsys):
        code, lines = run_lines(capsys, "nomial", "check", "--max-levels", "3",
                                "--max-length", "4")
        assert code == 0
        assert lines[-1].startswith("PASS")

    def test_check_reports_a_disagreeing_route(self, capsys, monkeypatch):
        import discrete_boltzmann.verify as verify
        monkeypatch.setattr(verify, "nomial_recursive", lambda n, k, i: 7)
        code, lines = run_lines(capsys, "nomial", "check", "--max-levels", "2",
                                "--max-length", "2")
        assert code == 1
        assert lines == ["FAIL nomial route agreement (N <= 2, K <= 2): "
                         "routes disagree at N=1, K=0, i=0: {1, 7}"]


class TestBoltzmannCommands:
    def test_energy_kets(self, capsys):
        code, lines = run_lines(capsys, "boltzmann", "energy", "--total-energy", "3",
                                "--particles", "4", "--format", "kets")
        assert code == 0
        assert lines == ["1/2|0> + 3/10|1> + 3/20|2> + 1/20|3>"]

    def test_numbers_json_roundtrip(self, capsys):
        code, lines = run_lines(capsys, "boltzmann", "numbers", "--levels", "4",
                                "--particles", "4", "--sum", "3", "--format", "json")
        assert code == 0
        envelope = json.loads(lines[0])
        assert envelope["floats_are_approximate"] is True
        rebuilt = {r["element"]: F(r["numerator"], r["denominator"])
                   for r in envelope["payload"]}
        assert rebuilt == {0: F(1, 2), 1: F(3, 10), 2: F(3, 20), 3: F(1, 20)}

    def test_numbers_flrn_route(self, capsys):
        code, lines = run_lines(capsys, "boltzmann", "numbers", "--levels", "4",
                                "--particles", "4", "--sum", "3", "--route", "flrn")
        assert code == 0
        assert parse_dist(lines[0]) == boltzmann_on_energy(3, 4)

    def test_multisets_kets_roundtrip(self, capsys):
        code, lines = run_lines(capsys, "boltzmann", "multisets", "--levels", "9",
                                "--particles", "6", "--sum", "8")
        assert code == 0
        assert parse_dist(lines[0], levels(9)) == boltzmann_on_multisets(9, 6, 8)

    def test_energy_scaled(self, capsys):
        code, lines = run_lines(capsys, "boltzmann", "energy", "--total-energy", "8",
                                "--particles", "6", "--scaled")
        assert code == 0
        values = [float(v) for v in lines[0].split(",")]
        assert values[0] == pytest.approx(2.3077, abs=1e-4)

    def test_csv_format(self, capsys):
        code, lines = run_lines(capsys, "boltzmann", "energy", "--total-energy", "3",
                                "--particles", "4", "--format", "csv")
        assert code == 0
        assert lines[0] == "element,probability"
        assert lines[1] == "0,0.5"

    def test_domain_error_exit_code(self, capsys):
        code = run(["boltzmann", "numbers", "--levels", "3", "--particles", "2",
                    "--sum", "5"])
        assert code == 2

    def test_usage_error_exit_code(self, capsys):
        assert run(["boltzmann", "numbers", "--levels", "3"]) == 2
        assert run(["no-such-command"]) == 2


class TestMarkovCommands:
    def test_stationarity_prints_zero(self, capsys):
        code, lines = run_lines(capsys, "markov", "stationarity", "--levels", "3",
                                "--particles", "6", "--sum", "8")
        assert code == 0 and lines == ["0"]

    def test_iterate_csv(self, capsys):
        code, lines = run_lines(capsys, "markov", "iterate", "--levels", "3",
                                "--particles", "4", "--sum", "4", "--steps", "4",
                                "--start", "first")
        assert code == 0
        assert lines[0] == "step,tv_distance"
        assert len(lines) == 6
        residuals = [float(row.split(",")[1]) for row in lines[1:]]
        assert residuals == sorted(residuals, reverse=True)

    def test_matrix(self, capsys):
        code, lines = run_lines(capsys, "markov", "matrix", "--levels", "3",
                                "--particles", "2", "--sum", "2")
        assert code == 0
        assert lines[0].startswith("state,")
        assert len(lines) == 1 + 2  # two states: 2|1> and 1|0>+1|2>


class TestApproxCommand:
    def test_compare_csv_shape(self, capsys):
        code, lines = run_lines(capsys, "approx", "compare", "--total-energy", "6",
                                "--particles", "3")
        assert code == 0
        assert lines[0] == "j,reference,ratio,discrete-exponential,max-entropy,continuous_pdf"
        assert len(lines) == 8

    def test_compare_grid_adds_pdf_rows(self, capsys):
        code, lines = run_lines(capsys, "approx", "compare", "--total-energy", "4",
                                "--particles", "2", "--grid", "4")
        assert code == 0
        assert len(lines) == 1 + 4 * 4 + 1
        half_row = lines[2].split(",")
        assert half_row[1] == "" and half_row[-1] != ""

    def test_compare_json(self, capsys):
        code, lines = run_lines(capsys, "approx", "compare", "--total-energy", "25",
                                "--particles", "5", "--format", "json")
        assert code == 0
        payload = json.loads(lines[0])
        assert 0.840 <= payload["max_entropy_base"] <= 0.842
        names = [c["name"] for c in payload["candidates"]]
        assert names == ["ratio", "discrete-exponential", "max-entropy"]

    @pytest.mark.parametrize("energy, particles, grid",
                             [(30, 2, 1), (120, 7, 2), (200, 50, 3), (40, 3, 7)])
    def test_compare_csv_cells_are_the_exact_weights_as_decimals(self, capsys, energy,
                                                                   particles, grid):
        report = compare(energy, particles)
        pdf = continuous_exponential_pdf(report.mu)
        dists = [report.reference] + [c.dist for c in report.candidates]
        expected = ["j,reference," + ",".join(c.name for c in report.candidates)
                    + ",continuous_pdf"]
        for step in range(energy * grid + 1):
            x = F(step, grid)
            cells = [f"{float(x):.12g}"]
            if x.denominator == 1:
                cells.extend(f"{float(dist(int(x))):.12g}" for dist in dists)
            else:
                cells.extend([""] * len(dists))
            cells.append(f"{pdf(float(x)):.12g}")
            expected.append(",".join(cells))
        assert run(["approx", "compare", "--total-energy", str(energy), "--particles",
                    str(particles), "--grid", str(grid)]) == 0
        assert capsys.readouterr().out == "\n".join(expected) + "\n"


class TestMultivariateCommands:
    def test_nomial_dist(self, capsys):
        code, lines = run_lines(capsys, "multivariate", "nomial-dist", "--urn",
                                "1|a> + 5|b> + 3|c>", "--draw", "15")
        assert code == 0
        assert lines[0].startswith("7/156|2|a> + 10|b> + 3|c>>")

    def test_hypergeometric_and_polya(self, capsys):
        from discrete_boltzmann import hypergeometric, parse_multiset, polya
        urn = parse_multiset("2|a> + 1|b>")
        for kind, builder in (("hypergeometric", hypergeometric), ("polya", polya)):
            code, lines = run_lines(capsys, "multivariate", kind, "--urn",
                                    "2|a> + 1|b>", "--draw", "2")
            assert code == 0
            assert parse_dist(lines[0], urn.ground) == builder(2, urn)

    def test_boltzmann_multi(self, capsys):
        code, lines = run_lines(capsys, "multivariate", "boltzmann-multi", "--urn",
                                "2|a> + 3|b>", "--levels", "3", "--sum", "4")
        assert code == 0
        assert "," in lines[0]  # tuple-supported elements


class TestVerifyCommand:
    def test_default_scale_sweep_passes(self, capsys):
        code, lines = run_lines(capsys, "verify", "all", "--max-levels", "4",
                                "--max-size", "5")
        assert code == 0
        assert all(line.startswith("PASS") for line in lines[:-1])
        assert lines[-1] == "23/23 checks passed"

    def test_one_timing_line_per_check_on_stderr(self, capsys):
        code = run(["verify", "all", "--max-levels", "2", "--max-size", "2", "--trials", "2"])
        captured = capsys.readouterr()
        names = [line.split(None, 1)[1].split("  (")[0]
                 for line in captured.out.splitlines()[:-1]]
        timings = [line.split(" s ", 1) for line in captured.err.splitlines()]
        assert code == 0 and len(names) == 23
        assert [name for _, name in timings] == names
        assert all(float(seconds) >= 0 for seconds, _ in timings)


class TestEnvironmentFormat:
    def test_default_format_from_env(self, capsys, monkeypatch):
        monkeypatch.setenv("DBOLTZ_FORMAT", "csv")
        code, lines = run_lines(capsys, "boltzmann", "energy", "--total-energy", "3",
                                "--particles", "4")
        assert code == 0
        assert lines[0] == "element,probability"

    def test_explicit_flag_wins(self, capsys, monkeypatch):
        monkeypatch.setenv("DBOLTZ_FORMAT", "csv")
        code, lines = run_lines(capsys, "boltzmann", "energy", "--total-energy", "3",
                                "--particles", "4", "--format", "kets")
        assert code == 0
        assert lines == ["1/2|0> + 3/10|1> + 3/20|2> + 1/20|3>"]


class TestPlotExport:
    def test_roundtrip_file(self, tmp_path):
        path = tmp_path / "plot.csv"
        export_plot_data(boltzmann_on_energy(8, 6), str(path))
        rows = path.read_text().strip().splitlines()
        assert rows[0] == "index,probability,numerator,denominator"
        assert len(rows) == 10
        first = rows[1].split(",")
        assert first[0] == "0"
        assert F(int(first[2]), int(first[3])) == F(5, 13)
        assert float(first[1]) == pytest.approx(5 / 13, abs=1e-12)

    def test_single_point_export(self, tmp_path):
        from discrete_boltzmann import point
        path = tmp_path / "point.csv"
        export_plot_data(point(3), str(path))
        rows = path.read_text().strip().splitlines()
        assert rows == ["index,probability,numerator,denominator", "3,1,1,1"]

    def test_tuple_elements_are_quoted(self, tmp_path):
        from discrete_boltzmann import boltzmann_multi, parse_multiset
        path = tmp_path / "multi.csv"
        export_plot_data(boltzmann_multi(3, parse_multiset("1|a> + 2|b>"), 2), str(path))
        assert path.read_text().splitlines() == [
            "index,probability,numerator,denominator",
            '"1|2>, 2|0>",0.166666666667,1,6',
            '"1|1>, 1|0> + 1|1>",0.333333333333,1,3',
            '"1|0>, 2|1>",0.166666666667,1,6',
            '"1|0>, 1|0> + 1|2>",0.333333333333,1,3',
        ]

    def test_output_flag(self, capsys, tmp_path):
        path = tmp_path / "fig.csv"
        code = run(["boltzmann", "numbers", "--levels", "16", "--particles", "7",
                    "--sum", "21", "--output", str(path)])
        capsys.readouterr()
        assert code == 0
        assert path.exists()
        rows = path.read_text().strip().splitlines()
        assert len(rows) > 2


class TestClosedPipe:
    """A reader that closes stdout early ends the command quietly with exit 1."""

    @pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize("argv, read", [
        (["nomial", "table", "--levels", "3", "--max-length", "300"], 5),  # as `| head -c 5`
        (["nomial", "value", "--levels", "3", "--length", "3", "--sum", "3"], 0),
    ], ids=["table", "value"])
    def test_no_error_text(self, argv, read, buffered):
        env = dict(os.environ, PYTHONPATH=SRC)
        env.pop("PYTHONUNBUFFERED", None)
        if not buffered:
            env["PYTHONUNBUFFERED"] = "1"
        proc = subprocess.Popen([sys.executable, "-m", "discrete_boltzmann.cli", *argv],
                                env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        proc.stdout.read(read)
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == 1
        assert err == b""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="caps the address space")
class TestOutOfMemory:
    """A valid command that does not fit under a 1.5 GB address-space cap
    ends with one error line and exit 2, as a domain error does, not with
    a traceback.  10^8 levels of a ground set do not fit; the numbers
    family builds none and still runs."""

    CAP = 1_500_000_000
    LEVELS = ["--levels", "100000000", "--particles", "2", "--sum", "3"]

    def _capped(self, *argv):
        import resource

        def cap():
            resource.setrlimit(resource.RLIMIT_AS, (self.CAP, self.CAP))

        return subprocess.run([sys.executable, "-m", "discrete_boltzmann.cli", *argv, *self.LEVELS],
                              env=dict(os.environ, PYTHONPATH=SRC), preexec_fn=cap,
                              capture_output=True, text=True, timeout=120)

    @pytest.mark.parametrize("argv", [("markov", "iterate", "--steps", "1"),
                                      ("boltzmann", "multisets")], ids=["iterate", "multisets"])
    def test_exit_2_with_one_line(self, argv):
        proc = self._capped(*argv)
        assert proc.returncode == 2, proc.stderr[-500:]
        assert proc.stdout == ""
        lines = proc.stderr.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error:")

    def test_numbers_family_still_runs(self):
        proc = self._capped("boltzmann", "numbers")
        assert proc.returncode == 0, proc.stderr[-500:]
        assert proc.stdout.strip() == "1/4|0> + 1/4|1> + 1/4|2> + 1/4|3>"
