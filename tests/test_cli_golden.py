"""Byte-exact CLI output for one small argv per subcommand and format.

The expected text pins exact outputs and ``.12g`` renderings of exact
rationals only; libm-dependent floats (entropy, KL, ``approx compare``)
are left out so the expectations hold on every platform.
"""

import pytest

from discrete_boltzmann.cli import run

# Each case carries its own pytest id, so adding a case never renames the
# id of one already pinned.
GOLDEN = [
    (
        "nomial-value",
        ["nomial", "value", "--levels", "4", "--length", "4", "--sum", "3", "--route", "recursive"],
        [
            "20",
        ],
    ),
    (
        "nomial-table",
        ["nomial", "table", "--levels", "3", "--max-length", "3"],
        [
            "1",
            "1,1,1",
            "1,2,3,2,1",
            "1,3,6,7,6,3,1",
        ],
    ),
    (
        "nomial-check",
        ["nomial", "check", "--max-levels", "3", "--max-length", "3"],
        [
            "PASS nomial route agreement (N <= 3, K <= 3)",
        ],
    ),
    (
        "boltzmann-energy0",
        ["boltzmann", "energy", "--total-energy", "3", "--particles", "4"],
        [
            "1/2|0> + 3/10|1> + 3/20|2> + 1/20|3>",
        ],
    ),
    (
        "boltzmann-energy1",
        ["boltzmann", "energy", "--total-energy", "3", "--particles", "4", "--scaled"],
        [
            "2,1.2,0.6,0.2",
        ],
    ),
    (
        "boltzmann-numbers0",
        ["boltzmann", "numbers", "--levels", "3", "--particles", "3", "--sum", "3", "--format", "csv"],
        [
            "element,probability",
            "0,0.285714285714",
            "1,0.428571428571",
            "2,0.285714285714",
        ],
    ),
    (
        "boltzmann-numbers1",
        ["boltzmann", "numbers", "--levels", "3", "--particles", "3", "--sum", "2", "--route", "flrn", "--format", "json"],
        [
            '{"command": "dboltz boltzmann numbers --levels 3 --particles 3 --sum 2 --route flrn --format json", "format": "json", "payload": [{"element": 0, "numerator": 1, "denominator": 2, "probability": 0.5}, {"element": 1, "numerator": 1, "denominator": 3, "probability": 0.3333333333333333}, {"element": 2, "numerator": 1, "denominator": 6, "probability": 0.16666666666666666}], "floats_are_approximate": true}',
        ],
    ),
    (
        "boltzmann-multisets0",
        ["boltzmann", "multisets", "--levels", "3", "--particles", "3", "--sum", "3"],
        [
            "1/7|3|1>> + 6/7|1|0> + 1|1> + 1|2>>",
        ],
    ),
    (
        "boltzmann-multisets1",
        ["boltzmann", "multisets", "--levels", "3", "--particles", "2", "--sum", "2", "--format", "csv"],
        [
            "element,probability",
            "2|1>,0.333333333333",
            "1|0> + 1|2>,0.666666666667",
        ],
    ),
    (
        "boltzmann-multisets2",
        ["boltzmann", "multisets", "--levels", "3", "--particles", "2", "--sum", "2", "--format", "json"],
        [
            '{"command": "dboltz boltzmann multisets --levels 3 --particles 2 --sum 2 --format json", "format": "json", "payload": [{"element": "2|1>", "numerator": 1, "denominator": 3, "probability": 0.3333333333333333}, {"element": "1|0> + 1|2>", "numerator": 2, "denominator": 3, "probability": 0.6666666666666666}], "floats_are_approximate": true}',
        ],
    ),
    (
        "markov-stationarity",
        ["markov", "stationarity", "--levels", "3", "--particles", "3", "--sum", "3"],
        [
            "0",
        ],
    ),
    (
        "markov-iterate",
        ["markov", "iterate", "--levels", "3", "--particles", "3", "--sum", "3", "--steps", "3", "--start", "first"],
        [
            "step,tv_distance",
            "0,0.857142857143",
            "1,0.190476190476",
            "2,0.042328042328",
            "3,0.00940623162845",
        ],
    ),
    (
        "markov-iterate-last",
        ["markov", "iterate", "--levels", "3", "--particles", "3", "--sum", "3", "--steps", "3", "--start", "last"],
        [
            "step,tv_distance",
            "0,0.142857142857",
            "1,0.031746031746",
            "2,0.00705467372134",
            "3,0.00156770527141",
        ],
    ),
    (
        "markov-iterate-uniform",
        ["markov", "iterate", "--levels", "3", "--particles", "3", "--sum", "3", "--steps", "3", "--start", "uniform"],
        [
            "step,tv_distance",
            "0,0.357142857143",
            "1,0.0793650793651",
            "2,0.0176366843034",
            "3,0.00391926317852",
        ],
    ),
    (
        "markov-matrix",
        ["markov", "matrix", "--levels", "3", "--particles", "2", "--sum", "2"],
        [
            'state,"2|1>","1|0> + 1|2>"',
            '"2|1>",1/2,1/2',
            '"1|0> + 1|2>",1/4,3/4',
        ],
    ),
    (
        "multivariate-hypergeometric",
        ["multivariate", "hypergeometric", "--urn", "1|a> + 2|b>", "--draw", "2"],
        [
            "2/3|1|a> + 1|b>> + 1/3|2|b>>",
        ],
    ),
    (
        "multivariate-polya",
        ["multivariate", "polya", "--urn", "1|a> + 1|b>", "--draw", "2", "--format", "csv"],
        [
            "element,probability",
            "2|a>,0.333333333333",
            "1|a> + 1|b>,0.333333333333",
            "2|b>,0.333333333333",
        ],
    ),
    (
        "multivariate-nomial-dist",
        ["multivariate", "nomial-dist", "--urn", "1|a> + 1|b>", "--draw", "2", "--format", "json"],
        [
            '{"command": "dboltz multivariate nomial-dist --urn 1|a> + 1|b> --draw 2 --format json", "format": "json", "payload": [{"element": "1|a> + 1|b>", "numerator": 1, "denominator": 1, "probability": 1.0}], "floats_are_approximate": true}',
        ],
    ),
    (
        "multivariate-boltzmann-multi0",
        ["multivariate", "boltzmann-multi", "--urn", "1|a> + 1|b>", "--levels", "2", "--sum", "1"],
        [
            "1/2|1|1>, 1|0>> + 1/2|1|0>, 1|1>>",
        ],
    ),
    (
        "multivariate-boltzmann-multi1",
        ["multivariate", "boltzmann-multi", "--urn", "1|a> + 1|b>", "--levels", "2", "--sum", "1", "--format", "csv"],
        [
            "element,probability",
            '"1|1>, 1|0>",0.5',
            '"1|0>, 1|1>",0.5',
        ],
    ),
    (
        "multivariate-boltzmann-multi2",
        ["multivariate", "boltzmann-multi", "--urn", "1|a> + 1|b>", "--levels", "2", "--sum", "1", "--on-levels"],
        [
            "1/2|1, 0> + 1/2|0, 1>",
        ],
    ),
    (
        "verify-all",
        ["verify", "all", "--max-levels", "2", "--max-size", "2", "--trials", "2"],
        [
            "PASS multisets: enumeration counts  (6 (labels, size) pairs)",
            "PASS multisets: accumulation fibers  (6 brute-force fiber sweeps)",
            "PASS multisets: coefficient sums  (coefficient sums equal N^K)",
            "PASS multisets: reversal laws  (coefficient, som, involution laws)",
            "PASS multichoose: prefix identities  (three multichoose prefix identities, n <= 8)",
            "PASS nomials: route agreement  (9 parameter triples)",
            "PASS nomials: row laws  (row length, sum, palindrome, expansion agreement)",
            "PASS nomials: Vandermonde  (full split sweep)",
            "PASS nomials: prefix-sum theorem  (prefix sums match the multichoose closed form)",
            "PASS distributions: constructors  (normalization and averaged-urn law)",
            "PASS distributions: image law  (image equals point-channel pushforward)",
            "PASS boltzmann: reversal stability  (both families stable under reversal)",
            "PASS boltzmann: mean law  (mean equals i/K everywhere)",
            "PASS boltzmann: route agreement  (nomial-ratio route equals learning pushforward)",
            "PASS boltzmann: energy moments  (mean E/K, closed-form variance, K=2 uniformity)",
            "PASS boltzmann: support truncation  (support within 0..i when i < N)",
            "PASS boltzmann: microstate oracles  (7 microstate spaces checked)",
            "PASS markov: conservation  (size and energy conserved, rows stochastic)",
            "PASS markov: shift stationarity  (Boltzmann-on-multisets is a fixed point)",
            "PASS markov: numbers-chain stationarity  (Boltzmann-on-numbers is a fixed point of the level chain)",
            "PASS markov: Bayesian inversion  (Bayesian inversion reproduces the prior; denominator law)",
            "PASS approx: solver laws  (ratio exactness, solver mean, exact normalization)",
            "PASS multivariate: identity sweep  (2 random urns)",
            "23/23 checks passed",
        ],
    ),
]


def test_golden_ids_are_unique():
    ids = [case_id for case_id, _, _ in GOLDEN]
    assert len(set(ids)) == len(ids)


@pytest.mark.parametrize("argv, lines", [case[1:] for case in GOLDEN], ids=[case[0] for case in GOLDEN])
def test_stdout_is_byte_identical(argv, lines, capsys, monkeypatch):
    monkeypatch.delenv("DBOLTZ_FORMAT", raising=False)
    assert run(argv) == 0
    assert capsys.readouterr().out == "\n".join(lines) + "\n"


def test_output_file_is_byte_identical(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("DBOLTZ_FORMAT", raising=False)
    path = tmp_path / "plot.csv"
    assert run(["boltzmann", "multisets", "--levels", "3", "--particles", "2", "--sum", "2",
                "--output", str(path)]) == 0
    assert capsys.readouterr().out == "1/3|2|1>> + 2/3|1|0> + 1|2>>\n"
    assert path.read_bytes() == (b"index,probability,numerator,denominator\n"
                                 b"2|1>,0.333333333333,1,3\n"
                                 b"1|0> + 1|2>,0.666666666667,2,3\n")
