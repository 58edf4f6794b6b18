"""Byte-exact help, usage and error text of `dboltz`, and the one-group parser.

`run` parses an argv whose first word is a command group with a parser
in which only that group has arguments; the other groups keep their name
and help line.  These tests pin stdout, stderr and exit code of help,
usage and error cases, and check that the one-group parser never drifts
from the full one.

The argparse text below was captured from the eager parser on CPython
3.11.  argparse rewords its help and errors across Python versions (3.13
prints the metavar of a two-flag option once), so the literal check of
that text runs on 3.11 only; on every version each of those argv prints
through `run` exactly what the full parser prints.  The domain errors
are the library's own messages and are checked on every version.
"""

import sys

import pytest

from discrete_boltzmann import cli
from discrete_boltzmann.cli import run

# Each case carries its own pytest id, so adding a case never renames the
# id of one already pinned.
ARGPARSE_TEXT = [
    (
        "dboltz",
        [],
        2,
        "",
        (
            "usage: dboltz [-h] {nomial,boltzmann,markov,approx,multivariate,verify} ...\n"
            "dboltz: error: the following arguments are required: group\n"
        ),
    ),
    (
        "h",
        ["-h"],
        0,
        (
            "usage: dboltz [-h] {nomial,boltzmann,markov,approx,multivariate,verify} ...\n"
            "\n"
            "Exact N-nomial coefficients and discrete Boltzmann distributions.\n"
            "\n"
            "positional arguments:\n"
            "  {nomial,boltzmann,markov,approx,multivariate,verify}\n"
            "    nomial              N-nomial coefficients\n"
            "    boltzmann           the three distribution families\n"
            "    markov              the sum-preserving shift chain\n"
            "    approx              approximation comparison\n"
            "    multivariate        urn distributions\n"
            "    verify              invariant sweeps\n"
            "\n"
            "options:\n"
            "  -h, --help            show this help message and exit\n"
        ),
        "",
    ),
    (
        "help",
        ["--help"],
        0,
        (
            "usage: dboltz [-h] {nomial,boltzmann,markov,approx,multivariate,verify} ...\n"
            "\n"
            "Exact N-nomial coefficients and discrete Boltzmann distributions.\n"
            "\n"
            "positional arguments:\n"
            "  {nomial,boltzmann,markov,approx,multivariate,verify}\n"
            "    nomial              N-nomial coefficients\n"
            "    boltzmann           the three distribution families\n"
            "    markov              the sum-preserving shift chain\n"
            "    approx              approximation comparison\n"
            "    multivariate        urn distributions\n"
            "    verify              invariant sweeps\n"
            "\n"
            "options:\n"
            "  -h, --help            show this help message and exit\n"
        ),
        "",
    ),
    (
        "nomial-h",
        ["nomial", "-h"],
        0,
        (
            "usage: dboltz nomial [-h] {value,table,check} ...\n"
            "\n"
            "positional arguments:\n"
            "  {value,table,check}\n"
            "    value              one coefficient\n"
            "    table              triangle rows as CSV\n"
            "    check              cross-route agreement sweep\n"
            "\n"
            "options:\n"
            "  -h, --help           show this help message and exit\n"
        ),
        "",
    ),
    (
        "boltzmann-h",
        ["boltzmann", "-h"],
        0,
        (
            "usage: dboltz boltzmann [-h] {multisets,numbers,energy} ...\n"
            "\n"
            "positional arguments:\n"
            "  {multisets,numbers,energy}\n"
            "\n"
            "options:\n"
            "  -h, --help            show this help message and exit\n"
        ),
        "",
    ),
    (
        "markov-h",
        ["markov", "-h"],
        0,
        (
            "usage: dboltz markov [-h] {stationarity,iterate,matrix} ...\n"
            "\n"
            "positional arguments:\n"
            "  {stationarity,iterate,matrix}\n"
            "    stationarity        exact equilibrium residual\n"
            "    iterate             pushforward iteration trace\n"
            "    matrix              explicit transition matrix\n"
            "\n"
            "options:\n"
            "  -h, --help            show this help message and exit\n"
        ),
        "",
    ),
    (
        "approx-h",
        ["approx", "-h"],
        0,
        (
            "usage: dboltz approx [-h] {compare} ...\n"
            "\n"
            "positional arguments:\n"
            "  {compare}\n"
            "\n"
            "options:\n"
            "  -h, --help  show this help message and exit\n"
        ),
        "",
    ),
    (
        "multivariate-h",
        ["multivariate", "-h"],
        0,
        (
            "usage: dboltz multivariate [-h]\n"
            "                           {hypergeometric,polya,nomial-dist,boltzmann-multi}\n"
            "                           ...\n"
            "\n"
            "positional arguments:\n"
            "  {hypergeometric,polya,nomial-dist,boltzmann-multi}\n"
            "\n"
            "options:\n"
            "  -h, --help            show this help message and exit\n"
        ),
        "",
    ),
    (
        "verify-h",
        ["verify", "-h"],
        0,
        (
            "usage: dboltz verify [-h] {all} ...\n"
            "\n"
            "positional arguments:\n"
            "  {all}\n"
            "\n"
            "options:\n"
            "  -h, --help  show this help message and exit\n"
        ),
        "",
    ),
    (
        "nomial-value-h",
        ["nomial", "value", "-h"],
        0,
        (
            "usage: dboltz nomial value [-h] --levels LEVELS --length LENGTH --sum SUM\n"
            "                           [--route {auto,multisets,recursive,sequences}]\n"
            "                           [--budget BUDGET]\n"
            "\n"
            "options:\n"
            "  -h, --help            show this help message and exit\n"
            "  --levels LEVELS\n"
            "  --length LENGTH, --particles LENGTH\n"
            "  --sum SUM\n"
            "  --route {auto,multisets,recursive,sequences}\n"
            "  --budget BUDGET\n"
        ),
        "",
    ),
    (
        "nomial-table-h",
        ["nomial", "table", "-h"],
        0,
        (
            "usage: dboltz nomial table [-h] --levels LEVELS --max-length MAX_LENGTH\n"
            "\n"
            "options:\n"
            "  -h, --help            show this help message and exit\n"
            "  --levels LEVELS\n"
            "  --max-length MAX_LENGTH\n"
        ),
        "",
    ),
    (
        "nomial-check-h",
        ["nomial", "check", "-h"],
        0,
        (
            "usage: dboltz nomial check [-h] [--max-levels MAX_LEVELS]\n"
            "                           [--max-length MAX_LENGTH] [--budget BUDGET]\n"
            "\n"
            "options:\n"
            "  -h, --help            show this help message and exit\n"
            "  --max-levels MAX_LEVELS\n"
            "  --max-length MAX_LENGTH\n"
            "  --budget BUDGET\n"
        ),
        "",
    ),
    (
        "boltzmann-multisets-h",
        ["boltzmann", "multisets", "-h"],
        0,
        (
            "usage: dboltz boltzmann multisets [-h] --levels LEVELS --particles PARTICLES\n"
            "                                  [--sum SUM] [--total-energy TOTAL_ENERGY]\n"
            "                                  [--format {kets,json,csv}] [--output FILE]\n"
            "\n"
            "options:\n"
            "  -h, --help            show this help message and exit\n"
            "  --levels LEVELS\n"
            "  --particles PARTICLES, --length PARTICLES\n"
            "  --sum SUM\n"
            "  --total-energy TOTAL_ENERGY\n"
            "  --format {kets,json,csv}\n"
            "                        output format (default from DBOLTZ_FORMAT, else kets)\n"
            "  --output FILE         also write plot-data CSV (index, probability, exact\n"
            "                        columns)\n"
        ),
        "",
    ),
    (
        "boltzmann-numbers-h",
        ["boltzmann", "numbers", "-h"],
        0,
        (
            "usage: dboltz boltzmann numbers [-h] --levels LEVELS --particles PARTICLES\n"
            "                                [--sum SUM] [--total-energy TOTAL_ENERGY]\n"
            "                                [--route {nomial,flrn}]\n"
            "                                [--format {kets,json,csv}] [--output FILE]\n"
            "\n"
            "options:\n"
            "  -h, --help            show this help message and exit\n"
            "  --levels LEVELS\n"
            "  --particles PARTICLES, --length PARTICLES\n"
            "  --sum SUM\n"
            "  --total-energy TOTAL_ENERGY\n"
            "  --route {nomial,flrn}\n"
            "  --format {kets,json,csv}\n"
            "                        output format (default from DBOLTZ_FORMAT, else kets)\n"
            "  --output FILE         also write plot-data CSV (index, probability, exact\n"
            "                        columns)\n"
        ),
        "",
    ),
    (
        "boltzmann-energy-h",
        ["boltzmann", "energy", "-h"],
        0,
        (
            "usage: dboltz boltzmann energy [-h] --total-energy TOTAL_ENERGY --particles\n"
            "                               PARTICLES [--scaled] [--format {kets,json,csv}]\n"
            "                               [--output FILE]\n"
            "\n"
            "options:\n"
            "  -h, --help            show this help message and exit\n"
            "  --total-energy TOTAL_ENERGY\n"
            "  --particles PARTICLES\n"
            "  --scaled              print K times the weights as decimals\n"
            "  --format {kets,json,csv}\n"
            "                        output format (default from DBOLTZ_FORMAT, else kets)\n"
            "  --output FILE         also write plot-data CSV (index, probability, exact\n"
            "                        columns)\n"
        ),
        "",
    ),
    (
        "markov-stationarity-h",
        ["markov", "stationarity", "-h"],
        0,
        (
            "usage: dboltz markov stationarity [-h] --levels LEVELS --particles PARTICLES\n"
            "                                  --sum SUM\n"
            "\n"
            "options:\n"
            "  -h, --help            show this help message and exit\n"
            "  --levels LEVELS\n"
            "  --particles PARTICLES\n"
            "  --sum SUM, --total-energy SUM\n"
        ),
        "",
    ),
    (
        "markov-iterate-h",
        ["markov", "iterate", "-h"],
        0,
        (
            "usage: dboltz markov iterate [-h] --levels LEVELS --particles PARTICLES --sum\n"
            "                             SUM [--steps STEPS]\n"
            "                             [--start {uniform,first,last}]\n"
            "\n"
            "options:\n"
            "  -h, --help            show this help message and exit\n"
            "  --levels LEVELS\n"
            "  --particles PARTICLES\n"
            "  --sum SUM, --total-energy SUM\n"
            "  --steps STEPS\n"
            "  --start {uniform,first,last}\n"
        ),
        "",
    ),
    (
        "markov-matrix-h",
        ["markov", "matrix", "-h"],
        0,
        (
            "usage: dboltz markov matrix [-h] --levels LEVELS --particles PARTICLES --sum\n"
            "                            SUM\n"
            "\n"
            "options:\n"
            "  -h, --help            show this help message and exit\n"
            "  --levels LEVELS\n"
            "  --particles PARTICLES\n"
            "  --sum SUM, --total-energy SUM\n"
        ),
        "",
    ),
    (
        "approx-compare-h",
        ["approx", "compare", "-h"],
        0,
        (
            "usage: dboltz approx compare [-h] --total-energy TOTAL_ENERGY --particles\n"
            "                             PARTICLES [--grid GRID] [--format {csv,json}]\n"
            "\n"
            "options:\n"
            "  -h, --help            show this help message and exit\n"
            "  --total-energy TOTAL_ENERGY\n"
            "  --particles PARTICLES\n"
            "  --grid GRID           subdivisions per level for the continuous overlay\n"
            "  --format {csv,json}\n"
        ),
        "",
    ),
    (
        "multivariate-hypergeometric-h",
        ["multivariate", "hypergeometric", "-h"],
        0,
        (
            "usage: dboltz multivariate hypergeometric [-h] --urn URN --draw DRAW\n"
            "                                          [--format {kets,json,csv}]\n"
            "                                          [--output FILE]\n"
            "\n"
            "options:\n"
            "  -h, --help            show this help message and exit\n"
            "  --urn URN             multiset text, e.g. \"1|a> + 5|b> + 3|c>\"\n"
            "  --draw DRAW, --sum DRAW\n"
            "  --format {kets,json,csv}\n"
            "                        output format (default from DBOLTZ_FORMAT, else kets)\n"
            "  --output FILE         also write plot-data CSV (index, probability, exact\n"
            "                        columns)\n"
        ),
        "",
    ),
    (
        "multivariate-polya-h",
        ["multivariate", "polya", "-h"],
        0,
        (
            "usage: dboltz multivariate polya [-h] --urn URN --draw DRAW\n"
            "                                 [--format {kets,json,csv}] [--output FILE]\n"
            "\n"
            "options:\n"
            "  -h, --help            show this help message and exit\n"
            "  --urn URN             multiset text, e.g. \"1|a> + 5|b> + 3|c>\"\n"
            "  --draw DRAW, --sum DRAW\n"
            "  --format {kets,json,csv}\n"
            "                        output format (default from DBOLTZ_FORMAT, else kets)\n"
            "  --output FILE         also write plot-data CSV (index, probability, exact\n"
            "                        columns)\n"
        ),
        "",
    ),
    (
        "multivariate-nomial-dist-h",
        ["multivariate", "nomial-dist", "-h"],
        0,
        (
            "usage: dboltz multivariate nomial-dist [-h] --urn URN --draw DRAW\n"
            "                                       [--levels LEVELS]\n"
            "                                       [--format {kets,json,csv}]\n"
            "                                       [--output FILE]\n"
            "\n"
            "options:\n"
            "  -h, --help            show this help message and exit\n"
            "  --urn URN             multiset text, e.g. \"1|a> + 5|b> + 3|c>\"\n"
            "  --draw DRAW, --sum DRAW\n"
            "  --levels LEVELS       colour count N (default: size of the urn's ground set)\n"
            "  --format {kets,json,csv}\n"
            "                        output format (default from DBOLTZ_FORMAT, else kets)\n"
            "  --output FILE         also write plot-data CSV (index, probability, exact\n"
            "                        columns)\n"
        ),
        "",
    ),
    (
        "multivariate-boltzmann-multi-h",
        ["multivariate", "boltzmann-multi", "-h"],
        0,
        (
            "usage: dboltz multivariate boltzmann-multi [-h] --urn URN --levels LEVELS\n"
            "                                           --sum SUM [--on-levels]\n"
            "                                           [--format {kets,json,csv}]\n"
            "                                           [--output FILE]\n"
            "\n"
            "options:\n"
            "  -h, --help            show this help message and exit\n"
            "  --urn URN             multiset text, e.g. \"1|a> + 5|b> + 3|c>\"\n"
            "  --levels LEVELS\n"
            "  --sum SUM, --total-energy SUM\n"
            "  --on-levels           push each component through frequentist learning\n"
            "  --format {kets,json,csv}\n"
            "                        output format (default from DBOLTZ_FORMAT, else kets)\n"
            "  --output FILE         also write plot-data CSV (index, probability, exact\n"
            "                        columns)\n"
        ),
        "",
    ),
    (
        "verify-all-h",
        ["verify", "all", "-h"],
        0,
        (
            "usage: dboltz verify all [-h] [--max-levels MAX_LEVELS] [--max-size MAX_SIZE]\n"
            "                         [--budget BUDGET] [--trials TRIALS]\n"
            "\n"
            "options:\n"
            "  -h, --help            show this help message and exit\n"
            "  --max-levels MAX_LEVELS\n"
            "  --max-size MAX_SIZE\n"
            "  --budget BUDGET\n"
            "  --trials TRIALS\n"
        ),
        "",
    ),
    (
        "no-such-command",
        ["no-such-command"],
        2,
        "",
        (
            "usage: dboltz [-h] {nomial,boltzmann,markov,approx,multivariate,verify} ...\n"
            "dboltz: error: argument group: invalid choice: 'no-such-command' (choose from 'nomial', 'boltzmann', 'markov', 'approx', 'multivariate', 'verify')\n"
        ),
    ),
    (
        "nomial",
        ["nomial"],
        2,
        "",
        (
            "usage: dboltz nomial [-h] {value,table,check} ...\n"
            "dboltz nomial: error: the following arguments are required: action\n"
        ),
    ),
    (
        "nomial-no-such-action",
        ["nomial", "no-such-action"],
        2,
        "",
        (
            "usage: dboltz nomial [-h] {value,table,check} ...\n"
            "dboltz nomial: error: argument action: invalid choice: 'no-such-action' (choose from 'value', 'table', 'check')\n"
        ),
    ),
    (
        "markov-stationarity-levels-3-particles-2-sum-2-bogus-1",
        ["markov", "stationarity", "--levels", "3", "--particles", "2", "--sum", "2", "--bogus", "1"],
        2,
        "",
        (
            "usage: dboltz [-h] {nomial,boltzmann,markov,approx,multivariate,verify} ...\n"
            "dboltz: error: unrecognized arguments: --bogus 1\n"
        ),
    ),
    (
        "boltzmann-numbers-levels-3",
        ["boltzmann", "numbers", "--levels", "3"],
        2,
        "",
        (
            "usage: dboltz boltzmann numbers [-h] --levels LEVELS --particles PARTICLES\n"
            "                                [--sum SUM] [--total-energy TOTAL_ENERGY]\n"
            "                                [--route {nomial,flrn}]\n"
            "                                [--format {kets,json,csv}] [--output FILE]\n"
            "dboltz boltzmann numbers: error: the following arguments are required: --particles/--length\n"
        ),
    ),
    (
        "boltzmann-energy-total-energy-3-particles-4-format-xml",
        ["boltzmann", "energy", "--total-energy", "3", "--particles", "4", "--format", "xml"],
        2,
        "",
        (
            "usage: dboltz boltzmann energy [-h] --total-energy TOTAL_ENERGY --particles\n"
            "                               PARTICLES [--scaled] [--format {kets,json,csv}]\n"
            "                               [--output FILE]\n"
            "dboltz boltzmann energy: error: argument --format: invalid choice: 'xml' (choose from 'kets', 'json', 'csv')\n"
        ),
    ),
    (
        "approx-compare-total-energy-3-particles-4-format-kets",
        ["approx", "compare", "--total-energy", "3", "--particles", "4", "--format", "kets"],
        2,
        "",
        (
            "usage: dboltz approx compare [-h] --total-energy TOTAL_ENERGY --particles\n"
            "                             PARTICLES [--grid GRID] [--format {csv,json}]\n"
            "dboltz approx compare: error: argument --format: invalid choice: 'kets' (choose from 'csv', 'json')\n"
        ),
    ),
    (
        "nomial-value-levels-x-length-2-sum-2",
        ["nomial", "value", "--levels", "x", "--length", "2", "--sum", "2"],
        2,
        "",
        (
            "usage: dboltz nomial value [-h] --levels LEVELS --length LENGTH --sum SUM\n"
            "                           [--route {auto,multisets,recursive,sequences}]\n"
            "                           [--budget BUDGET]\n"
            "dboltz nomial value: error: argument --levels: invalid int value: 'x'\n"
        ),
    ),
]

DOMAIN_ERRORS = [
    ("nomial-value-levels-3-length-2-sum-5",
     ["nomial", "value", "--levels", "3", "--length", "2", "--sum", "5"],
     "error: sum 5 out of range [0, 4] for N=3, K=2\n"),
    ("nomial-value-levels-6-length-8-sum-20-route-sequences-budget-100",
     ["nomial", "value", "--levels", "6", "--length", "8", "--sum", "20", "--route", "sequences", "--budget", "100"],
     "error: enumeration of 6**8 sequences exceeds budget 100\n"),
    ("nomial-table-levels-0-max-length-2",
     ["nomial", "table", "--levels", "0", "--max-length", "2"],
     "error: sum 0 out of range [0, -1] for N=0, K=2 (needs N >= 1 and K >= 0)\n"),
    ("nomial-table-levels-3-max-length-1",
     ["nomial", "table", "--levels", "3", "--max-length", "-1"],
     "error: sum 0 out of range [0, -1] for N=3, K=-1 (needs N >= 1 and K >= 0)\n"),
    ("boltzmann-numbers-levels-3-particles-2",
     ["boltzmann", "numbers", "--levels", "3", "--particles", "2"],
     "error: need --sum (or --total-energy) for this family\n"),
    ("boltzmann-numbers-levels-3-particles-2-sum-5",
     ["boltzmann", "numbers", "--levels", "3", "--particles", "2", "--sum", "5"],
     "error: sum 5 out of range [0, 4] for N=3, K=2\n"),
    ("boltzmann-numbers-levels-3-particles-2-sum-5-route-flrn",
     ["boltzmann", "numbers", "--levels", "3", "--particles", "2", "--sum", "5", "--route", "flrn"],
     "error: sum 5 out of range [0, 4] for N=3, K=2\n"),
    ("boltzmann-multisets-levels-3-particles-0-sum-0",
     ["boltzmann", "multisets", "--levels", "3", "--particles", "0", "--sum", "0"],
     "error: sum 0 out of range [0, -1] for N=3, K=0 (needs N >= 1 and K >= 1)\n"),
    ("boltzmann-energy-total-energy-3-particles-0",
     ["boltzmann", "energy", "--total-energy", "3", "--particles", "0"],
     "error: energy family needs E >= 1 and K >= 2\n"),
    ("boltzmann-energy-total-energy-1-particles-2-scaled",
     ["boltzmann", "energy", "--total-energy", "-1", "--particles", "2", "--scaled"],
     "error: energy family needs E >= 1 and K >= 2\n"),
    ("markov-stationarity-levels-3-particles-2-sum-5",
     ["markov", "stationarity", "--levels", "3", "--particles", "2", "--sum", "5"],
     "error: sum 5 out of range [0, 4] for N=3, K=2\n"),
    ("markov-iterate-levels-3-particles-2-sum-5",
     ["markov", "iterate", "--levels", "3", "--particles", "2", "--sum", "5"],
     "error: sum 5 out of range [0, 4] for N=3, K=2\n"),
    ("markov-iterate-levels-3-particles-2-sum-2-steps-1",
     ["markov", "iterate", "--levels", "3", "--particles", "2", "--sum", "2", "--steps", "-1"],
     "error: steps must be at least 0, got -1\n"),
    ("markov-matrix-levels-12-particles-16-sum-80",
     ["markov", "matrix", "--levels", "12", "--particles", "16", "--sum", "80"],
     "error: 234448 states exceed the matrix limit 10000\n"),
    ("approx-compare-total-energy-5-particles-0",
     ["approx", "compare", "--total-energy", "5", "--particles", "0"],
     "error: energy family needs E >= 1 and K >= 2\n"),
    ("approx-compare-total-energy-1-particles-2",
     ["approx", "compare", "--total-energy", "-1", "--particles", "2"],
     "error: energy family needs E >= 1 and K >= 2\n"),
    ("multivariate-polya-urn-1_a_-draw-2",
     ["multivariate", "polya", "--urn", "1|a> + ", "--draw", "2"],
     "error: malformed multiset term ''\n"),
    ("multivariate-hypergeometric-urn-1_a_2_b_-draw-4",
     ["multivariate", "hypergeometric", "--urn", "1|a> + 2|b>", "--draw", "4"],
     "error: cannot draw 4 from an urn of size 3\n"),
    ("multivariate-polya-urn-1_a_2_b_-draw-1",
     ["multivariate", "polya", "--urn", "1|a> + 2|b>", "--draw", "-1"],
     "error: draw size must be a natural\n"),
    ("multivariate-nomial-dist-urn-1_a_2_b_-draw-9",
     ["multivariate", "nomial-dist", "--urn", "1|a> + 2|b>", "--draw", "9"],
     "error: sum 9 out of range [0, 3] for N=2, K=3\n"),
    ("multivariate-boltzmann-multi-urn-1_a_2_b_-levels-3-sum-9",
     ["multivariate", "boltzmann-multi", "--urn", "1|a> + 2|b>", "--levels", "3", "--sum", "9"],
     "error: sum 9 out of range [0, 6] for N=3, K=3\n"),
    ("multivariate-boltzmann-multi-urn-0_a_2_b_-levels-3-sum-2-on-levels",
     ["multivariate", "boltzmann-multi", "--urn", "0|a> + 2|b>", "--levels", "3", "--sum", "2", "--on-levels"],
     "error: componentwise learning needs psi(x) >= 1 on every kind\n"),
]

# Valid argv of every subcommand; the one-group parser must read each into
# the namespace the full parser reads.
VALID = [
    ["nomial", "value", "--levels", "4", "--particles", "4", "--sum", "3", "--route", "recursive"],
    ["nomial", "value", "--lev", "3", "--length", "2", "--sum", "2"],
    ["nomial", "table", "--levels", "3", "--max-length", "3"],
    ["nomial", "check"],
    ["boltzmann", "energy", "--total-energy", "3", "--particles", "4", "--scaled"],
    ["boltzmann", "numbers", "--levels", "3", "--length", "3", "--total-energy", "2",
     "--route", "flrn", "--format", "json"],
    ["boltzmann", "multisets", "--levels", "3", "--particles", "2", "--sum", "2",
     "--output", "plot.csv"],
    ["markov", "stationarity", "--levels", "3", "--particles", "3", "--sum", "3"],
    ["markov", "iterate", "--levels", "3", "--particles", "3", "--total-energy", "3",
     "--steps", "2", "--start", "last"],
    ["markov", "matrix", "--levels", "2", "--particles", "2", "--sum", "1"],
    ["approx", "compare", "--total-energy", "6", "--particles", "3", "--grid", "2",
     "--format", "json"],
    ["multivariate", "hypergeometric", "--urn", "1|a> + 2|b>", "--draw", "2"],
    ["multivariate", "polya", "--urn", "1|a> + 2|b>", "--sum", "2", "--format", "csv"],
    ["multivariate", "nomial-dist", "--urn", "1|a> + 2|b>", "--draw", "2", "--levels", "3"],
    ["multivariate", "boltzmann-multi", "--urn", "1|a> + 1|b>", "--levels", "2", "--sum", "1",
     "--on-levels"],
    ["verify", "all", "--max-levels", "2", "--trials", "2"],
]


def _full_parser_output(argv, capsys):
    """(exit code, stdout, stderr) of the full parser alone on ``argv``."""
    try:
        cli._build_parser().parse_args(argv)
        code = None
    except SystemExit as exc:
        code = int(exc.code or 0)
    out, err = capsys.readouterr()
    return code, out, err


@pytest.fixture(autouse=True)
def _fixed_width(monkeypatch):
    # argparse wraps help and usage at the terminal width
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.delenv("DBOLTZ_FORMAT", raising=False)


def test_case_ids_are_unique():
    ids = [case[0] for case in ARGPARSE_TEXT + DOMAIN_ERRORS]
    assert len(set(ids)) == len(ids)


@pytest.mark.skipif(sys.version_info[:2] != (3, 11),
                    reason="argparse text was captured on CPython 3.11")
@pytest.mark.parametrize("argv, code, out, err", [case[1:] for case in ARGPARSE_TEXT],
                         ids=[case[0] for case in ARGPARSE_TEXT])
def test_argparse_text_is_byte_identical(argv, code, out, err, capsys):
    assert run(argv) == code
    assert capsys.readouterr() == (out, err)


@pytest.mark.parametrize("argv", [case[1] for case in ARGPARSE_TEXT],
                         ids=[case[0] for case in ARGPARSE_TEXT])
def test_argparse_text_comes_from_the_full_parser(argv, capsys):
    code = run(argv)
    out, err = capsys.readouterr()
    assert (code, out, err) == _full_parser_output(argv, capsys)


@pytest.mark.parametrize("argv, err", [case[1:] for case in DOMAIN_ERRORS],
                         ids=[case[0] for case in DOMAIN_ERRORS])
def test_domain_error_text_is_byte_identical(argv, err, capsys):
    assert run(argv) == 2
    assert capsys.readouterr() == ("", err)


@pytest.mark.parametrize("argv", VALID, ids=[" ".join(argv[:2]) for argv in VALID])
def test_one_group_parser_reads_the_full_namespace(argv):
    one = cli._build_parser(argv[0]).parse_args(argv)
    assert vars(one) == vars(cli._build_parser().parse_args(argv))


def _parsers_built(monkeypatch, argv):
    built = []
    build = cli._build_parser

    def spy(group=None):
        built.append(group)
        return build(group)

    monkeypatch.setattr(cli, "_build_parser", spy)
    try:
        cli._parse(argv)
    except SystemExit:
        pass
    return built


@pytest.mark.parametrize("argv", VALID, ids=[" ".join(argv[:2]) for argv in VALID])
def test_a_valid_argv_builds_only_its_group(argv, monkeypatch):
    assert _parsers_built(monkeypatch, argv) == [argv[0]]


@pytest.mark.parametrize("argv, built", [
    ([], [None]),
    (["-h"], [None]),
    (["no-such-command"], [None]),
    (["nomial", "-h"], ["nomial"]),
    (["nomial", "value", "--levels", "x", "--length", "2", "--sum", "2"], ["nomial"]),
    (["markov", "stationarity", "--levels", "3", "--particles", "2", "--sum", "2",
      "--bogus", "1"], ["markov"]),
])
def test_help_and_errors_are_parsed_once(argv, built, monkeypatch, capsys):
    assert _parsers_built(monkeypatch, argv) == built
