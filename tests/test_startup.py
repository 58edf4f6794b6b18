"""What a fresh interpreter loads for `import discrete_boltzmann.cli`,
for each `dboltz` command, and for a bare `import discrete_boltzmann`.

Every `dboltz` call is a new process, so a module the CLI imports at load
time is paid by every command.  The report classes are named tuples, not
dataclasses (which pull in `inspect`, `ast`, `dis` and `tokenize`); each
CLI handler imports the modules it computes with, and the package
resolves its public names lazily, so a command loads only what it runs.
The per-command checks use a clean interpreter (`python -S`, no site
hooks), in which nothing else loads these modules first.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import discrete_boltzmann
from discrete_boltzmann.approx import ApproxReport, CandidateReport, compare
from discrete_boltzmann.verify import CheckResult

SRC = Path(__file__).resolve().parent.parent / "src"
DEFERRED = {"dataclasses", "inspect", "json", "discrete_boltzmann.verify"}


def _modules_after(statement: str) -> set[str]:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    code = f"{statement}\nimport sys\nprint('\\n'.join(sys.modules))"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True, timeout=60)
    return set(proc.stdout.split())


def test_cli_import_loads_no_deferred_module():
    bare = _modules_after("pass")
    loaded = _modules_after("import discrete_boltzmann.cli")
    assert "discrete_boltzmann.cli" in loaded
    assert (loaded - bare) & DEFERRED == set()


def test_report_fields_keep_their_order():
    assert CandidateReport._fields == (
        "name", "dist", "mean", "entropy", "kl_from_reference", "total_variation")
    assert ApproxReport._fields == (
        "energy", "particles", "mu", "reference", "reference_mean", "reference_entropy",
        "candidates", "max_entropy_base", "continuous_rate")
    assert CheckResult._fields == ("name", "ok", "detail", "seconds")


def test_check_result_defaults():
    result = CheckResult("a check", True)
    assert result.detail == "" and result.seconds == 0.0


@pytest.mark.parametrize("make", [
    lambda: compare(6, 2),
    lambda: compare(6, 2).candidates[0],
    lambda: CheckResult("a check", True),
])
def test_reports_are_read_only(make):
    report = make()
    with pytest.raises(AttributeError):
        report.name = "changed"


def test_unknown_candidate_raises_key_error():
    with pytest.raises(KeyError):
        compare(6, 2).candidate("nope")


def _library(*names: str) -> set[str]:
    return {f"discrete_boltzmann.{name}" for name in names}


# command argv -> modules a clean interpreter must not load to run it
COMMAND_DEFERRED = {
    "nomial value": (
        ["nomial", "value", "--levels", "3", "--length", "2", "--sum", "2"],
        {"fractions", "decimal", "random", "json", "typing"}
        | _library("distributions", "boltzmann", "markov", "approx", "multivariate", "verify")),
    "nomial table": (
        ["nomial", "table", "--levels", "3", "--max-length", "3"],
        {"fractions", "decimal", "random", "json", "typing"}
        | _library("distributions", "boltzmann", "markov", "approx", "multivariate", "verify")),
    "boltzmann energy": (
        ["boltzmann", "energy", "--total-energy", "3", "--particles", "4"],
        {"random"} | _library("markov", "approx", "multivariate", "verify")),
    "boltzmann numbers json": (
        ["boltzmann", "numbers", "--levels", "3", "--particles", "3", "--sum", "3",
         "--format", "json"],
        {"random"} | _library("markov", "approx", "multivariate", "verify")),
    "boltzmann multisets csv": (
        ["boltzmann", "multisets", "--levels", "3", "--particles", "2", "--sum", "2",
         "--format", "csv"],
        {"random"} | _library("markov", "approx", "multivariate", "verify")),
    "multivariate polya json": (
        ["multivariate", "polya", "--urn", "1|a> + 2|b>", "--draw", "3", "--format", "json"],
        {"random"} | _library("markov", "approx", "verify")),
    "multivariate boltzmann-multi on levels": (
        ["multivariate", "boltzmann-multi", "--urn", "2|a> + 1|b>", "--levels", "3", "--sum", "4",
         "--on-levels"],
        {"random"} | _library("markov", "approx", "verify")),
}


def _clean_child(code: str) -> tuple[str, set[str]]:
    """Stdout of a ``python -S`` child running ``code``, and the modules it
    then holds."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    code += "\nsys.stdout.flush()\nprint('\\n'.join(sys.modules), file=sys.stderr)"
    proc = subprocess.run([sys.executable, "-S", "-c", f"import sys\n{code}"], env=env,
                          capture_output=True, text=True, check=True, timeout=60)
    return proc.stdout, set(proc.stderr.split())


@pytest.mark.parametrize("argv, deferred", COMMAND_DEFERRED.values(), ids=COMMAND_DEFERRED)
def test_command_loads_only_what_it_runs(argv, deferred):
    _, loaded = _clean_child(
        f"from discrete_boltzmann.cli import run\nassert run({argv!r}) == 0")
    assert _library("nomials") <= loaded
    assert loaded & deferred == set()


def test_bare_package_import_loads_no_submodule():
    _, loaded = _clean_child("import discrete_boltzmann")
    assert "discrete_boltzmann" in loaded
    assert {m for m in loaded if m.startswith("discrete_boltzmann.")} == set()


# The public names the package exported when it imported every module
# eagerly, by home module.  The seven home modules were public names too.
TODAY = {
    "multisets": [
        "GroundSet", "Multiset", "accumulate", "binom", "coefficient", "empty",
        "enumerate_multisets", "enumerate_multisets_with_sum", "format_multiset", "leq",
        "levels", "multichoose", "parse_multiset", "reverse", "size", "som", "unit"],
    "nomials": [
        "NomialTable", "nomial", "nomial_closed_form", "nomial_enum_sequences",
        "nomial_prefix_sum", "nomial_recursive", "nomial_via_multisets", "polynomial_expand",
        "vandermonde_check"],
    "distributions": [
        "Channel", "Dist", "channel_compose", "entropy", "flrn", "image", "kl_divergence",
        "mean", "multiset_coefficient_distribution", "point", "pushforward",
        "total_variation", "uniform", "variance"],
    "boltzmann": [
        "boltzmann_on_energy", "boltzmann_on_multisets", "boltzmann_on_numbers",
        "boltzmann_on_numbers_via_multisets", "microstate_uniform", "projection_marginal",
        "scaled_unnormalized"],
    "markov": [
        "flrn_dagger", "iterate_chain", "sample_trajectory", "shift", "shift_channel",
        "shift_on_numbers", "stationarity_residual", "transition_matrix"],
    "approx": [
        "ApproxReport", "CandidateReport", "compare", "continuous_exponential_pdf",
        "discrete_exponential", "max_entropy_dist", "ratio_approx"],
    "multivariate": [
        "boltzmann_multi", "boltzmann_multi_on_levels", "hypergeometric", "mult_binom",
        "mult_multichoose", "nomial_coeff_multisets", "nomial_distribution", "polya"],
}
TODAY_NAMES = {*TODAY, *(name for names in TODAY.values() for name in names)}


def test_all_dir_and_star_import_give_todays_names():
    assert len(discrete_boltzmann.__all__) == len(TODAY_NAMES) == 77
    assert set(discrete_boltzmann.__all__) == TODAY_NAMES
    # dir() in a fresh interpreter, where no other test has imported a submodule
    fresh, _ = _clean_child("import discrete_boltzmann as d\n"
                            "print(*(name for name in dir(d) if not name.startswith('_')))")
    assert set(fresh.split()) == TODAY_NAMES
    namespace = {}
    exec("from discrete_boltzmann import *", namespace)
    assert set(namespace) - {"__builtins__"} == TODAY_NAMES


@pytest.mark.parametrize("module", TODAY)
def test_each_name_is_its_home_modules_object(module):
    import importlib
    home = importlib.import_module(f"discrete_boltzmann.{module}")
    assert getattr(discrete_boltzmann, module) is home
    for name in TODAY[module]:
        assert getattr(discrete_boltzmann, name) is getattr(home, name), name


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        discrete_boltzmann.no_such_name
    assert not hasattr(discrete_boltzmann, "__wrapped__")


def test_submodules_outside_the_table_import_by_name():
    from discrete_boltzmann import cli, ketform, verify
    assert cli.run and ketform.dist_to_json and verify.run_all
