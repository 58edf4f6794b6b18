"""What `import discrete_boltzmann.cli` costs a fresh interpreter.

Every `dboltz` call is a new process, so a module the CLI imports at load
time is paid by every command.  The report classes are named tuples, not
dataclasses (which pull in `inspect`, `ast`, `dis` and `tokenize`), and
`json` and `verify` load only inside the commands that use them.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

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
