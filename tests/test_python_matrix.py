"""Run tests/matrix_checks.py under the CI matrix's other Python versions.

The workflow tests 3.10 to 3.13; the suite itself runs on one of them. This
runs the stdlib-only matrix checks (every golden CLI case, the pinned usage
errors, and the frozen, slots, rebuild and pickle checks on every domain
type) under each of 3.10, 3.12 and 3.13 that pyenv has installed, with the
workflow's -X dev -W error::ResourceWarning, and skips the versions it
cannot find.
"""

import dataclasses
import os
import shutil
import subprocess
from pathlib import Path

import pytest

import matrix_checks

ROOT = Path(__file__).resolve().parent.parent
PYENV_VERSIONS = Path.home() / ".pyenv" / "versions"
MATRIX = ("3.10", "3.12", "3.13")
# a run takes about 0.2 s; subprocess.run raises TimeoutExpired past this bound
TIMEOUT_S = 3


def _interpreter(minor):
    found = sorted(PYENV_VERSIONS.glob(f"{minor}.*/bin/python3"))
    return found[-1] if found else None


@pytest.mark.parametrize("minor", MATRIX)
def test_matrix_checks_pass(minor):
    python = _interpreter(minor)
    if python is None:
        pytest.skip(f"no Python {minor} under {PYENV_VERSIONS}")
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    command = [str(python), "-B", "-X", "dev", "-W", "error::ResourceWarning", str(ROOT / "tests" / "matrix_checks.py")]
    proc = subprocess.run(command, env=env, capture_output=True, text=True, timeout=TIMEOUT_S)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.startswith(f"Python {minor}."), proc.stdout
    assert proc.stdout.endswith(" 0 failures\n"), proc.stdout


def test_a_golden_mismatch_is_reported(tmp_path):
    golden = tmp_path / "golden"
    shutil.copytree(matrix_checks.GOLDEN_DIR, golden)
    (golden / "gcd_60_90.txt").write_text("gcd = 31\n")
    failures = matrix_checks.golden_failures(golden)
    assert len(failures) == 1 and failures[0].startswith("golden gcd_60_90.txt:"), failures


def test_usage_errors_read_as_pinned_here():
    assert matrix_checks.usage_failures() == []


def test_a_usage_error_mismatch_is_reported():
    argv, last = matrix_checks.USAGE_ERRORS[0]
    failures = matrix_checks.usage_failures([(argv, last + "!")])
    assert len(failures) == 1 and failures[0].startswith("usage error ['factor', '5', '--format', 'yaml']:"), failures


# at module level, so that pickle finds it and only the missing slots are reported
@dataclasses.dataclass(frozen=True)
class Plain:
    x: int


def test_a_dataclass_without_slots_is_reported():
    failures = matrix_checks.domain_failures([Plain(1)])
    assert failures == ["assert_frozen_slots(Plain): AssertionError: Plain has an instance __dict__"]
