"""The CI workflow's console-script step and bench-smoke checks, run as
tier-1 tests.

The "Installed entry point" step is the only check of the
[project.scripts] console script, of a closed stdout pipe in both
buffering modes, of a full stdout device, of the table --max 10000 csv and
json md5s and of a full-range distributive sweep. This test reads
the step's `run: |` block from the workflow as plain text (YAML is not in
the standard library) and runs it under `bash -e`, the shell GitHub
Actions uses for a run block, with a `primelattice` shim first on PATH in
place of the installed script. An edit to the step is then exercised by
every tier-1 run, not only on a runner.

The bench-smoke job pipes the last lines of each perfbench run into a
`python3 -c` check. Those two pipelines are read from the workflow the same
way and run on canned result lines, so a check that passes a run it should
fail (or fails a good one) shows here too.
"""

import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
WORKFLOW = ROOT / ".github" / "workflows" / "tests.yml"


def run_block(step_name: str) -> str:
    """The dedented `run: |` block of the workflow step called step_name."""
    lines = WORKFLOW.read_text(encoding="utf-8").splitlines()
    start = [line.strip() for line in lines].index(f"- name: {step_name}")
    run = next(i for i in range(start + 1, len(lines)) if lines[i].strip() == "run: |")
    indent = len(lines[run + 1]) - len(lines[run + 1].lstrip())
    block = []
    for line in lines[run + 1:]:
        if line.strip() and len(line) - len(line.lstrip()) < indent:
            break
        block.append(line[indent:])
    return "\n".join(block) + "\n"


def test_the_step_is_found_whole():
    block = run_block("Installed entry point")
    assert block.startswith('test "$(primelattice factor 360)"')
    assert block.rstrip().endswith("--max 18446744073709551615")


def test_installed_entry_point_step_passes(tmp_path):
    shim = tmp_path / "bin" / "primelattice"
    shim.parent.mkdir()
    src = shlex.quote(str(ROOT / "src"))
    shim.write_text(
        "#!/bin/sh\n"
        f'PYTHONPATH={src}${{PYTHONPATH:+:$PYTHONPATH}} exec {shlex.quote(sys.executable)} -m primelattice "$@"\n'
    )
    shim.chmod(0o755)
    env = dict(os.environ, PATH=f"{shim.parent}{os.pathsep}{os.environ.get('PATH', '')}")
    proc = subprocess.run(
        ["bash", "-e", "-c", run_block("Installed entry point")],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]


def smoke_check(step_name: str) -> str:
    """The `tail ... | python3 -c ...` pipeline of a bench-smoke step."""
    return next(line.strip() for line in run_block(step_name).splitlines() if "| python3 -c " in line)


RESULT = {"correct": True, "attempted": 120, "failed": 0, "metrics": {}}
RECORD = {"workload": "gcd_lattice", "seed": 1, "trace": 1, "missing_spans": []}


def run_smoke_check(tmp_path, step_name, record, result):
    """Run the step's check on a perfbench output file ending in the two
    lines {"record": record} and result, as run.py prints them."""
    shim = tmp_path / "bin" / "python3"
    shim.parent.mkdir(exist_ok=True)
    shim.write_text(f'#!/bin/sh\nexec {shlex.quote(sys.executable)} "$@"\n')
    shim.chmod(0o755)
    lines = ["workload output", json.dumps({"record": record}), json.dumps(result)]
    for name in ("bench-gcd_lattice.out", "bench-gcd_lattice-trace.out"):
        (tmp_path / name).write_text("\n".join(lines) + "\n")
    env = dict(os.environ, w="gcd_lattice", PATH=f"{shim.parent}{os.pathsep}{os.environ.get('PATH', '')}")
    return subprocess.run(
        ["bash", "-e", "-c", smoke_check(step_name)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60,
    )


def test_the_smoke_checks_are_found():
    assert smoke_check("Benchmark smoke run").startswith('tail -n 1 "bench-$w.out" | python3 -c ')
    assert smoke_check("Traced benchmark smoke run").startswith('tail -n 2 "bench-$w-trace.out" | python3 -c ')


@pytest.mark.parametrize("result, passes", [
    (RESULT, True),
    ({**RESULT, "correct": False, "failed": 3}, False),
    ({key: value for key, value in RESULT.items() if key != "correct"}, False),
    ({**RESULT, "correct": 1}, False),
])
def test_smoke_check_passes_only_a_correct_run(tmp_path, result, passes):
    proc = run_smoke_check(tmp_path, "Benchmark smoke run", {"workload": "gcd_lattice"}, result)
    assert (proc.returncode == 0) is passes, proc.stderr
    if not passes:
        assert "gcd_lattice: not correct" in proc.stderr


@pytest.mark.parametrize("record, result, passes", [
    (RECORD, RESULT, True),
    ({**RECORD, "missing_spans": ["permutation.cycle_decompose"]}, RESULT, False),
    ({key: value for key, value in RECORD.items() if key != "missing_spans"}, RESULT, False),
    (RECORD, {**RESULT, "correct": False}, False),
    (RECORD, {key: value for key, value in RESULT.items() if key != "correct"}, False),
])
def test_traced_smoke_check_passes_only_a_correct_run_with_every_span(tmp_path, record, result, passes):
    proc = run_smoke_check(tmp_path, "Traced benchmark smoke run", record, result)
    assert (proc.returncode == 0) is passes, proc.stderr
    if not passes:
        assert "gcd_lattice: traced run not correct or spans missing" in proc.stderr
