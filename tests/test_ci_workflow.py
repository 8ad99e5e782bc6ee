"""The CI workflow's console-script step, run as a tier-1 test.

The "Installed entry point" step is the only check of the
[project.scripts] console script, of a closed stdout pipe in both
buffering modes, of a full stdout device, of the table --max 10000 csv md5
and of a full-range distributive sweep. This test reads
the step's `run: |` block from the workflow as plain text (YAML is not in
the standard library) and runs it under `bash -e`, the shell GitHub
Actions uses for a run block, with a `primelattice` shim first on PATH in
place of the installed script. An edit to the step is then exercised by
every tier-1 run, not only on a runner.
"""

import os
import shlex
import subprocess
import sys
from pathlib import Path

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
