"""primelattice benchmark: one workload, one seed, one JSON result.

Usage, from the repository root (needs src/primelattice, Python >= 3.10):
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

--trace 0 prints the end-to-end metrics: setup_s from fresh interpreters
running the workload's set-up, then the others from one workload process
(perfbench/workloads.py). --trace 1 prints the per-layer metrics instead: a
traced workload process measures for S seconds, an untraced one replays the
same ops, and their difference is the tracing overhead, so wrappers never
touch the end-to-end figures. The second-to-last stdout line is a record of
the run (git SHA, Python, CPU count, op count, tail percentile, input
shares); the last line is the result. perfbench/README.md describes the
workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

from tracer import LAYERS, RHO_COUNTER, SPANS
from workloads import SETUP_CODE, WORKLOADS

SETUP_REPEATS = 7
# Every child must finish inside this, so that a run ends within 180 s.
RUN_BUDGET_S = 170.0


class BenchError(Exception):
    pass


def run_child(cmd: list[str], env: dict, deadline: float) -> str:
    """Run cmd to completion and return its stdout; kill its whole process group on timeout."""
    with subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, start_new_session=True) as proc:
        try:
            out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise BenchError(f"timed out: {' '.join(cmd)}") from None
    if proc.returncode != 0:
        raise BenchError(f"exit {proc.returncode}: {' '.join(cmd)}\n{err}")
    return out


def python_seconds(code: str, env: dict, deadline: float) -> float:
    """Median wall time of a fresh interpreter running code."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        run_child([sys.executable, "-c", code], env, deadline)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def workload_process(args: argparse.Namespace, env: dict, deadline: float, *extra: str) -> dict:
    cmd = [sys.executable, str(HERE / "workloads.py"), "--workload", args.workload,
           "--seed", str(args.seed), *extra]
    return json.loads(run_child(cmd, env, deadline).splitlines()[-1])


def end_to_end(args: argparse.Namespace, env: dict, deadline: float) -> tuple[dict, list[dict]]:
    setup_s = python_seconds(SETUP_CODE[args.workload], env, deadline)
    run = workload_process(args, env, deadline, "--seconds", str(args.seconds))
    metrics = {
        "throughput_ops_s": (run["ops"] / run["busy_s"], "ops/s"),
        "op_p50_ms": (run["p50_ms"], "ms"),
        "op_tail_ms": (run["tail_ms"], "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mib": (run["peak_rss_mib"], "MiB"),
    }
    return metrics, [run]


def per_layer(args: argparse.Namespace, env: dict, deadline: float) -> tuple[dict, list[dict]]:
    bare = python_seconds("pass", env, deadline)
    imported = python_seconds("import primelattice.cli", env, deadline)
    traced = workload_process(args, env, deadline, "--seconds", str(args.seconds), "--trace")
    untraced = workload_process(args, env, deadline, "--ops", str(traced["ops"]))

    stats = traced["trace"]["stats"]
    metrics: dict[str, tuple[float, str]] = {}
    for span in SPANS:
        calls, total_ns, self_ns = stats[span]
        metrics[f"{span}.calls"] = (calls, "count")
        metrics[f"{span}.total_s"] = (total_ns / 1e9, "s")
        metrics[f"{span}.self_s"] = (self_ns / 1e9, "s")
    for layer in LAYERS:
        self_s = sum(stats[s][2] for s in SPANS if s.startswith(layer + ".")) / 1e9
        metrics[f"{layer}.self_s"] = (self_s, "s")
        metrics[f"{layer}.self_share"] = (self_s / traced["busy_s"], "ratio")
    factorize_calls = stats["factorization.factorize"][0]
    metrics["factorization.is_prime.per_factorize"] = (
        stats["factorization.is_prime"][0] / factorize_calls if factorize_calls else 0.0, "ratio")
    metrics["factorization.factorize.rho_input_share"] = (
        traced["trace"]["counts"][RHO_COUNTER] / factorize_calls if factorize_calls else 0.0, "ratio")
    metrics["cli_cold.interpreter_s"] = (bare, "s")
    metrics["cli_cold.import_s"] = (imported - bare, "s")
    metrics["trace.traced_s"] = (traced["busy_s"], "s")
    metrics["trace.untraced_s"] = (untraced["busy_s"], "s")
    metrics["trace.overhead_s"] = (traced["busy_s"] - untraced["busy_s"], "s")
    return metrics, [traced, untraced]


def git_sha() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    if not (SRC / "primelattice" / "__init__.py").is_file():
        print(f"error: {SRC / 'primelattice'} not found; run from a primelattice checkout", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_BUDGET_S
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    try:
        metrics, runs = (per_layer if args.trace else end_to_end)(args, env, deadline)
    except BenchError as ex:
        print(f"error: {ex}", file=sys.stderr)
        return 1

    main_run = runs[0]
    attempted = sum(r["ops"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "ops": main_run["ops"],
        "tail_percentile": main_run["tail_percentile"],
        "tail_samples_beyond": main_run["tail_beyond"],
        "shares": main_run["shares"],
        "failed_ratio": failed / attempted,
        "first_error": next((r["first_error"] for r in runs if r["first_error"]), None),
    }
    if args.trace:
        record["missing_spans"] = main_run["trace"]["missing"]
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
