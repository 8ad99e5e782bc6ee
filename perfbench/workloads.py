"""Run one benchmark workload in this process and print its figures as JSON.

Usage (primelattice must be importable, e.g. PYTHONPATH=src):
    python perfbench/workloads.py --workload NAME --seed N --seconds S [--trace]
    python perfbench/workloads.py --workload NAME --seed N --ops N

Inputs come from --seed alone. Ops run one at a time (closed loop, one
caller, one thread); each is timed on its own and then checked against an
oracle from oracles.py, outside the timed region. The run stops at a batch
boundary, before the batch expected to end past --seconds of op time, or
once --ops ops are done, which replays exactly the ops of an earlier run
with the same seed. --trace
installs the span tracer (cli_cold traces inside each CLI process instead).
"""

from __future__ import annotations

import argparse
import array
import contextlib
import importlib
import io
import json
import math
import random
import resource
import subprocess
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

import oracles
from tracedcli import TRACE_MARKER
from tracer import RHO_FLOOR, Tracer

HERE = Path(__file__).resolve().parent
U64_MAX = 2**64 - 1

# The work a workload does once per process rather than per op; setup_s times
# a fresh interpreter running this, and every workload process runs it first.
SETUP_CODE = {
    "factor64": "import primelattice as pl; pl.factorize(1000003 * 1000033)",
    "gcd_lattice": "import primelattice as pl; pl.gcd_lcm_set([994009, 997]); pl.order(pl.cycle_decompose([2, 1]))",
    "landau": "import primelattice.cli",
    "cli_cold": "import primelattice.cli",
}

# op_tail_ms sits at a fixed percentile per workload (TAIL_PERCENTILE, in
# tenths of a percent), so that a faster program, which fits more ops into a
# run, is not judged at a higher percentile. A run with fewer than
# TAIL_MIN_BEYOND ops beyond it falls back down this ladder.
TAIL_LADDER = (999, 990, 950, 900, 750, 500)
TAIL_MIN_BEYOND = 10


class Factor64:
    """One op is factorize(n): n uniform in [1, 2**64 - 1], every tenth a balanced semiprime."""

    # p99 has only ~20 ops beyond it in a run, all rho-heavy, and spread by
    # a quarter between seeds; p95 still lies among the rho inputs.
    TAIL_PERCENTILE = 950

    def __init__(self, pl) -> None:
        self.pl = pl

    def batches(self, rng: random.Random):
        for i in range(sys.maxsize):
            if i % 10 == 9:
                # both primes share a bit length in 21..32, and 2**20 > 10**6,
                # so trial division finds neither and rho has to split them
                bits = rng.randint(21, 32)
                yield [("semiprime", oracles.random_prime(rng, bits) * oracles.random_prime(rng, bits))]
            else:
                yield [("uniform", rng.randint(1, U64_MAX))]

    def op(self, item):
        return self.pl.factorize(item[1])

    def check(self, item, out, tally: Counter) -> bool:
        if sum(e for p, e in out.entries if p > RHO_FLOOR) >= 2:
            tally["rho_input"] += 1
        return oracles.factorization_ok(item[1], out.entries)


class GcdLattice:
    """Nine ops in ten: gcd_lcm_set of 2..6 values in [1, 10**6]; the tenth:
    order(cycle_decompose(perm)) of a random permutation of degree 2..2000."""

    # p95 is a permutation of middling degree; p99, the largest ones, moved
    # twice as much as p50 with machine load (0.2 against 0.1 between seeds)
    TAIL_PERCENTILE = 950

    def __init__(self, pl) -> None:
        self.pl = pl

    def batches(self, rng: random.Random):
        for i in range(sys.maxsize):
            if i % 10 == 9:
                perm = list(range(1, rng.randint(2, 2000) + 1))
                rng.shuffle(perm)
                yield [("permutation", perm)]
            else:
                yield [("tuple", [rng.randint(1, 10**6) for _ in range(rng.randint(2, 6))])]

    def op(self, item):
        kind, x = item
        if kind == "tuple":
            return self.pl.gcd_lcm_set(x)
        return self.pl.order(self.pl.cycle_decompose(x))

    def check(self, item, out, tally: Counter) -> bool:
        kind, x = item
        if kind == "tuple":
            return out.gcd == math.gcd(*x) and out.lcm == math.lcm(*x)
        return out == math.lcm(*oracles.cycle_lengths(x))


TABLE_MAX = 10_000
BRUTE_MAX = 30


class Landau:
    """A batch is one round: `table --max 10000` through cli.run in this
    process (one op per row) plus landau_bruteforce(n) for n = 1..30 in
    seeded order. The CLI returns every row at once, so a row's latency is
    the table's wall time divided by its rows. Rows are 99.7% of the ops, so
    p99 is a row's latency too: the 30 brute-force calls are too few for a
    tail, and any one of them alone swings with machine noise."""

    TAIL_PERCENTILE = 990

    def __init__(self, pl) -> None:
        self.pl = pl
        self.cli = importlib.import_module("primelattice.cli")
        self.brute = oracles.landau_brute(BRUTE_MAX)

    def batches(self, rng: random.Random):
        while True:
            ns = list(range(1, BRUTE_MAX + 1))
            rng.shuffle(ns)
            yield [("table", TABLE_MAX)] + [("bruteforce", n) for n in ns]

    def weight(self, item) -> int:
        return TABLE_MAX - 1 if item[0] == "table" else 1

    def op(self, item):
        kind, n = item
        if kind == "bruteforce":
            return self.pl.landau_bruteforce(n)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = self.cli.run(["table", "--max", str(n)])
        return code, out.getvalue()

    def check(self, item, out, tally: Counter) -> bool:
        kind, n = item
        if kind == "bruteforce":
            return out.value == self.brute[n] and oracles.witness_ok(n, out.value, out.witness.parts)
        code, text = out
        lines = text.splitlines()
        if code != 0 or len(lines) != n or lines[0] != "n,g_n,ratio,witness":
            return False
        previous = 0
        for expected, line in enumerate(lines[1:], start=2):
            row_n, g, ratio, witness = line.split(",")
            row_n, g = int(row_n), int(g)
            if (
                row_n != expected
                or g < previous
                or not oracles.witness_ok(row_n, g, [int(x) for x in witness.split("+")])
                or ratio != oracles.landau_ratio_text(row_n, g)
                or (row_n <= BRUTE_MAX and g != self.brute[row_n])
            ):
                return False
            previous = g
        return True


class CliCold:
    """One op is one `python -m primelattice ... --format json` process; the
    command rotates through COMMANDS so every run has the same mix."""

    TAIL_PERCENTILE = 750

    COMMANDS = ("factor", "gcd", "lcm", "ratio", "order", "landau", "landau_both", "verify")
    VERIFY_KINDS = ("product", "distributive", "oracle", "roundtrip")

    def __init__(self, pl) -> None:
        self.tracer: Tracer | None = None  # set to trace inside each CLI process
        self.brute = oracles.landau_brute(BRUTE_MAX)

    def batches(self, rng: random.Random):
        for i in range(sys.maxsize):
            kind = self.COMMANDS[i % len(self.COMMANDS)]
            yield [(kind, self._argv(kind, i // len(self.COMMANDS), rng))]

    def _argv(self, kind: str, round_: int, rng: random.Random) -> list[str]:
        if kind == "factor":
            return ["factor", str(rng.randint(1, U64_MAX))]
        if kind in ("gcd", "lcm"):
            return [kind] + [str(rng.randint(1, 10**12)) for _ in range(rng.randint(2, 5))]
        if kind == "ratio":
            return ["ratio", str(rng.randint(1, 10**18)), str(rng.randint(1, 10**18))]
        if kind == "order":
            return ["order", "--cycles", ",".join(str(rng.randint(1, 60)) for _ in range(rng.randint(1, 6)))]
        if kind == "landau":
            return ["landau", str(rng.randint(1, 1000))]
        if kind == "landau_both":
            return ["landau", str(rng.randint(1, 20)), "--method", "both"]
        verify_kind = self.VERIFY_KINDS[round_ % len(self.VERIFY_KINDS)]
        # distributive sweeps take pairwise lcms, which must stay factorable
        limit = 2**32 - 1 if verify_kind == "distributive" else 10**12
        return ["verify", "--kind", verify_kind, "--count", "20",
                "--seed", str(rng.getrandbits(32)), "--max", str(limit)]

    def op(self, item):
        argv = [*item[1], "--format", "json"]
        if self.tracer is None:
            cmd = [sys.executable, "-m", "primelattice", *argv]
        else:
            cmd = [sys.executable, str(HERE / "tracedcli.py"), *argv]
        return subprocess.run(cmd, capture_output=True, text=True, timeout=60)

    def check(self, item, proc, tally: Counter) -> bool:
        if self.tracer is not None:
            head, _, trace = proc.stderr.rpartition(TRACE_MARKER)
            if trace:
                self.tracer.merge(json.loads(trace))
            proc.stderr = head
        # exit 2 means the CLI's own verification block caught a mismatch
        if proc.returncode != 0:
            return False
        kind, argv = item
        r = json.loads(proc.stdout)["result"]
        if kind == "factor":
            n = int(argv[1])
            return r["n"] == n and oracles.factorization_ok(n, r["factorization"])
        if kind in ("gcd", "lcm"):
            values = [int(v) for v in argv[1:]]
            return r["lcm"] == math.lcm(*values) and (kind == "lcm" or r["gcd"] == math.gcd(*values))
        if kind == "ratio":
            a, b = int(argv[1]), int(argv[2])
            left, right = r["left"], r["right"]
            return left >= 1 and right >= 1 and math.gcd(left, right) == 1 and left * b == right * a
        if kind == "order":
            cycles = [int(c) for c in argv[2].split(",")]
            return r["order"] == math.lcm(*cycles) and sorted(r["cycle_lengths"]) == sorted(cycles)
        if kind == "landau":
            n, value = int(argv[1]), r["value"]
            ratio_ok = r["ratio"] is None if n == 1 else f"{r['ratio']:.6f}" == oracles.landau_ratio_text(n, value)
            return (oracles.witness_ok(n, value, r["witness"]) and ratio_ok
                    and (n > BRUTE_MAX or value == self.brute[n]))
        if kind == "landau_both":
            n, value = int(argv[1]), r["value"]
            return (value == self.brute[n]
                    and oracles.witness_ok(n, value, r["witness_dp"])
                    and oracles.witness_ok(n, value, r["witness_brute"])
                    and r["partitions_enumerated"] == oracles.partition_count(n))
        # every draw of a verify sweep satisfies a true identity
        return r["passed"] == 20 and r["failed"] == 0 and r["counterexample"] is None


WORKLOADS = {"factor64": Factor64, "gcd_lattice": GcdLattice, "landau": Landau, "cli_cold": CliCold}


class Latencies:
    """Per-op latencies in a buffer allocated up front, so that the
    benchmark's own memory does not grow with throughput and move peak RSS."""

    def __init__(self, capacity: int = 1 << 19) -> None:
        self.values = array.array("d", [0.0]) * capacity
        self.n = 0

    def add(self, value: float, count: int) -> None:
        end = self.n + count
        if end > len(self.values):
            self.values.extend(array.array("d", [0.0]) * (end - len(self.values)))
        self.values[self.n:end] = array.array("d", [value]) * count
        self.n = end

    def summary(self, tail_tenths: int) -> dict:
        """Nearest-rank p50, and the tail at tail_tenths, or lower on the
        ladder when fewer than TAIL_MIN_BEYOND ops lie beyond it."""
        ranked = sorted(self.values[: self.n])
        n = len(ranked)

        def rank(tenths: int) -> int:
            return max(0, -(-tenths * n // 1000) - 1)

        for tenths in (tail_tenths, *(t for t in TAIL_LADDER if t < tail_tenths)):
            if n - 1 - rank(tenths) >= TAIL_MIN_BEYOND:
                break
        else:
            tenths = 1000
        return {
            "p50_ms": ranked[rank(500)] * 1e3,
            "tail_ms": ranked[rank(tenths)] * 1e3,
            "tail_percentile": tenths / 10,
            "tail_beyond": n - 1 - rank(tenths),
        }


def measure(workload, seed: int, seconds: float, ops_target: int | None) -> dict:
    weight = getattr(workload, "weight", lambda item: 1)
    latencies = Latencies()
    tally: Counter = Counter()
    ops = failed = 0
    busy = last_batch = 0.0
    first_error = None
    for batch in workload.batches(random.Random(seed)):
        # stop before a batch that, taking as long as the last, would end
        # past --seconds: a second landau round in the same process would
        # skip the DP build, so a round more or less must not hinge on noise
        if (ops >= ops_target) if ops_target else (busy + last_batch > seconds):
            break
        batch_start = busy
        for item in batch:
            error = None
            start = time.perf_counter()
            try:
                out = workload.op(item)
            except Exception:  # a raising op is a failed op; keep measuring
                error = traceback.format_exc()
            elapsed = time.perf_counter() - start
            w = weight(item)
            busy += elapsed
            ops += w
            tally[item[0]] += w
            latencies.add(elapsed / w, w)
            if error is None:
                try:
                    if not workload.check(item, out, tally):
                        error = f"wrong output for {item!r:.300}: {out!r:.300}"
                except Exception:
                    error = f"unreadable output for {item!r:.300}: {traceback.format_exc()}"
            if error is not None:
                failed += w
                first_error = first_error or error
        last_batch = busy - batch_start
    return {
        "ops": ops,
        "failed": failed,
        "busy_s": busy,
        "latencies": latencies,
        "shares": {k: v / ops for k, v in sorted(tally.items())},
        "first_error": first_error,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--seconds", type=float)
    group.add_argument("--ops", type=int)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    import primelattice

    exec(SETUP_CODE[args.workload], {})
    workload = WORKLOADS[args.workload](primelattice)
    # cli_cold's peak RSS is its largest CLI process
    who = resource.RUSAGE_CHILDREN if args.workload == "cli_cold" else resource.RUSAGE_SELF
    tracer = Tracer() if args.trace else None
    if tracer is not None and args.workload == "cli_cold":
        workload.tracer = tracer
    elif tracer is not None:
        tracer.install()
    try:
        result = measure(workload, args.seed, args.seconds, args.ops)
    finally:
        if tracer is not None:
            tracer.uninstall()
    # read before the summary, whose sort allocates in proportion to the op count
    result["peak_rss_mib"] = resource.getrusage(who).ru_maxrss / 1024
    result.update(result.pop("latencies").summary(workload.TAIL_PERCENTILE))
    if tracer is not None:
        result["trace"] = tracer.report()
    print(json.dumps(result))


if __name__ == "__main__":
    main()
