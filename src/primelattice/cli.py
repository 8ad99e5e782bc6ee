"""Command-line surface: one subcommand per operation, deterministic output.

Every invocation builds a single record with keys command, inputs, result,
and (where an independent cross-check ran) verification; --format renders
that record as text, JSON, or CSV. Exit codes: 0 success, 1 usage or
domain error, 2 a verification block caught a mismatch, which would mean
an implementation bug rather than bad input.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from typing import NamedTuple, Sequence

from .errors import DomainError
from .factorization import MAX_INPUT, factorize, reconstruct
from .gcdlcm import (
    check_distributive_identity,
    check_product_identity,
    gcd_euclid,
    gcd_lcm_set,
    reduce_ratio,
)
from .landau import (
    BRUTE_FORCE_LIMIT,
    asymptotic_table,
    landau_bruteforce,
    landau_dp,
    partition_count,
    partitions,
)
from .permutation import CycleDecomposition, cycle_decompose, order, verify_order
from .rng import SplitMix64

# above this many applications, the power-iteration cross-check is skipped
_ORDER_CHECK_BUDGET = 10**6
# pairwise lcms must stay below 2**64 for the nested distributive route
_DISTRIBUTIVE_MAX = 2**32 - 1

_DECIMAL = re.compile(r"-?[0-9]+")


class _ParserExit(Exception):
    def __init__(self, status: int, message: str | None) -> None:
        super().__init__(message)
        self.status = status
        self.message = message


class _Parser(argparse.ArgumentParser):
    """argparse reserves exit code 2 for usage errors; this CLI does not."""

    def exit(self, status: int = 0, message: str | None = None) -> None:
        raise _ParserExit(status, message)

    def error(self, message: str) -> None:
        raise _ParserExit(1, f"{self.format_usage()}{self.prog}: error: {message}\n")


class _Output(NamedTuple):
    """One handler's result: the JSON record, text lines, CSV (header, rows), exit code."""

    record: dict
    lines: list[str]
    csv_data: tuple[list[str], list[list[str]]]
    code: int


def _decimal_int(text: str) -> int:
    if not _DECIMAL.fullmatch(text):
        raise argparse.ArgumentTypeError(f"expected a decimal integer, got {text!r}")
    return int(text)


def _decimal_int_list(text: str) -> list[int]:
    items = text.split(",")
    if not all(_DECIMAL.fullmatch(item) for item in items):
        raise argparse.ArgumentTypeError(f"expected comma-separated decimal integers, got {text!r}")
    return [int(item) for item in items]


def _format_ratio(ratio: float | None) -> str:
    return "" if ratio is None else f"{ratio:.6f}"


def _format_witness(parts: Sequence[int]) -> str:
    return "+".join(str(p) for p in parts)


def _pretty_factorization(entries: Sequence[tuple[int, int]]) -> str:
    if not entries:
        return "1"
    return " * ".join(f"{p}^{e}" if e > 1 else f"{p}" for p, e in entries)


def _cmd_factor(args: argparse.Namespace) -> _Output:
    fac = factorize(args.n)
    rebuilt = reconstruct(fac)
    pretty = _pretty_factorization(fac.entries)
    record = {
        "command": "factor",
        "inputs": {"n": args.n},
        "result": {"n": args.n, "factorization": [list(entry) for entry in fac.entries], "pretty": pretty},
        "verification": {"reconstructed": rebuilt, "matches": rebuilt == args.n},
    }
    lines = [f"{args.n} = {pretty}"]
    csv_data = (["n", "factorization"], [[str(args.n), pretty]])
    return _Output(record, lines, csv_data, 0 if rebuilt == args.n else 2)


def _euclid_fold(values: Sequence[int]) -> tuple[int, int]:
    g = 0
    l = 1
    for v in values:
        g = gcd_euclid(g, v)
        l = abs(v) // gcd_euclid(l, v) * l
    return g, l


def _cmd_gcd(args: argparse.Namespace, *, lcm_only: bool = False) -> _Output:
    if len(args.values) < 2:
        raise DomainError("at least two integers are required")
    res = gcd_lcm_set(args.values)
    oracle_gcd, oracle_lcm = _euclid_fold(args.values)
    matches = res.gcd == oracle_gcd and res.lcm == oracle_lcm
    if lcm_only:
        result = {"lcm": res.lcm}
        lines = [f"lcm = {res.lcm}"]
        csv_data = (["lcm"], [[str(res.lcm)]])
    else:
        result = {
            "gcd": res.gcd,
            "lcm": res.lcm,
            "support": list(res.support.primes),
            "min_exponents": list(res.min_exponents.exponents),
            "max_exponents": list(res.max_exponents.exponents),
        }
        lines = [f"gcd = {res.gcd}, lcm = {res.lcm}"]
        csv_data = (["gcd", "lcm"], [[str(res.gcd), str(res.lcm)]])
    record = {
        "command": "lcm" if lcm_only else "gcd",
        "inputs": {"values": list(args.values)},
        "result": result,
        "verification": {"gcd_euclid": oracle_gcd, "lcm_euclid_fold": oracle_lcm, "matches": matches},
    }
    return _Output(record, lines, csv_data, 0 if matches else 2)


def _cmd_lcm(args: argparse.Namespace) -> _Output:
    return _cmd_gcd(args, lcm_only=True)


def _cmd_ratio(args: argparse.Namespace) -> _Output:
    red = reduce_ratio(args.a, args.b)
    cross_ok = abs(args.a) * red.right == abs(args.b) * red.left
    coprime = gcd_euclid(red.left, red.right) == 1
    matches = cross_ok and coprime
    record = {
        "command": "ratio",
        "inputs": {"a": args.a, "b": args.b},
        "result": {"left": red.left, "right": red.right},
        "verification": {"cross_products_equal": cross_ok, "coprime": coprime, "matches": matches},
    }
    lines = [f"ratio = {red.left}:{red.right}"]
    csv_data = (["left", "right"], [[str(red.left), str(red.right)]])
    return _Output(record, lines, csv_data, 0 if matches else 2)


def _synthesize_permutation(lengths: Sequence[int]) -> list[int]:
    # disjoint cycles laid out back to back, each rotating its own block
    perm = []
    base = 0
    for length in lengths:
        perm.extend(range(base + 2, base + length + 1))
        perm.append(base + 1)
        base += length
    return perm


def _cmd_order(args: argparse.Namespace) -> _Output:
    if args.perm is not None:
        decomposition = cycle_decompose(args.perm)
        inputs = {"perm": list(args.perm)}
    else:
        lengths = tuple(sorted(args.cycles, reverse=True))
        decomposition = CycleDecomposition(n=sum(lengths), cycle_lengths=lengths)
        inputs = {"cycles": list(args.cycles)}
    m = order(decomposition)
    verification: dict[str, object] = {"method": "power_iteration"}
    code = 0
    if decomposition.n * m <= _ORDER_CHECK_BUDGET:
        # --cycles gets its one-line form only here, where power iteration uses it
        perm = args.perm if args.perm is not None else _synthesize_permutation(decomposition.cycle_lengths)
        confirmed = verify_order(perm, m)
        verification.update(checked=True, confirmed=confirmed)
        if not confirmed:
            code = 2
    else:
        verification.update(checked=False, confirmed=None)
    record = {
        "command": "order",
        "inputs": inputs,
        "result": {
            "degree": decomposition.n,
            "cycle_lengths": list(decomposition.cycle_lengths),
            "order": m,
        },
        "verification": verification,
    }
    lines = [
        f"cycle lengths = {', '.join(str(x) for x in decomposition.cycle_lengths)}",
        f"order = {m}",
    ]
    csv_data = (["degree", "order"], [[str(decomposition.n), str(m)]])
    return _Output(record, lines, csv_data, code)


def _cmd_landau(args: argparse.Namespace) -> _Output:
    method = args.method
    code = 0
    verification: dict[str, object] | None = None
    if method == "both":
        dp = landau_dp(args.n)
        brute = landau_bruteforce(args.n)
        enumerated = sum(1 for _ in partitions(args.n))
        expected = partition_count(args.n)
        agree = dp.value == brute.value
        counts_match = enumerated == expected
        if not (agree and counts_match):
            code = 2
        record_result = {
            "n": args.n,
            "method": "both",
            "value": dp.value,
            "witness_dp": list(dp.witness.parts),
            "witness_brute": list(brute.witness.parts),
            "partitions_enumerated": enumerated,
            "ratio": dp.ratio,
        }
        verification = {
            "values_agree": agree,
            "partition_count_recurrence": expected,
            "partition_counts_match": counts_match,
        }
        shown = dp
        lines = [
            f"landau({args.n}) = {dp.value}",
            f"witness[dp] = {_format_witness(dp.witness.parts)}",
            f"witness[brute] = {_format_witness(brute.witness.parts)}",
            f"partitions enumerated = {enumerated}",
        ]
    else:
        shown = landau_dp(args.n) if method == "dp" else landau_bruteforce(args.n)
        record_result = {
            "n": args.n,
            "method": method,
            "value": shown.value,
            "witness": list(shown.witness.parts),
            "ratio": shown.ratio,
        }
        lines = [
            f"landau({args.n}) = {shown.value}",
            f"witness = {_format_witness(shown.witness.parts)}",
        ]
    ratio_text = _format_ratio(shown.ratio)
    lines.append(f"ratio = {ratio_text or 'n/a'}")
    record = {"command": "landau", "inputs": {"n": args.n, "method": method}, "result": record_result}
    if verification is not None:
        record["verification"] = verification
    csv_data = (
        ["n", "g_n", "ratio", "witness"],
        [[str(args.n), str(shown.value), ratio_text, _format_witness(shown.witness.parts)]],
    )
    return _Output(record, lines, csv_data, code)


def _cmd_table(args: argparse.Namespace) -> _Output:
    records = asymptotic_table(args.max, args.step)
    header = ["n", "g_n", "ratio", "witness"]
    rows = [
        [str(r.n), str(r.value), _format_ratio(r.ratio), _format_witness(r.witness.parts)]
        for r in records
    ]
    record = {
        "command": "table",
        "inputs": {"max": args.max, "step": args.step, "out": args.out},
        "result": {
            "header": header,
            "rows": [[r.n, r.value, r.ratio, list(r.witness.parts)] for r in records],
        },
    }
    csv_text = "\n".join([",".join(header)] + [",".join(row) for row in rows]) + "\n"
    if args.out:
        with open(args.out, "w", encoding="ascii") as fh:
            fh.write(csv_text)
        lines = [f"wrote {len(rows)} rows to {args.out}"]
    else:
        lines = csv_text.splitlines()
    return _Output(record, lines, (header, rows), 0)


def _sweep_draws(kind: str, rng: SplitMix64, max_value: int) -> tuple[int, ...]:
    width = {"product": 2, "distributive": 3, "oracle": 2, "roundtrip": 1}[kind]
    return tuple(rng.randint(1, max_value) for _ in range(width))


def _sweep_check(kind: str, draw: tuple[int, ...]) -> bool:
    if kind == "product":
        return check_product_identity(*draw).holds
    if kind == "distributive":
        return check_distributive_identity(*draw).holds
    if kind == "oracle":
        a, b = draw
        res = gcd_lcm_set([a, b])
        return res.gcd == gcd_euclid(a, b) and res.gcd * res.lcm == a * b
    n = draw[0]
    return reconstruct(factorize(n)) == n


def verify_sweep(kind: str, count: int, seed: int, max_value: int) -> dict:
    """Run count seeded identity/oracle checks; the draws depend only on the arguments."""
    if count < 1:
        raise DomainError(f"count must be at least 1, got {count}")
    if max_value < 2:
        raise DomainError(f"max must be at least 2, got {max_value}")
    if kind == "distributive" and max_value > _DISTRIBUTIVE_MAX:
        raise DomainError(
            f"distributive sweeps need max <= {_DISTRIBUTIVE_MAX} to keep pairwise lcms inside the 64-bit input range"
        )
    if kind in ("oracle", "product", "roundtrip") and max_value > MAX_INPUT:
        raise DomainError(f"max must stay within the 64-bit input range, got {max_value}")
    rng = SplitMix64(seed)
    passed = 0
    failed = 0
    counterexample: list[int] | None = None
    for _ in range(count):
        draw = _sweep_draws(kind, rng, max_value)
        if _sweep_check(kind, draw):
            passed += 1
        else:
            failed += 1
            if counterexample is None:
                counterexample = list(draw)
    return {
        "kind": kind,
        "count": count,
        "seed": seed,
        "max": max_value,
        "passed": passed,
        "failed": failed,
        "counterexample": counterexample,
    }


def _cmd_verify(args: argparse.Namespace) -> _Output:
    report = verify_sweep(args.kind, args.count, args.seed, args.max)
    record = {
        "command": "verify",
        "inputs": {"kind": args.kind, "count": args.count, "seed": args.seed, "max": args.max},
        "result": report,
    }
    lines = [
        f"verify {report['kind']}: {report['passed']} passed, {report['failed']} failed"
        f" (count {report['count']}, seed {report['seed']}, max {report['max']})"
    ]
    if report["counterexample"] is not None:
        lines.append(f"first counterexample: {', '.join(str(x) for x in report['counterexample'])}")
    csv_data = (
        ["kind", "count", "seed", "max", "passed", "failed"],
        [[report["kind"], str(report["count"]), str(report["seed"]), str(report["max"]),
          str(report["passed"]), str(report["failed"])]],
    )
    return _Output(record, lines, csv_data, 0 if report["failed"] == 0 else 2)


_HANDLERS = {
    "factor": _cmd_factor,
    "gcd": _cmd_gcd,
    "lcm": _cmd_lcm,
    "ratio": _cmd_ratio,
    "order": _cmd_order,
    "landau": _cmd_landau,
    "table": _cmd_table,
    "verify": _cmd_verify,
}


def build_parser() -> _Parser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("text", "json", "csv"), default="text")

    parser = _Parser(prog="primelattice", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, metavar="SUBCOMMAND")

    p = sub.add_parser("factor", parents=[common], help="prime factorization of a positive integer")
    p.add_argument("n", type=_decimal_int)

    p = sub.add_parser("gcd", parents=[common], help="gcd and lcm of two or more nonzero integers")
    p.add_argument("values", type=_decimal_int, nargs="+", metavar="n")

    p = sub.add_parser("lcm", parents=[common], help="lcm of two or more nonzero integers")
    p.add_argument("values", type=_decimal_int, nargs="+", metavar="n")

    p = sub.add_parser("ratio", parents=[common], help="reduce a ratio to lowest terms")
    p.add_argument("a", type=_decimal_int)
    p.add_argument("b", type=_decimal_int)

    p = sub.add_parser("order", parents=[common], help="order of a permutation")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--cycles", type=_decimal_int_list, metavar="c1,c2,...")
    group.add_argument("--perm", type=_decimal_int_list, metavar="i1,i2,...")

    p = sub.add_parser("landau", parents=[common], help="largest lcm over partitions of n")
    p.add_argument("n", type=_decimal_int)
    p.add_argument("--method", choices=("dp", "brute", "both"), default="dp")

    p = sub.add_parser("table", parents=[common], help="growth-ratio table as CSV")
    p.add_argument("--max", type=_decimal_int, required=True)
    p.add_argument("--step", type=_decimal_int, default=1)
    p.add_argument("--out", metavar="FILE", default=None)

    p = sub.add_parser("verify", parents=[common], help="seeded randomized identity sweeps")
    p.add_argument("--kind", choices=("product", "distributive", "oracle", "roundtrip"), required=True)
    p.add_argument("--count", type=_decimal_int, required=True)
    p.add_argument("--seed", type=_decimal_int, required=True)
    p.add_argument("--max", type=_decimal_int, required=True)

    return parser


def _emit(fmt: str, out: _Output) -> None:
    if fmt == "json":
        print(json.dumps(out.record, indent=2))
    elif fmt == "csv":
        header, rows = out.csv_data
        print(",".join(header))
        for row in rows:
            print(",".join(row))
    else:
        for line in out.lines:
            print(line)


def run(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _ParserExit as ex:
        if ex.message:
            print(ex.message, end="", file=sys.stderr)
        return ex.status
    try:
        out = _HANDLERS[args.command](args)
    except (DomainError, OSError) as ex:
        # OSError can only come from writing table --out
        print(f"error: {ex}", file=sys.stderr)
        return 1
    _emit(args.format, out)
    return out.code


def main() -> None:
    sys.exit(run())
