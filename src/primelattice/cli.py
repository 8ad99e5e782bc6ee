"""Command-line surface: one subcommand per operation, deterministic output.

Every invocation builds a single record with keys command, inputs (the
parsed arguments), result, and (where an independent cross-check ran)
verification; --format renders that record as text, JSON, or CSV, and the
rendered output is written in one piece. Exit codes: 0 success, 1 usage or
domain error, 2 a verification block caught a mismatch, which would mean
an implementation bug rather than bad input.
"""

from __future__ import annotations

import argparse
import errno
import json
import math
import os
import re
import sys
from typing import Iterable, NamedTuple, Sequence

from .errors import DomainError, _integers, _safe_repr
from .factorization import MAX_INPUT, factorize, reconstruct
from .gcdlcm import (
    _euclid_fold,
    check_distributive_identity,
    check_product_identity,
    gcd_euclid,
    gcd_lcm_set,
    reduce_ratio,
)
from .landau import (
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

_DECIMAL = re.compile(r"-?[0-9]+")
# a malformed argument is quoted up to this many characters, then by its length
_QUOTE_LIMIT = 20
_TABLE_HEADER = ("n", "g_n", "ratio", "witness")


class _Parser(argparse.ArgumentParser):
    """argparse reserves exit code 2 for usage errors; this CLI does not.

    argparse echoes an unrecognized argument or an invalid choice whole;
    here a long or unprintable one is quoted as _quoted does, so the error
    stays one short line.
    """

    def error(self, message: str) -> None:
        self.exit(1, f"{self.format_usage()}{self.prog}: error: {message}\n")

    def parse_args(  # type: ignore[override]
        self, args: Sequence[str] | None = None, namespace: argparse.Namespace | None = None
    ) -> argparse.Namespace:
        parsed, extras = self.parse_known_args(args, namespace)
        if extras:
            shown = (a if len(a) <= _QUOTE_LIMIT and a.isprintable() else _quoted(a) for a in extras)
            self.error(f"unrecognized arguments: {' '.join(shown)}")
        return parsed

    def _check_value(self, action: argparse.Action, value: object) -> None:
        if action.choices is not None and value not in action.choices:
            choices = ", ".join(map(repr, action.choices))
            raise argparse.ArgumentError(action, f"invalid choice: {_quoted(str(value))} (choose from {choices})")


class _Output(NamedTuple):
    """One handler's blocks; run() adds command and inputs to make the record."""

    result: dict
    verification: dict | None  # None when no cross-check ran
    lines: list[str]
    csv: list[str]
    ok: bool  # every cross-check agreed


def _csv(header: Sequence[str], rows: Iterable[Sequence[object]]) -> list[str]:
    return [",".join(header)] + [",".join(map(str, row)) for row in rows]


def _joined(lines: Sequence[str]) -> str:
    return "\n".join([*lines, ""])


def _decimal_int(text: str) -> int:
    if not _DECIMAL.fullmatch(text):
        raise argparse.ArgumentTypeError(f"expected a decimal integer, got {_quoted(text)}")
    return _parse_decimal(text)


def _decimal_int_list(text: str) -> list[int]:
    items = text.split(",")
    if not all(_DECIMAL.fullmatch(item) for item in items):
        raise argparse.ArgumentTypeError(f"expected comma-separated decimal integers, got {_quoted(text)}")
    return [_parse_decimal(item) for item in items]


def _quoted(text: str) -> str:
    """Quote an argument for an error message; a long one by a prefix and its length."""
    if len(text) <= _QUOTE_LIMIT:
        return repr(text)
    return f"{text[:_QUOTE_LIMIT]!r}... ({len(text)} characters)"


def _parse_decimal(item: str) -> int:
    try:
        return int(item)
    except ValueError:
        # a matched item fails only on int()'s digit limit; name the size, not the digits
        digits = len(item.lstrip("-"))
        raise argparse.ArgumentTypeError(
            f"integer has {digits} digits; at most {sys.get_int_max_str_digits()} are supported"
        ) from None


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
    return _Output(
        {"n": args.n, "factorization": fac.entries, "pretty": pretty},
        {"reconstructed": rebuilt, "matches": rebuilt == args.n},
        [f"{args.n} = {pretty}"],
        _csv(["n", "factorization"], [[args.n, pretty]]),
        rebuilt == args.n,
    )


def _cmd_gcd(args: argparse.Namespace) -> _Output:
    """Serves gcd and lcm: both run the same routes; lcm shows only the lcm."""
    if len(args.values) < 2:
        raise DomainError("at least two integers are required")
    res = gcd_lcm_set(args.values)
    oracle_gcd, oracle_lcm = _euclid_fold(args.values)
    matches = res.gcd == oracle_gcd and res.lcm == oracle_lcm
    verification = {"gcd_euclid": oracle_gcd, "lcm_euclid_fold": oracle_lcm, "matches": matches}
    if args.command == "lcm":
        return _Output({"lcm": res.lcm}, verification, [f"lcm = {res.lcm}"], _csv(["lcm"], [[res.lcm]]), matches)
    result = {
        "gcd": res.gcd,
        "lcm": res.lcm,
        "support": res.support.primes,
        "min_exponents": res.min_exponents.exponents,
        "max_exponents": res.max_exponents.exponents,
    }
    lines = [f"gcd = {res.gcd}, lcm = {res.lcm}"]
    return _Output(result, verification, lines, _csv(["gcd", "lcm"], [[res.gcd, res.lcm]]), matches)


def _cmd_ratio(args: argparse.Namespace) -> _Output:
    red = reduce_ratio(args.a, args.b)
    cross_ok = abs(args.a) * red.right == abs(args.b) * red.left
    coprime = math.gcd(red.left, red.right) == 1
    return _Output(
        {"left": red.left, "right": red.right},
        {"cross_products_equal": cross_ok, "coprime": coprime, "matches": cross_ok and coprime},
        [f"ratio = {red.left}:{red.right}"],
        _csv(["left", "right"], [[red.left, red.right]]),
        cross_ok and coprime,
    )


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
    # exactly one of --perm and --cycles is in args: both default to SUPPRESS
    perm = getattr(args, "perm", None)
    if perm is not None:
        decomposition = cycle_decompose(perm)
    else:
        lengths = tuple(sorted(args.cycles, reverse=True))
        decomposition = CycleDecomposition(n=sum(lengths), cycle_lengths=lengths)
    m = order(decomposition)
    confirmed = None
    if decomposition.n * m <= _ORDER_CHECK_BUDGET:
        # --cycles gets its one-line form only here, where power iteration uses it
        confirmed = verify_order(perm if perm is not None else _synthesize_permutation(decomposition.cycle_lengths), m)
    return _Output(
        {"degree": decomposition.n, "cycle_lengths": decomposition.cycle_lengths, "order": m},
        {"method": "power_iteration", "checked": confirmed is not None, "confirmed": confirmed},
        [f"cycle lengths = {', '.join(str(x) for x in decomposition.cycle_lengths)}", f"order = {m}"],
        _csv(["degree", "order"], [[decomposition.n, m]]),
        confirmed is not False,
    )


def _cmd_landau(args: argparse.Namespace) -> _Output:
    n, method = args.n, args.method
    shown = landau_bruteforce(n) if method == "brute" else landau_dp(n)
    witness = _format_witness(shown.witness.parts)
    result: dict[str, object] = {"n": n, "method": method, "value": shown.value}
    verification = None
    lines = [f"landau({n}) = {shown.value}"]
    if method == "both":
        brute = landau_bruteforce(n)
        enumerated = sum(1 for _ in partitions(n))
        expected = partition_count(n)
        result.update(
            witness_dp=shown.witness.parts,
            witness_brute=brute.witness.parts,
            partitions_enumerated=enumerated,
        )
        verification = {
            "values_agree": shown.value == brute.value,
            "partition_count_recurrence": expected,
            "partition_counts_match": enumerated == expected,
        }
        lines += [
            f"witness[dp] = {witness}",
            f"witness[brute] = {_format_witness(brute.witness.parts)}",
            f"partitions enumerated = {enumerated}",
        ]
    else:
        result["witness"] = shown.witness.parts
        lines.append(f"witness = {witness}")
    result["ratio"] = shown.ratio
    ratio_text = _format_ratio(shown.ratio)
    lines.append(f"ratio = {ratio_text or 'n/a'}")
    ok = verification is None or (verification["values_agree"] and verification["partition_counts_match"])
    return _Output(result, verification, lines, _csv(_TABLE_HEADER, [[n, shown.value, ratio_text, witness]]), ok)


def _cmd_table(args: argparse.Namespace) -> _Output:
    records = asymptotic_table(args.max, args.step)
    rows = ([r.n, r.value, _format_ratio(r.ratio), _format_witness(r.witness.parts)] for r in records)
    csv = lines = _csv(_TABLE_HEADER, rows)
    if args.out is not None:
        with open(args.out, "w", encoding="ascii") as fh:
            fh.write(_joined(csv))
        lines = [f"wrote {len(records)} rows to {args.out}"]
    result = {"header": _TABLE_HEADER, "rows": [[r.n, r.value, r.ratio, r.witness.parts] for r in records]}
    return _Output(result, None, lines, csv, True)


def _oracle_agrees(a: int, b: int) -> bool:
    res = gcd_lcm_set([a, b])
    return res.gcd == gcd_euclid(a, b) and res.gcd * res.lcm == a * b


# kind -> (values per draw, the identity each draw must satisfy)
_SWEEPS = {
    "product": (2, lambda a, b: check_product_identity(a, b).holds),
    "distributive": (3, lambda a, b, c: check_distributive_identity(a, b, c).holds),
    "oracle": (2, _oracle_agrees),
    "roundtrip": (1, lambda n: reconstruct(factorize(n)) == n),
}


def _sweep_check(kind: str, draw: tuple[int, ...]) -> bool:
    return _SWEEPS[kind][1](*draw)


def verify_sweep(kind: str, count: int, seed: int, max_value: int) -> dict:
    """Run count seeded identity/oracle checks; the draws depend only on the arguments."""
    if not isinstance(kind, str) or kind not in _SWEEPS:
        raise DomainError(f"kind must be one of {', '.join(_SWEEPS)}, got {_safe_repr(kind)}")
    count, seed, max_value = _integers((count, seed, max_value), "count, seed and max")
    if count < 1:
        raise DomainError(f"count must be at least 1, got {count}")
    if max_value < 2:
        raise DomainError(f"max must be at least 2, got {max_value}")
    if max_value > MAX_INPUT:
        raise DomainError(f"max must stay within the 64-bit input range, got {max_value}")
    width = _SWEEPS[kind][0]
    rng = SplitMix64(seed)
    passed = 0
    failed = 0
    counterexample: list[int] | None = None
    for _ in range(count):
        draw = tuple(rng.randint(1, max_value) for _ in range(width))
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
    lines = [
        f"verify {report['kind']}: {report['passed']} passed, {report['failed']} failed"
        f" (count {report['count']}, seed {report['seed']}, max {report['max']})"
    ]
    if report["counterexample"] is not None:
        lines.append(f"first counterexample: {', '.join(str(x) for x in report['counterexample'])}")
    columns = ("kind", "count", "seed", "max", "passed", "failed")
    return _Output(report, None, lines, _csv(columns, [[report[key] for key in columns]]), report["failed"] == 0)


_HANDLERS = {
    "factor": _cmd_factor,
    "gcd": _cmd_gcd,
    "lcm": _cmd_gcd,
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
    group.add_argument("--cycles", type=_decimal_int_list, metavar="c1,c2,...", default=argparse.SUPPRESS)
    group.add_argument("--perm", type=_decimal_int_list, metavar="i1,i2,...", default=argparse.SUPPRESS)

    p = sub.add_parser("landau", parents=[common], help="largest lcm over partitions of n")
    p.add_argument("n", type=_decimal_int)
    p.add_argument("--method", choices=("dp", "brute", "both"), default="dp")

    p = sub.add_parser("table", parents=[common], help="growth-ratio table as CSV")
    p.add_argument("--max", type=_decimal_int, required=True)
    p.add_argument("--step", type=_decimal_int, default=1)
    p.add_argument("--out", metavar="FILE", default=None)

    p = sub.add_parser("verify", parents=[common], help="seeded randomized identity sweeps")
    p.add_argument("--kind", choices=tuple(_SWEEPS), required=True)
    p.add_argument("--count", type=_decimal_int, required=True)
    p.add_argument("--seed", type=_decimal_int, required=True)
    p.add_argument("--max", type=_decimal_int, required=True)

    return parser


def run(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as ex:
        # argparse has printed the help (code 0) or the usage error (code 1)
        return ex.code
    try:
        out = _HANDLERS[args.command](args)
        if args.format == "json":
            inputs = {key: value for key, value in vars(args).items() if key not in ("command", "format")}
            record = {"command": args.command, "inputs": inputs, "result": out.result}
            if out.verification is not None:
                record["verification"] = out.verification
            text = json.dumps(record, indent=2) + "\n"
        else:
            text = _joined(out.csv if args.format == "csv" else out.lines)
    except (DomainError, OSError) as ex:
        message = str(ex)
        # OSError can only come from writing table --out; a name refused for
        # its length is quoted by a prefix, any other name whole
        if isinstance(ex, OSError) and ex.errno == errno.ENAMETOOLONG:
            message = f"[Errno {ex.errno}] {ex.strerror}: {_quoted(ex.filename)}"
    except ValueError as ex:
        # only str()'s digit limit, which an lcm or an order can pass while
        # every argument stays inside it; nothing is written, stdout stays empty
        if "integer string conversion" not in str(ex):
            raise
        message = f"the result has more than {sys.get_int_max_str_digits()} digits, too many to print in decimal"
    else:
        sys.stdout.write(text)
        return 0 if out.ok else 2
    print(f"error: {message}", file=sys.stderr)
    return 1


def main() -> None:
    # under PYTHONUNBUFFERED stdout writes to the raw file, which drops the rest
    # of a partial write to a closed pipe; a buffered writer raises instead.
    # Python starts with sys.stdout None when fd 1 is closed; opening fd 1 then fails
    stdout = sys.stdout
    try:
        encoding, errors = (stdout.encoding, stdout.errors) if stdout else (None, None)
        sys.stdout = open(1, "w", encoding=encoding, errors=errors, closefd=False)
        code = run()
        sys.stdout.flush()
    except OSError as ex:
        # point fd 1 at devnull so the flush at interpreter exit cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), 1)
        # a reader that closed the pipe early has all it wanted
        if not isinstance(ex, BrokenPipeError):
            print(f"error: cannot write to stdout: {ex}", file=sys.stderr)
        code = 1
    sys.exit(code)
