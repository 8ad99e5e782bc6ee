"""Checks that need only the standard library, so that every interpreter in
the CI matrix can run them without pytest or hypothesis:

    PYTHONPATH=src python -X dev -W error::ResourceWarning tests/matrix_checks.py

It runs each golden CLI case through cli.run and compares its stdout with the
golden file, checks the exit code, empty stdout and last stderr line of each
usage error in USAGE_ERRORS, and builds one value of every domain type the
way the library does, then checks that the value is frozen, keeps no instance __dict__,
rebuilds through its public constructor and survives pickle and copy. Slots and frozen dataclasses behave
differently across Python versions, which is what this guards. It prints one
line per failure and exits 1 if there was any.
"""

import contextlib
import copy
import copyreg
import dataclasses
import io
import pickle
import sys
from pathlib import Path

from primelattice import (
    align,
    check_distributive_identity,
    check_product_identity,
    cli,
    cycle_decompose,
    factorize,
    gcd_lcm_set,
    landau_bruteforce,
    landau_dp,
    partitions,
    reduce_ratio,
)
from primelattice.landau import _dp_table
from primelattice.lattice import add, join, meet

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

_VERIFY_PRODUCT = ["verify", "--kind", "product", "--count", "20", "--seed", "1", "--max", "1000"]

# golden file -> argv; test ids number the cases in this order, so new cases go at the end
GOLDEN_CASES = {
    "gcd_60_90.txt": ["gcd", "60", "90"],
    "landau_5_both.txt": ["landau", "5", "--method", "both"],
    "order_cycles_24_16.txt": ["order", "--cycles", "24,16"],
    "ratio_8_12.txt": ["ratio", "8", "12"],
    "factor_360.json": ["factor", "360", "--format", "json"],
    "factor_360.csv": ["factor", "360", "--format", "csv"],
    "gcd_60_90.json": ["gcd", "60", "90", "--format", "json"],
    "gcd_60_90.csv": ["gcd", "60", "90", "--format", "csv"],
    "lcm_24_16.txt": ["lcm", "24", "16"],
    "lcm_24_16.json": ["lcm", "24", "16", "--format", "json"],
    "lcm_24_16.csv": ["lcm", "24", "16", "--format", "csv"],
    "ratio_8_12.json": ["ratio", "8", "12", "--format", "json"],
    "ratio_8_12.csv": ["ratio", "8", "12", "--format", "csv"],
    "order_perm_21453.json": ["order", "--perm", "2,1,4,5,3", "--format", "json"],
    "order_perm_21453.csv": ["order", "--perm", "2,1,4,5,3", "--format", "csv"],
    "landau_5.json": ["landau", "5", "--format", "json"],
    "landau_5.csv": ["landau", "5", "--format", "csv"],
    "landau_5_both.json": ["landau", "5", "--method", "both", "--format", "json"],
    "landau_5_both.csv": ["landau", "5", "--method", "both", "--format", "csv"],
    "table_6.txt": ["table", "--max", "6"],
    "table_6.json": ["table", "--max", "6", "--format", "json"],
    "table_6.csv": ["table", "--max", "6", "--format", "csv"],
    "verify_product_20_1_1000.txt": _VERIFY_PRODUCT,
    "verify_product_20_1_1000.json": _VERIFY_PRODUCT + ["--format", "json"],
    "verify_product_20_1_1000.csv": _VERIFY_PRODUCT + ["--format", "csv"],
}


# argv -> the last stderr line of its usage error. Only that line is pinned:
# the usage lines above it wrap differently across versions (3.13 wraps verify's).
USAGE_ERRORS = [
    (["factor", "5", "--format", "yaml"],
     "primelattice factor: error: argument --format: invalid choice: 'yaml' (choose from 'text', 'json', 'csv')"),
    (["factor", "5", "--format", "x" * 30],
     "primelattice factor: error: argument --format: invalid choice: 'xxxxxxxxxxxxxxxxxxxx'... (30 characters)"
     " (choose from 'text', 'json', 'csv')"),
    (["landau", "5", "--method", "m" * 40],
     "primelattice landau: error: argument --method: invalid choice: 'mmmmmmmmmmmmmmmmmmmm'... (40 characters)"
     " (choose from 'dp', 'brute', 'both')"),
    (["verify", "--kind", "nope", "--count", "1", "--seed", "1", "--max", "10"],
     "primelattice verify: error: argument --kind: invalid choice: 'nope'"
     " (choose from 'product', 'distributive', 'oracle', 'roundtrip')"),
    (["s" * 40],
     "primelattice: error: argument SUBCOMMAND: invalid choice: 'ssssssssssssssssssss'... (40 characters)"
     " (choose from 'factor', 'gcd', 'lcm', 'ratio', 'order', 'landau', 'table', 'verify')"),
    (["factor", "5", "7", "a\nb"], "primelattice: error: unrecognized arguments: 7 'a\\nb'"),
]


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(argv)
    return code, out.getvalue(), err.getvalue()


def golden_failures(golden_dir=GOLDEN_DIR):
    """One line for each golden case whose exit code or stdout is off."""
    failures = []
    for name, argv in GOLDEN_CASES.items():
        code, out, err = run_cli(argv)
        if code != 0 or out != (golden_dir / name).read_text():
            failures.append(f"golden {name}: exit {code}, stderr {err!r}")
    return failures


def usage_failures(cases=USAGE_ERRORS):
    """One line for each usage error that does not exit 1 with empty stdout
    and the expected last stderr line."""
    failures = []
    for argv, last in cases:
        code, out, err = run_cli(argv)
        if code != 1 or out or err.splitlines()[-1:] != [last]:
            failures.append(f"usage error {argv!r}: exit {code}, stdout {out!r}, stderr {err!r}")
    return failures


def domain_values():
    """One value of every domain type, built as the library builds it."""
    shared = gcd_lcm_set([360, -84])
    # 2**61 - 1 is prime, so these three share no prime and the gcd is 1
    coprime = gcd_lcm_set([360, -84, 2**61 - 1])
    support, vectors = align([factorize(12), factorize(45)])
    record = landau_dp(30)
    return [
        factorize(360),
        *(shared.support, shared.min_exponents, shared.max_exponents, shared),
        *(coprime.min_exponents, coprime),
        support, *vectors, meet(vectors), join(vectors), add(*vectors),
        reduce_ratio(8, -12),
        check_product_identity(12, 18),
        check_distributive_identity(4, 6, 10),
        cycle_decompose([2, 1, 4, 5, 3]),
        next(partitions(5)),
        record.witness, record, landau_bruteforce(12),
        _dp_table(30),
    ]


def assert_rebuilds(value):
    """Rebuilding value through its public constructor from its own fields
    gives an equal value with the same hash and repr."""
    cls = type(value)
    rebuilt = cls(**{f.name: getattr(value, f.name) for f in dataclasses.fields(cls) if f.init})
    assert rebuilt == value, (rebuilt, value)
    assert hash(rebuilt) == hash(value), value
    # repr tells an int from an equal float or bool, which == does not
    assert repr(rebuilt) == repr(value), (rebuilt, value)


def assert_frozen_slots(value):
    """value keeps no instance __dict__ and refuses assignment and deletion of
    each field and of an undeclared name, and its class's _trusted builder takes exactly one value per
    field, in field order."""
    cls = type(value)
    assert not hasattr(value, "__dict__"), f"{cls.__name__} has an instance __dict__"
    names = [f.name for f in dataclasses.fields(cls)]
    for name in (*names, "undeclared"):
        for attempt in (lambda: setattr(value, name, 0), lambda: delattr(value, name)):
            try:
                attempt()
            except dataclasses.FrozenInstanceError:
                pass
            else:
                raise AssertionError(f"{cls.__name__}.{name} can be assigned or deleted")
    assert cls._trusted(*(getattr(value, name) for name in names)) == value
    for arity in (len(names) - 1, len(names) + 1):
        try:
            cls._trusted(*[0] * arity)
        except TypeError:
            pass
        else:
            raise AssertionError(f"{cls.__name__}._trusted took {arity} values")


class _DictStatePickler(pickle.Pickler):
    """Pickles domain values as they were pickled before the domain types had
    slots: copyreg.__newobj__ of the class, with the instance __dict__ as the
    state."""

    def reducer_override(self, obj):
        if not dataclasses.is_dataclass(obj) or isinstance(obj, type):
            return NotImplemented
        return copyreg.__newobj__, (type(obj),), {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}


def _dict_state_pickle(value):
    out = io.BytesIO()
    _DictStatePickler(out).dump(value)
    return out.getvalue()


def assert_copies(value):
    """Pickling under every protocol, copy, deepcopy and loading a pickle made
    with the instance __dict__ as its state each give an equal value of the
    same class and repr."""
    copies = [pickle.loads(pickle.dumps(value, protocol)) for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    copies += [copy.copy(value), copy.deepcopy(value), pickle.loads(_dict_state_pickle(value))]
    for other in copies:
        assert type(other) is type(value) and other == value, (other, value)
        assert repr(other) == repr(value), (other, value)


def domain_failures(values):
    """One line for each value that fails a check above."""
    failures = []
    for value in values:
        for check in (assert_rebuilds, assert_frozen_slots, assert_copies):
            try:
                check(value)
            except Exception as exc:
                failures.append(f"{check.__name__}({type(value).__name__}): {type(exc).__name__}: {exc}")
    return failures


def main():
    values = domain_values()
    failures = golden_failures() + usage_failures() + domain_failures(values)
    for line in failures:
        print(line)
    print(f"Python {sys.version.split()[0]}: {len(GOLDEN_CASES)} golden cases, {len(USAGE_ERRORS)} usage errors, "
          f"{len(values)} domain values, {len(failures)} failures")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
