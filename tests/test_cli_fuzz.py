"""Fuzz cli.run's argv: every subcommand and flag, with well-formed, malformed
and over-long argument text. Whatever the input, the CLI answers with exit 0
or exits 1 with one short error line on stderr (after argparse's usage block
when parsing failed), and never shows a traceback.

Numbers that parse are small (table --max <= 200, verify --count <= 40) or,
for arguments whose cost does not grow with their value, far past 2**64, so
no example reaches a slow path."""

import contextlib
import io
import re
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from primelattice import cli

_DIGIT_LIMIT = sys.get_int_max_str_digits()

# text that is not a decimal integer: signs, separators, exponents, spaces,
# newlines, non-ASCII digits and letters, empty included
malformed = st.text(alphabet="0123456789-+., \nxe_١½é", max_size=12).filter(
    lambda t: not re.fullmatch(r"-?[0-9]+", t)
)
# integers past 2**64: out of range for factoring, gcd, landau and table
huge = st.from_regex(r"-?[1-9][0-9]{20,40}", fullmatch=True)
# integers past the digit limit int() accepts
overlong = (
    st.integers(min_value=_DIGIT_LIMIT + 1, max_value=_DIGIT_LIMIT + 400).map(lambda k: "9" * k)
    if _DIGIT_LIMIT
    else st.nothing()
)


def mostly(good, *bad):
    """good in about three draws of four, so that valid commands run too."""
    return st.sampled_from([good] * (3 * len(bad)) + list(bad)).flatmap(lambda chosen: chosen)


def number(lo, hi, *, far=True):
    """Argument text: an int in [lo, hi], malformed text, an over-long integer
    and, where far is set, an integer beyond every accepted range."""
    return mostly(st.integers(min_value=lo, max_value=hi).map(str), malformed, overlong, *([huge] if far else []))


def joined(ints):
    return ints.map(lambda xs: ",".join(map(str, xs)))


def int_list(lo, hi):
    listed = joined(st.lists(st.integers(min_value=lo, max_value=hi), min_size=1, max_size=8))
    return mostly(listed, malformed, overlong, st.sampled_from(["1,,2", ",", ""]))


def flag(name, value):
    """The flag with its value, the flag alone, or neither."""
    return mostly(st.tuples(st.just(name), value).map(list), st.just([name]), st.just([]))


def positionals(value, lo, hi):
    """lo to hi values, or a count that may be wrong."""
    return mostly(st.lists(value, min_size=lo, max_size=hi), st.lists(value, max_size=hi + 1))


def concat(*parts):
    return st.tuples(*parts).map(lambda groups: [token for group in groups for token in group])


small = number(-5, 40)
fmt = flag("--format", st.sampled_from(["text", "json", "csv", "xml", ""]))
cycles = int_list(-2, 12)
perm = mostly(joined(st.integers(min_value=1, max_value=8).flatmap(lambda n: st.permutations(range(1, n + 1)))), cycles)

commands = st.one_of(
    concat(st.just(["factor"]), positionals(small, 1, 1), fmt),
    concat(st.sampled_from([["gcd"], ["lcm"]]), positionals(small, 2, 5), fmt),
    concat(st.just(["ratio"]), positionals(small, 2, 2), fmt),
    concat(
        st.just(["order"]),
        # exactly one of --cycles and --perm, or any mix of them
        mostly(
            st.one_of(st.tuples(st.just("--cycles"), cycles), st.tuples(st.just("--perm"), perm)).map(list),
            concat(flag("--cycles", cycles), flag("--perm", perm)),
        ),
        fmt,
    ),
    concat(
        st.just(["landau"]),
        positionals(small, 1, 1),
        flag("--method", st.sampled_from(["dp", "brute", "both", "fast"])),
        fmt,
    ),
    concat(
        st.just(["table"]),
        flag("--max", number(-5, 200)),
        flag("--step", small),
        flag("--out", st.sampled_from(["OUT", "MISSING"])),
        fmt,
    ),
    concat(
        st.just(["verify"]),
        flag("--kind", st.sampled_from(["product", "distributive", "oracle", "roundtrip", "sum"])),
        flag("--count", number(-5, 40, far=False)),
        flag("--seed", small),
        flag("--max", small),
        fmt,
    ),
    st.lists(st.sampled_from(["frobnicate", "--format", "json", "-h", "--bogus", "7"]), max_size=3),
)
# stray tokens after a command: extra positionals, unknown or repeated flags
stray = st.lists(st.one_of(small, st.sampled_from(["--bogus", "--max", "-x", "--help"])), min_size=1, max_size=2)
argvs = concat(commands, mostly(st.just([]), stray))


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def out_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("table-out")


@settings(max_examples=400)
@given(argvs)
@example(["table", "--max", "5", "--out", "MISSING"])
@example(["factor", "9" * (_DIGIT_LIMIT + 1)])
@example(["landau", "5", "7", "9" * 5000, "a\nb"])
def test_argv_gets_an_answer_or_one_error_line(out_dir, argv):
    # table --out writes into a scratch directory, or fails to open a missing one
    paths = {"OUT": str(out_dir / "t.csv"), "MISSING": str(out_dir / "missing" / "t.csv")}
    argv = [paths.get(token, token) for token in argv]
    code, _, err = run_cli(argv)
    assert code in (0, 1), (argv, err)
    assert "Traceback" not in err
    if code == 0:
        assert err == ""
        return
    lines = err.splitlines()
    assert lines, argv
    # no argument is echoed whole
    assert all(len(line) < 300 for line in lines), err
    assert sum("error:" in line for line in lines) == 1, err
    if len(lines) == 1:
        assert lines[0].startswith("error: "), err
    else:
        # argparse's usage block, wrapped over indented lines, then its error line
        assert lines[0].startswith("usage: primelattice"), err
        assert all(line.startswith(" ") for line in lines[1:-1]), err
        assert lines[-1].startswith("primelattice") and ": error: " in lines[-1], err
