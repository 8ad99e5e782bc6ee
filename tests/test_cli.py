import errno
import json
import os
import subprocess
import sys
from types import SimpleNamespace

import pytest

from primelattice import DomainError, cli, gcdlcm
from primelattice.factorization import primes_up_to
from primelattice.rng import SplitMix64

from matrix_checks import GOLDEN_CASES, GOLDEN_DIR, run_cli


def run_json(argv):
    code, out, err = run_cli(argv + ["--format", "json"])
    assert code == 0, err
    return json.loads(out)


class TestGoldenFiles:
    CASES = GOLDEN_CASES

    @pytest.mark.parametrize("name,argv", list(CASES.items()))
    def test_matches_golden(self, name, argv):
        code, out, err = run_cli(argv)
        assert code == 0, err
        assert out == (GOLDEN_DIR / name).read_text()

    @pytest.mark.parametrize("name,argv", list(CASES.items()))
    def test_repeat_invocations_are_identical(self, name, argv):
        first = run_cli(argv)
        second = run_cli(argv)
        assert first == second


class TestExitCodes:
    def test_success(self):
        assert run_cli(["gcd", "60", "90"])[0] == 0

    def test_zero_input_cites_nonzero_requirement(self):
        code, _, err = run_cli(["gcd", "0", "5"])
        assert code == 1
        assert "nonzero" in err

    def test_single_gcd_argument_rejected(self):
        code, _, err = run_cli(["gcd", "60"])
        assert code == 1
        assert "two" in err

    def test_unknown_subcommand(self):
        code, _, err = run_cli(["frobnicate"])
        assert code == 1
        assert "usage" in err

    def test_unknown_flag(self):
        assert run_cli(["gcd", "60", "90", "--frob"])[0] == 1

    def test_removed_cache_flag_is_usage_error(self, tmp_path):
        path = tmp_path / "p"
        code, out, err = run_cli(["factor", "60", "--sieve-cache", str(path)])
        assert code == 1
        assert "usage" in err
        assert out == ""
        assert not path.exists()

    def test_help_exits_zero(self):
        code, out, _ = run_cli(["--help"])
        assert code == 0
        assert "SUBCOMMAND" in out

    def test_domain_error_from_landau(self):
        code, _, err = run_cli(["landau", "61", "--method", "brute"])
        assert code == 1
        assert "60" in err

    def test_ratio_coprimality_does_not_share_the_reducing_gcd(self, monkeypatch):
        # a reduction that divides by 1 keeps the cross products equal, so
        # only a coprimality check on another gcd can catch it
        monkeypatch.setattr(gcdlcm, "gcd_euclid", lambda a, b: 1)
        monkeypatch.setattr(cli, "gcd_euclid", lambda a, b: 1)
        code, out, _ = run_cli(["ratio", "8", "12", "--format", "json"])
        assert code == 2
        record = json.loads(out)
        assert record["result"] == {"left": 8, "right": 12}
        assert record["verification"] == {"cross_products_equal": True, "coprime": False, "matches": False}

    def test_verification_failure_exits_2(self, monkeypatch):
        # no real input can make the identity fail, so fault-inject the check
        monkeypatch.setattr(cli, "_sweep_check", lambda kind, draw: False)
        code, out, _ = run_cli(["verify", "--kind", "product", "--count", "3", "--seed", "1", "--max", "100"])
        assert code == 2
        assert "3 failed" in out
        assert "counterexample" in out


class TestNumberParsing:
    @pytest.mark.parametrize("bad", ["abc", "0x10", "1_0", "2.5", "1e3", "--cycles"])
    def test_rejected_forms(self, bad):
        assert run_cli(["factor", bad])[0] == 1

    def test_negative_allowed_where_signed(self):
        code, out, _ = run_cli(["gcd", "-4", "6"])
        assert code == 0
        assert out == "gcd = 2, lcm = 12\n"

    def test_leading_zeros_parse_as_decimal(self):
        assert run_cli(["factor", "007"])[1] == "7 = 7\n"
        assert run_cli(["factor", "0001"])[1] == "1 = 1\n"

    @pytest.mark.parametrize(
        "argv",
        [["factor", "1" * 5001], ["gcd", "6", "-" + "9" * 5001], ["order", "--cycles", "2," + "3" * 5001]],
        ids=["factor", "gcd-negative", "cycles-list"],
    )
    def test_integers_past_the_digit_limit(self, argv):
        # int() refuses these; the message used to name the private converter
        # and echo every digit
        code, out, err = run_cli(argv)
        assert code == 1
        assert out == ""
        errors = [line for line in err.splitlines() if "error:" in line]
        assert len(errors) == 1
        assert "5001 digits" in errors[0]
        assert len(err) < 400
        assert "Traceback" not in err
        assert "_decimal" not in err and "_parse" not in err

    @pytest.mark.parametrize(
        "argv, length",
        [
            (["factor", "1" * 3000 + "x"], 3001),
            (["order", "--cycles", ",".join(["2"] * 2000) + ",x"], 4001),
            (["gcd", "6", "\x01" * 2000], 2000),
            (["factor", "5", "9" * 5000], 5000),
            (["factor", "5", "--format", "x" * 3000], 3000),
        ],
        ids=["factor", "cycles-list", "control-characters", "unrecognized", "invalid-choice"],
    )
    def test_malformed_arguments_are_quoted_by_a_prefix(self, argv, length):
        # the whole argument used to be echoed: 3,137 bytes of stderr for the first
        code, out, err = run_cli(argv)
        assert code == 1
        assert out == ""
        errors = [line for line in err.splitlines() if "error:" in line]
        assert len(errors) == 1
        assert f"({length} characters)" in errors[0]
        assert len(errors[0].encode()) < 300
        assert "Traceback" not in err

    def test_short_malformed_arguments_are_quoted_whole(self):
        code, _, err = run_cli(["factor", "12x"])
        assert code == 1
        assert err.splitlines()[-1].endswith("expected a decimal integer, got '12x'")

    def test_unrecognized_arguments_stay_on_one_line(self):
        # argparse joined them as given, so a newline inside one split the error line
        code, _, err = run_cli(["factor", "5", "7", "a\nb"])
        assert code == 1
        assert err.splitlines()[-1] == "primelattice: error: unrecognized arguments: 7 'a\\nb'"


class TestUnprintableResults:
    # the first 2,100 primes: each argument is short, but their product (the
    # lcm, and the order of a permutation with those cycle lengths) has about
    # 8,000 digits
    PRIMES = primes_up_to(20000)[:2100]

    @pytest.mark.skipif(not sys.get_int_max_str_digits(), reason="str() has no digit limit")
    @pytest.mark.parametrize("fmt", ["text", "json", "csv"])
    @pytest.mark.parametrize("command", ["order", "gcd", "lcm"])
    def test_result_past_the_digit_limit_is_an_error(self, command, fmt):
        # the f-string or json.dumps raised ValueError from str()'s digit limit
        values = [",".join(map(str, self.PRIMES))] if command == "order" else list(map(str, self.PRIMES))
        argv = [command] + (["--cycles"] if command == "order" else []) + values + ["--format", fmt]
        code, out, err = run_cli(argv)
        limit = sys.get_int_max_str_digits()
        assert (code, out) == (1, "")
        assert err == f"error: the result has more than {limit} digits, too many to print in decimal\n"

    def test_other_value_errors_are_not_caught(self, monkeypatch):
        # only the digit-limit error becomes exit 1; any other ValueError is a bug
        def broken(args):
            raise ValueError("not a conversion error")

        monkeypatch.setitem(cli._HANDLERS, "factor", broken)
        with pytest.raises(ValueError, match="not a conversion error"):
            run_cli(["factor", "6"])


class TestFormats:
    def test_json_key_order_is_stable(self):
        code, out, _ = run_cli(["gcd", "60", "90", "--format", "json"])
        assert code == 0
        record = json.loads(out, object_pairs_hook=lambda pairs: pairs)
        assert [k for k, _ in record] == ["command", "inputs", "result", "verification"]
        landau_keys = {
            "both": ["n", "method", "value", "witness_dp", "witness_brute", "partitions_enumerated", "ratio"],
            "brute": ["n", "method", "value", "witness", "ratio"],
        }
        for method, keys in landau_keys.items():
            _, out, _ = run_cli(["landau", "5", "--method", method, "--format", "json"])
            record = json.loads(out, object_pairs_hook=lambda pairs: pairs)
            assert [k for k, _ in record][:3] == ["command", "inputs", "result"]
            assert [k for k, _ in dict(record)["result"]] == keys

    def test_json_payload(self):
        record = run_json(["gcd", "60", "90"])
        assert record["result"] == {
            "gcd": 30,
            "lcm": 180,
            "support": [2, 3, 5],
            "min_exponents": [1, 1, 1],
            "max_exponents": [2, 2, 1],
        }
        assert record["verification"]["matches"] is True

    def test_csv_payload(self):
        code, out, _ = run_cli(["gcd", "60", "90", "--format", "csv"])
        assert out == "gcd,lcm\n30,180\n"

    def test_text_json_csv_numeric_parity(self):
        _, text, _ = run_cli(["lcm", "24", "16"])
        record = run_json(["lcm", "24", "16"])
        _, csv_out, _ = run_cli(["lcm", "24", "16", "--format", "csv"])
        assert text == "lcm = 48\n"
        assert record["result"]["lcm"] == 48
        assert csv_out.splitlines()[1] == "48"

    def test_landau_ratio_parity_between_formats(self):
        record = run_json(["landau", "7"])
        _, csv_out, _ = run_cli(["landau", "7", "--format", "csv"])
        csv_ratio = csv_out.splitlines()[1].split(",")[2]
        assert csv_ratio == f"{record['result']['ratio']:.6f}"

    def test_factor_json_includes_verification(self):
        record = run_json(["factor", "360"])
        assert record["result"]["factorization"] == [[2, 3], [3, 2], [5, 1]]
        assert record["verification"] == {"reconstructed": 360, "matches": True}


class TestOrderCommand:
    def test_perm_input(self):
        code, out, _ = run_cli(["order", "--perm", "2,1,4,5,3"])
        assert code == 0
        assert out == "cycle lengths = 3, 2\norder = 6\n"

    def test_cycles_unsorted_input_is_normalized(self):
        record = run_json(["order", "--cycles", "16,24"])
        assert record["result"]["cycle_lengths"] == [24, 16]
        assert record["result"]["order"] == 48

    def test_power_iteration_verification_block(self):
        record = run_json(["order", "--cycles", "24,16"])
        assert record["verification"] == {"method": "power_iteration", "checked": True, "confirmed": True}

    def test_large_order_skips_power_iteration(self):
        record = run_json(["order", "--cycles", "9973,9972"])
        assert record["verification"]["checked"] is False
        assert record["verification"]["confirmed"] is None

    def test_unchecked_cycles_never_build_the_permutation(self, monkeypatch):
        # degree 2001 times order 1001000 is past the power-iteration budget
        def refuse(lengths):
            raise AssertionError("one-line permutation built for an unchecked order")

        monkeypatch.setattr(cli, "_synthesize_permutation", refuse)
        record = run_json(["order", "--cycles", "1001,1000"])
        assert record["result"]["order"] == 1001000
        assert record["verification"]["checked"] is False

    def test_power_iteration_mismatch_exits_2(self, monkeypatch):
        # no real permutation can fail the check, so fault-inject it
        monkeypatch.setattr(cli, "verify_order", lambda perm, m: False)
        code, out, _ = run_cli(["order", "--cycles", "3,2", "--format", "json"])
        assert code == 2
        assert json.loads(out)["verification"] == {"method": "power_iteration", "checked": True, "confirmed": False}

    def test_requires_exactly_one_input_form(self):
        assert run_cli(["order"])[0] == 1
        assert run_cli(["order", "--cycles", "2", "--perm", "1"])[0] == 1

    def test_invalid_perm(self):
        code, _, err = run_cli(["order", "--perm", "1,1"])
        assert code == 1
        assert "repeats" in err


class TestLandauCommand:
    def test_both_methods(self):
        record = run_json(["landau", "5", "--method", "both"])
        assert record["result"]["value"] == 6
        assert record["result"]["witness_dp"] == [3, 2]
        assert record["result"]["witness_brute"] == [3, 2]
        assert record["result"]["partitions_enumerated"] == 7
        assert record["verification"]["values_agree"] is True
        assert record["verification"]["partition_count_recurrence"] == 7

    def test_disagreeing_routes_or_counts_exit_2(self, monkeypatch):
        # the two routes and the two counts always agree, so fault-inject each
        for name, fake, failed in [
            ("landau_bruteforce", lambda n: cli.landau_dp(n + 2), "values_agree"),
            ("partition_count", lambda n: 8, "partition_counts_match"),
            ("partitions", lambda n: iter(range(6)), "partition_counts_match"),
        ]:
            with monkeypatch.context() as patched:
                patched.setattr(cli, name, fake)
                code, out, _ = run_cli(["landau", "5", "--method", "both", "--format", "json"])
            assert code == 2
            assert json.loads(out)["verification"][failed] is False

    def test_single_method_csv_has_empty_ratio_for_n_1(self):
        _, out, _ = run_cli(["landau", "1", "--format", "csv"])
        assert out == "n,g_n,ratio,witness\n1,1,,1\n"

    def test_default_method_is_dp(self):
        from primelattice import landau_dp

        record = run_json(["landau", "90"])
        assert record["inputs"]["method"] == "dp"
        assert record["result"]["value"] == landau_dp(90).value


class TestTableCommand:
    def test_small_table_text(self):
        code, out, _ = run_cli(["table", "--max", "5"])
        assert code == 0
        assert out.splitlines() == [
            "n,g_n,ratio,witness",
            "2,2,0.588705,2",
            "3,3,0.605148,3",
            "4,4,0.588705,4",
            "5,6,0.631623,3+2",
        ]

    def test_step(self):
        _, out, _ = run_cli(["table", "--max", "10", "--step", "4"])
        rows = [line.split(",")[0] for line in out.splitlines()[1:]]
        assert rows == ["2", "6", "10"]

    def test_out_file_matches_stdout_csv(self, tmp_path):
        target = tmp_path / "table.csv"
        code, out, _ = run_cli(["table", "--max", "30", "--out", str(target)])
        assert code == 0
        assert "wrote 29 rows" in out
        _, stdout_csv, _ = run_cli(["table", "--max", "30"])
        assert target.read_text() == stdout_csv

    def test_out_to_missing_directory_is_an_error(self, tmp_path):
        target = str(tmp_path / "missing" / "t.csv")
        code, out, err = run_cli(["table", "--max", "6", "--out", target])
        assert code == 1
        # a name the OS accepted prints whole, however long
        assert err == f"error: [Errno {errno.ENOENT}] {os.strerror(errno.ENOENT)}: {target!r}\n"
        assert out == ""

    def test_empty_out_name_is_an_error(self):
        # an empty name is a name the OS refuses, not a request for stdout
        code, out, err = run_cli(["table", "--max", "6", "--out", ""])
        assert code == 1
        assert err == f"error: [Errno {errno.ENOENT}] {os.strerror(errno.ENOENT)}: ''\n"
        assert out == ""

    def test_out_name_too_long_is_quoted_by_a_prefix(self, tmp_path):
        # str(OSError) quoted the whole name, over 5,000 bytes of stderr here
        target = str(tmp_path / ("x" * 5000))
        code, out, err = run_cli(["table", "--max", "6", "--out", target])
        assert code == 1
        assert err == (
            f"error: [Errno {errno.ENAMETOOLONG}] {os.strerror(errno.ENAMETOOLONG)}: "
            f"{target[:20]!r}... ({len(target)} characters)\n"
        )
        assert out == ""

    def test_json_rows(self):
        record = run_json(["table", "--max", "4"])
        assert record["result"]["header"] == ["n", "g_n", "ratio", "witness"]
        assert record["result"]["rows"][0][0] == 2
        assert record["result"]["rows"][-1][1] == 4


class TestVerifyCommand:
    @pytest.mark.parametrize(
        "kind,count,seed,maxv",
        [
            ("product", 200, 42, 10**6),
            ("oracle", 200, 1, 10**9),
            ("roundtrip", 200, 3, 10**12),
            ("distributive", 50, 7, 10**4),
            ("distributive", 5, 1, 2**64 - 1),
        ],
    )
    def test_sweeps_pass(self, kind, count, seed, maxv):
        code, out, _ = run_cli(["verify", "--kind", kind, "--count", str(count), "--seed", str(seed), "--max", str(maxv)])
        assert code == 0
        assert f"{count} passed, 0 failed" in out

    @pytest.mark.parametrize(
        "kind, name, fake",
        [
            ("product", "check_product_identity", lambda a, b: SimpleNamespace(holds=False)),
            ("distributive", "check_distributive_identity", lambda a, b, c: SimpleNamespace(holds=False)),
            ("oracle", "gcd_euclid", lambda a, b: 0),
            ("roundtrip", "reconstruct", lambda fac: 0),
        ],
        ids=["product", "distributive", "oracle", "roundtrip"],
    )
    def test_each_kind_checks_its_own_identity(self, monkeypatch, kind, name, fake):
        # break only the route this kind must call; every draw then fails
        monkeypatch.setattr(cli, name, fake)
        code, out, _ = run_cli(["verify", "--kind", kind, "--count", "3", "--seed", "1", "--max", "100"])
        assert code == 2
        assert "0 passed, 3 failed" in out

    def test_draws_are_reproducible(self):
        argv = ["verify", "--kind", "product", "--count", "50", "--seed", "9", "--max", "1000", "--format", "json"]
        assert run_cli(argv) == run_cli(argv)

    def test_count_and_max_preconditions(self):
        assert run_cli(["verify", "--kind", "product", "--count", "0", "--seed", "1", "--max", "10"])[0] == 1
        assert run_cli(["verify", "--kind", "product", "--count", "1", "--seed", "1", "--max", "1"])[0] == 1
        for kind in ("product", "distributive", "oracle", "roundtrip"):
            code, _, err = run_cli(["verify", "--kind", kind, "--count", "1", "--seed", "1", "--max", str(2**64)])
            assert (code, err) == (1, f"error: max must stay within the 64-bit input range, got {2**64}\n")

    def test_rng_rejects_an_empty_range(self):
        with pytest.raises(DomainError, match=r"empty range \[5, 4\]"):
            SplitMix64(1).randint(5, 4)


def _environment(unbuffered):
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return env


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
def test_closed_pipe_exits_without_a_traceback(unbuffered):
    # the reader stops after the header, long before the table's 400 kB are written
    argv = [sys.executable, "-m", "primelattice", "table", "--max", "3000"]
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_environment(unbuffered)) as proc:
        assert proc.stdout.readline() == b"n,g_n,ratio,witness\n"
        proc.stdout.close()
        err = proc.stderr.read().decode()
        code = proc.wait()
    assert "Traceback" not in err and "Exception ignored" not in err, err
    assert err == ""
    # unbuffered too: main() writes through a buffered layer, which reports the
    # partial write that the raw file's text layer would drop
    assert code == 1


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
def test_pipe_closed_before_a_short_output_exits_without_a_traceback(unbuffered):
    # buffered, the output fits in stdout's buffer, so only the flush meets the
    # closed pipe; left to interpreter exit it printed "Exception ignored"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        argv = [sys.executable, "-m", "primelattice", "factor", "360"]
        proc = subprocess.run(argv, stdout=write_end, stderr=subprocess.PIPE, env=_environment(unbuffered))
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (1, b"")


def _one_error_line(err):
    assert "Traceback" not in err and "Exception ignored" not in err, err
    assert err.startswith("error: cannot write to stdout: ") and err.count("\n") == 1, err


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize(
    "argv", [["factor", "6"], ["table", "--max", "3000", "--format", "json"]], ids=["short", "long"]
)
def test_full_stdout_exits_1_with_one_error_line(argv, unbuffered):
    # a short output meets the full device only at the flush, a long one inside run()
    with open("/dev/full", "w") as full:
        proc = subprocess.run(
            [sys.executable, "-m", "primelattice", *argv],
            stdout=full, stderr=subprocess.PIPE, text=True, env=_environment(unbuffered),
        )
    assert proc.returncode == 1
    _one_error_line(proc.stderr)


def test_closed_stdout_exits_1_with_one_error_line():
    # Python starts with sys.stdout set to None when fd 1 is closed
    proc = subprocess.run(
        ["bash", "-c", '"$0" -m primelattice factor 6 >&-', sys.executable],
        stderr=subprocess.PIPE, text=True,
    )
    assert proc.returncode == 1
    _one_error_line(proc.stderr)


def test_module_entry_point_is_deterministic():
    argv = [sys.executable, "-m", "primelattice", "gcd", "60", "90", "--format", "json"]
    first = subprocess.run(argv, capture_output=True, text=True)
    second = subprocess.run(argv, capture_output=True, text=True)
    assert first.returncode == 0
    assert first.stdout == second.stdout
    assert json.loads(first.stdout)["result"]["gcd"] == 30
