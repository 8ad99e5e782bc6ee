import io
import json
import contextlib
import subprocess
import sys
from pathlib import Path

import pytest

from primelattice import cli

GOLDEN_DIR = Path(__file__).parent / "golden"


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(argv)
    return code, out.getvalue(), err.getvalue()


def run_json(argv):
    code, out, err = run_cli(argv + ["--format", "json"])
    assert code == 0, err
    return json.loads(out)


class TestGoldenFiles:
    CASES = {
        "gcd_60_90.txt": ["gcd", "60", "90"],
        "order_cycles_24_16.txt": ["order", "--cycles", "24,16"],
        "landau_5_both.txt": ["landau", "5", "--method", "both"],
        "ratio_8_12.txt": ["ratio", "8", "12"],
    }

    @pytest.mark.parametrize("name,argv", sorted(CASES.items()))
    def test_matches_golden(self, name, argv):
        code, out, err = run_cli(argv)
        assert code == 0, err
        assert out == (GOLDEN_DIR / name).read_text()

    @pytest.mark.parametrize("name,argv", sorted(CASES.items()))
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


class TestFormats:
    def test_json_key_order_is_stable(self):
        code, out, _ = run_cli(["gcd", "60", "90", "--format", "json"])
        assert code == 0
        record = json.loads(out, object_pairs_hook=lambda pairs: pairs)
        assert [k for k, _ in record] == ["command", "inputs", "result", "verification"]

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
        code, out, err = run_cli(["table", "--max", "6", "--out", str(tmp_path / "missing" / "t.csv")])
        assert code == 1
        assert err.startswith("error: ")
        assert "Traceback" not in err
        assert out == ""

    def test_json_rows(self):
        record = run_json(["table", "--max", "4"])
        assert record["result"]["header"] == ["n", "g_n", "ratio", "witness"]
        assert record["result"]["rows"][0][0] == 2
        assert record["result"]["rows"][-1][1] == 4


class TestVerifyCommand:
    @pytest.mark.parametrize(
        "kind,count,seed,maxv",
        [("product", 200, 42, 10**6), ("oracle", 200, 1, 10**9), ("roundtrip", 200, 3, 10**12), ("distributive", 50, 7, 10**4)],
    )
    def test_sweeps_pass(self, kind, count, seed, maxv):
        code, out, _ = run_cli(["verify", "--kind", kind, "--count", str(count), "--seed", str(seed), "--max", str(maxv)])
        assert code == 0
        assert f"{count} passed, 0 failed" in out

    def test_draws_are_reproducible(self):
        argv = ["verify", "--kind", "product", "--count", "50", "--seed", "9", "--max", "1000", "--format", "json"]
        assert run_cli(argv) == run_cli(argv)

    def test_distributive_max_guard(self):
        code, _, err = run_cli(["verify", "--kind", "distributive", "--count", "1", "--seed", "1", "--max", str(2**33)])
        assert code == 1
        assert "64-bit" in err

    def test_count_and_max_preconditions(self):
        assert run_cli(["verify", "--kind", "product", "--count", "0", "--seed", "1", "--max", "10"])[0] == 1
        assert run_cli(["verify", "--kind", "product", "--count", "1", "--seed", "1", "--max", "1"])[0] == 1


def test_module_entry_point_is_deterministic():
    argv = [sys.executable, "-m", "primelattice", "gcd", "60", "90", "--format", "json"]
    first = subprocess.run(argv, capture_output=True, text=True)
    second = subprocess.run(argv, capture_output=True, text=True)
    assert first.returncode == 0
    assert first.stdout == second.stdout
    assert json.loads(first.stdout)["result"]["gcd"] == 30
