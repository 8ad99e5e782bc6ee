import contextlib
import dataclasses
import io
import math
import sys
import threading
from bisect import bisect_right
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from primelattice import cli, gcdlcm, landau
from primelattice import (
    DomainError,
    LandauRecord,
    Partition,
    asymptotic_table,
    gcd_lcm_set,
    landau_bruteforce,
    landau_dp,
    partition_count,
    partitions,
)
from primelattice.landau import DP_LIMIT

# Classical table: largest lcm of any partition of n, for n = 0..23.
KNOWN_VALUES = [1, 1, 2, 3, 4, 6, 6, 12, 15, 20, 30, 30, 60, 60, 84, 105, 140, 210, 210, 420, 420, 420, 420, 840]

# Classical partition counts p(0), p(1), ...
KNOWN_COUNTS = {0: 1, 1: 1, 5: 7, 8: 22, 10: 42, 20: 627, 30: 5604, 60: 966467, 100: 190569292}


class TestPartitions:
    def test_partitions_of_5_in_order(self):
        got = [p.parts for p in partitions(5)]
        assert got == [
            (5,),
            (4, 1),
            (3, 2),
            (3, 1, 1),
            (2, 2, 1),
            (2, 1, 1, 1),
            (1, 1, 1, 1, 1),
        ]

    def test_zero_has_one_empty_partition(self):
        assert [p.parts for p in partitions(0)] == [()]

    def test_one(self):
        assert [p.parts for p in partitions(1)] == [(1,)]

    def test_negative_rejected(self):
        with pytest.raises(DomainError):
            list(partitions(-1))

    @given(st.integers(min_value=0, max_value=22))
    def test_each_partition_sums_to_n(self, n):
        for p in partitions(n):
            assert p.n == n
            assert sum(p.parts) == n

    @given(st.integers(min_value=1, max_value=20))
    def test_reverse_lexicographic_and_distinct(self, n):
        seq = [p.parts for p in partitions(n)]
        assert seq[0] == (n,)
        assert seq[-1] == (1,) * n
        assert all(a > b for a, b in zip(seq, seq[1:]))

    @given(st.integers(min_value=0, max_value=28))
    def test_enumeration_count_matches_recurrence(self, n):
        assert sum(1 for _ in partitions(n)) == partition_count(n)

    def test_matches_a_recursive_reference(self):
        for n in range(41):
            assert [p.parts for p in partitions(n)] == list(_descending_partitions(n, n)), n


def _descending_partitions(remaining, cap):
    """Partitions of remaining into parts <= cap, largest part first, by
    recursion on the first part: an independent reference for partitions()."""
    if remaining == 0:
        yield ()
        return
    for head in range(min(remaining, cap), 0, -1):
        for tail in _descending_partitions(remaining - head, head):
            yield (head, *tail)


class TestPartitionCount:
    def test_known_counts(self):
        for n, expected in KNOWN_COUNTS.items():
            assert partition_count(n) == expected, n

    def test_negative_rejected(self):
        with pytest.raises(DomainError):
            partition_count(-3)

    def test_matches_sympy(self):
        sympy = pytest.importorskip("sympy")
        for n in [*range(501), 10**4]:
            assert partition_count(n) == sympy.partition(n), n


class TestPartitionType:
    def test_computes_sum(self):
        assert Partition((3, 2)).n == 5

    def test_rejects_increasing_parts(self):
        with pytest.raises(DomainError):
            Partition((2, 3))

    def test_rejects_nonpositive_parts(self):
        with pytest.raises(DomainError):
            Partition((3, 0))

    def test_empty_partition(self):
        assert Partition(()).n == 0


class TestLandau:
    def test_value_at_5_with_witness(self):
        rec = landau_bruteforce(5)
        assert rec.value == 6
        assert rec.witness.parts == (3, 2)
        assert gcd_lcm_set(list(rec.witness.parts)).lcm == 6

    def test_known_values_dp(self):
        for n in range(1, 24):
            assert landau_dp(n).value == KNOWN_VALUES[n], n

    def test_known_values_bruteforce(self):
        for n in range(1, 16):
            assert landau_bruteforce(n).value == KNOWN_VALUES[n], n

    def test_value_at_100(self):
        # 2^4 * 3^2 * 5 * 7 * 11 * 13 * 17 * 19 = 232792560, sum of parts 97
        assert landau_dp(100).value == 232792560

    def test_dp_matches_bruteforce_quick(self):
        for n in range(1, 16):
            assert landau_dp(n).value == landau_bruteforce(n).value, n

    def test_methods_pick_comparable_witnesses(self):
        for n in (6, 11, 14):
            dp, brute = landau_dp(n), landau_bruteforce(n)
            assert dp.value == brute.value
            assert gcd_lcm_set(list(dp.witness.parts)).lcm == dp.value
            assert gcd_lcm_set(list(brute.witness.parts)).lcm == brute.value

    def test_bruteforce_witness_is_the_first_maximizer(self):
        for n in range(1, 31):
            scores = [(p, gcd_lcm_set(list(p.parts)).lcm) for p in partitions(n)]
            best = max(value for _, value in scores)
            first = next(p for p, value in scores if value == best)
            assert landau_bruteforce(n).witness == first, n

    def test_limits(self):
        with pytest.raises(DomainError):
            landau_bruteforce(61)
        with pytest.raises(DomainError):
            landau_bruteforce(0)
        with pytest.raises(DomainError):
            landau_dp(10**4 + 1)
        landau_dp(1)

    def test_ratio_definition(self):
        rec = landau_dp(5)
        assert rec.ratio == pytest.approx(math.log(6) / math.sqrt(5 * math.log(5)))
        assert landau_dp(1).ratio is None

    @given(st.integers(min_value=1, max_value=2000))
    def test_witness_is_a_valid_partition_of_n(self, n):
        rec = landau_dp(n)
        assert rec.witness.n == n
        parts = rec.witness.parts
        assert all(a >= b for a, b in zip(parts, parts[1:]))

    def test_values_never_decrease(self):
        values = [landau_dp(n).value for n in range(1, 2001)]
        assert all(a <= b for a, b in zip(values, values[1:]))


def test_dp_matches_bruteforce_extended_tier():
    for n in range(31, 61):
        brute = landau_bruteforce(n)
        assert landau_dp(n).value == brute.value, n
        assert math.lcm(*brute.witness.parts) == brute.value, n


def _ascending_partitions(r, low=1):
    """Every partition of r as non-decreasing parts, sharing no code with partitions()."""
    if r == 0:
        yield ()
        return
    for head in range(low, r + 1):
        for tail in _ascending_partitions(r - head, head):
            yield (head, *tail)


def test_bruteforce_bound_is_the_largest_product_of_parts():
    assert len(landau._MAX_PRODUCT) == landau.BRUTE_FORCE_LIMIT + 1
    for r in range(21):
        assert landau._MAX_PRODUCT[r] == max(math.prod(p) for p in _ascending_partitions(r)), r


def _unbounded_dp(n_max):
    """The knapsack over every prime <= n_max, with no largest-prime bound.

    Returns the values, the witness parts and the largest witness prime for
    every n <= n_max. The primes come from a sieve of its own.
    """
    flags = bytearray([1]) * (n_max + 1)
    flags[:2] = b"\x00\x00"
    for p in range(2, math.isqrt(n_max) + 1):
        if flags[p]:
            flags[p * p :: p] = bytes(len(range(p * p, n_max + 1, p)))
    primes = [p for p in range(n_max + 1) if flags[p]]
    values = [1] * (n_max + 1)
    rows = []
    for p in primes:
        row = bytearray(n_max + 1)
        for budget in range(n_max, p - 1, -1):
            best, picked = values[budget], 0
            power, exponent = p, 1
            while power <= budget:
                if values[budget - power] * power > best:
                    best, picked = values[budget - power] * power, exponent
                power *= p
                exponent += 1
            if picked:
                values[budget], row[budget] = best, picked
        rows.append(row)
    witnesses, largest = [], []
    for n in range(n_max + 1):
        parts, budget, top = [], n, 1
        # a prime above n is never picked at budget n or below
        for i in range(bisect_right(primes, n) - 1, -1, -1):
            p, row = primes[i], rows[i]
            if row[budget]:
                parts.append(p ** row[budget])
                budget -= parts[-1]
                top = max(top, p)
        witnesses.append(tuple(sorted(parts, reverse=True)) + (1,) * budget)
        largest.append(top)
    return values, witnesses, largest


@pytest.fixture(scope="module")
def unbounded():
    return _unbounded_dp(DP_LIMIT)


class TestPrimeBoundedDp:
    def test_full_table_matches_unbounded_reference(self, unbounded):
        values, witnesses, _ = unbounded
        table = landau._dp_table(DP_LIMIT)
        assert table.values == tuple(values)
        for n in range(DP_LIMIT + 1):
            assert landau._witness_parts(table, n) == witnesses[n], n

    def test_smaller_tables_match_unbounded_reference(self, unbounded):
        values, witnesses, _ = unbounded
        for n_max in (2, 3, 4, 5, 6, 7, 10, 100, 1024, 3001):
            table = landau._build_table(n_max)
            assert table.values == tuple(values[: n_max + 1]), n_max
            for n in range(n_max + 1):
                assert landau._witness_parts(table, n) == witnesses[n], (n_max, n)

    def test_witness_primes_obey_grantham_bound(self, unbounded):
        _, _, largest = unbounded
        for n in range(4, DP_LIMIT + 1):
            assert largest[n] <= 1.328 * math.sqrt(n * math.log(n)), n

    def test_bound_keeps_few_primes(self):
        table = landau._dp_table(DP_LIMIT)
        assert len(table.primes) == 79
        assert table.primes[-1] == 401

    def test_cache_grows_to_the_request_or_double_its_size(self, monkeypatch):
        monkeypatch.setattr(landau, "_dp_cached", None)
        landau_dp(5)
        assert len(landau._dp_cached.values) == 6
        asymptotic_table(100)
        assert len(landau._dp_cached.values) == 101
        landau_dp(101)
        assert len(landau._dp_cached.values) == 201
        landau_dp(6000)
        assert len(landau._dp_cached.values) == 6001
        landau_dp(6001)
        assert len(landau._dp_cached.values) == DP_LIMIT + 1

    def test_threads_growing_the_cache_at_once_agree(self, monkeypatch):
        # the cache is rebound without a lock and each caller keeps the table
        # it read or built, so a race can only build a table twice
        reference = landau._build_table(2400).values
        monkeypatch.setattr(landau, "_dp_cached", None)
        inputs = [range(600 * (k + 1), 0, -53) for k in range(4)]
        results: list[dict[int, int]] = [{} for _ in inputs]

        def work(values, got):
            for n in values:
                got[n] = landau_dp(n).value

        threads = [threading.Thread(target=work, args=pair) for pair in zip(inputs, results)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for values, got in zip(inputs, results):
            assert got == {n: reference[n] for n in values}


class TestLandauRecordType:
    def test_rejects_n_below_1(self):
        with pytest.raises(DomainError, match="positive n"):
            LandauRecord(n=0, value=1, witness=Partition(()), ratio=None)

    def test_rejects_witness_sum_mismatch(self):
        with pytest.raises(DomainError):
            LandauRecord(n=6, value=6, witness=Partition((3, 2)), ratio=None)

    def test_rejects_wrong_value(self):
        with pytest.raises(DomainError):
            LandauRecord(n=5, value=7, witness=Partition((3, 2)), ratio=None)

    def test_rejects_missing_ratio(self):
        with pytest.raises(DomainError):
            LandauRecord(n=5, value=6, witness=Partition((3, 2)), ratio=None)

    def test_rejects_wrong_ratio(self):
        with pytest.raises(DomainError):
            LandauRecord(n=5, value=6, witness=Partition((3, 2)), ratio=0.5)


class TestDpWitnessCheck:
    """landau_dp checks each witness once, by its sum and by math.lcm, and builds
    its records trusted. A faulty walk or table must still fail every route
    into it with the message the record's own checks give."""

    # g(50) = 180180, witness (13, 11, 9, 7, 5, 4, 1)
    N = 50

    def _fail_everywhere(self, message):
        with pytest.raises(DomainError, match=f"^{message}$"):
            landau_dp(self.N)
        with pytest.raises(DomainError, match=f"^{message}$"):
            asymptotic_table(100)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.run(["table", "--max", "100"])
        assert (code, out.getvalue(), err.getvalue()) == (1, "", f"error: {message}\n")

    def _fault_in_the_walk(self, monkeypatch, fault):
        walk = landau._witness_parts

        def faulty(table, n):
            parts = walk(table, n)
            return fault(parts) if n == self.N else parts

        monkeypatch.setattr(landau, "_witness_parts", faulty)

    def test_a_dropped_part(self, monkeypatch):
        self._fault_in_the_walk(monkeypatch, lambda parts: parts[1:])
        self._fail_everywhere("witness sums to 37, expected 50")

    def test_a_changed_part(self, monkeypatch):
        # 13 becomes 12 and a one keeps the sum: the lcm falls to 13860
        self._fault_in_the_walk(monkeypatch, lambda parts: (parts[0] - 1, *parts[1:], 1))
        self._fail_everywhere("witness lcm does not equal the reported value")

    def test_a_raised_table_value(self, monkeypatch):
        table = landau._build_table(100)
        values = list(table.values)
        values[self.N] += 1
        monkeypatch.setattr(landau, "_dp_cached", dataclasses.replace(table, values=tuple(values)))
        self._fail_everywhere("witness lcm does not equal the reported value")

    def test_dp_records_never_take_the_exponent_route(self, monkeypatch):
        def forbidden(*args):
            raise AssertionError("the DP route factored a witness part")

        monkeypatch.setattr(landau, "_dp_cached", None)
        monkeypatch.setattr(landau, "gcd_lcm_set", forbidden)
        monkeypatch.setattr(gcdlcm, "_prime_powers", forbidden)
        assert landau_dp(10**4).n == 10**4
        assert len(asymptotic_table(500)) == 499

    def test_other_records_keep_the_exponent_route(self, monkeypatch):
        monkeypatch.setattr(landau, "gcd_lcm_set", lambda values: SimpleNamespace(lcm=gcd_lcm_set(values).lcm + 1))
        with pytest.raises(DomainError, match="^witness lcm does not equal the reported value$"):
            landau_bruteforce(12)
        with pytest.raises(DomainError, match="^witness lcm does not equal the reported value$"):
            LandauRecord(n=5, value=6, witness=Partition((3, 2)), ratio=math.log(6) / math.sqrt(5 * math.log(5)))


class TestAsymptoticTable:
    def test_rows_and_step(self):
        records = asymptotic_table(20, 3)
        assert [r.n for r in records] == [2, 5, 8, 11, 14, 17, 20]

    def test_values_agree_with_landau_dp(self):
        for rec in asymptotic_table(40):
            assert rec.value == landau_dp(rec.n).value

    def test_ratios_present_from_2(self):
        assert all(r.ratio is not None for r in asymptotic_table(50))

    def test_bad_arguments(self):
        with pytest.raises(DomainError):
            asymptotic_table(1)
        with pytest.raises(DomainError):
            asymptotic_table(100, 0)
        with pytest.raises(DomainError):
            asymptotic_table(10**4 + 1)
