import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


class TestPartitionCount:
    def test_known_counts(self):
        for n, expected in KNOWN_COUNTS.items():
            assert partition_count(n) == expected, n

    def test_negative_rejected(self):
        with pytest.raises(DomainError):
            partition_count(-3)


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
        for n in range(1, 21):
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


@pytest.mark.slow
def test_dp_matches_bruteforce_extended_tier():
    for n in range(31, 61):
        assert landau_dp(n).value == landau_bruteforce(n).value, n


class TestLandauRecordType:
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
