import random
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from primelattice import DomainError, Factorization, factorize, gcd_lcm_set, is_prime, primes_up_to, reconstruct
from primelattice import factorization
from primelattice.factorization import _SPF_CAP, MAX_INPUT, TRIAL_CUTOFF

# Mersenne number 2**59 - 1 and its classical two-prime splitting.
M59 = 2**59 - 1
M59_FACTORS = ((179951, 1), (3203431780337, 1))

LARGEST_64BIT_PRIME = 18446744073709551557
MERSENNE_PRIME_61 = 2**61 - 1

# Classical Carmichael numbers: composites that fool single-base Fermat tests.
CARMICHAELS = [561, 1105, 1729, 2465, 2821, 6601, 8911, 10585, 15841, 29341, 41041, 9746347772161]


# The first strong pseudoprime to each of the classical smaller witness sets,
# with the set's bases: composites built to pass Miller-Rabin with a subset
# of small bases, which the 7-base set is_prime runs must still reject.
FIRST_STRONG_PSEUDOPRIMES = {
    829 * 1657: (2, 3),
    48_781 * 97_561: (2, 7, 61),
    611_557 * 1_834_669: (2, 13, 23, 1662803),
}


def _sieve(limit: int) -> bytearray:
    flags = bytearray([1]) * (limit + 1)
    flags[0] = flags[1] = 0
    for p in range(2, int(limit**0.5) + 1):
        if flags[p]:
            flags[p * p :: p] = bytes(len(range(p * p, limit + 1, p)))
    return flags


def _strong_probable_prime(n: int, a: int) -> bool:
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    x = pow(a, d, n)
    return x in (1, n - 1) or any(pow(x, 2**r, n) == n - 1 for r in range(1, s))


def _trial_division_powers(n: int) -> dict[int, int]:
    powers: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            powers[d] = powers.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        powers[n] = powers.get(n, 0) + 1
    return powers


def _trial_division_is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


class TestIsPrime:
    def test_matches_trial_division_below_2000(self):
        for n in range(2000):
            assert is_prime(n) == _trial_division_is_prime(n), n

    def test_known_large_primes(self):
        assert is_prime(MERSENNE_PRIME_61)
        assert is_prime(LARGEST_64BIT_PRIME)
        assert is_prime(10**9 + 7)

    def test_carmichael_numbers_are_composite(self):
        for n in CARMICHAELS:
            assert not is_prime(n), n

    def test_large_composites(self):
        assert not is_prime(MERSENNE_PRIME_61 * 3)
        assert not is_prime(LARGEST_64BIT_PRIME - 1)
        assert not is_prime((2**31 - 1) ** 2)

    def test_rejects_values_beyond_64_bits(self):
        with pytest.raises(DomainError):
            is_prime(2**64)

    def test_negative_and_edge_values(self):
        assert not is_prime(-7)
        assert not is_prime(0)
        assert not is_prime(1)
        assert is_prime(2)
        # a negative n must never index the table from its end
        assert not any(is_prime(n) for n in range(-2 * _SPF_CAP, 2))

    def test_matches_a_sieve_up_to_2e6(self):
        # lookups up to _SPF_CAP, then Miller-Rabin past it
        flags = _sieve(2 * 10**6)
        assert [n for n in range(2 * 10**6 + 1) if is_prime(n) != flags[n]] == []

    def test_matches_a_sieve_up_to_2e6_with_the_full_table(self):
        # the table built at import reaches _SPF_CAP, and every odd n up to
        # it is prime exactly when its entry is empty
        table = factorization._odd_spf
        assert 2 * len(table) - 1 == _SPF_CAP - 1
        flags = _sieve(2 * 10**6)
        assert [n for n in range(1, _SPF_CAP, 2) if is_prime(n) != (n > 1 and not table[n >> 1])] == []
        assert [n for n in range(2 * 10**6 + 1) if is_prime(n) != flags[n]] == []

    @pytest.mark.parametrize("n", FIRST_STRONG_PSEUDOPRIMES, ids=str)
    def test_first_strong_pseudoprime_of_each_witness_set(self, n):
        # n passes these bases, so is_prime has to reject it on its own bases
        assert all(_strong_probable_prime(n, a) for a in FIRST_STRONG_PSEUDOPRIMES[n])
        assert not is_prime(n)


class TestPrimesUpTo:
    def test_first_primes(self):
        assert primes_up_to(30) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]

    def test_below_two_is_empty(self):
        assert primes_up_to(1) == []
        assert primes_up_to(-5) == []

    def test_agrees_with_is_prime_up_to_1e5(self):
        assert primes_up_to(10**5) == [n for n in range(2, 10**5 + 1) if is_prime(n)]

    def test_shrinking_query_after_growth(self):
        primes_up_to(10**4)
        assert primes_up_to(10) == [2, 3, 5, 7]

    @given(st.integers(min_value=2, max_value=3000))
    def test_boundary_membership(self, limit):
        ps = primes_up_to(limit)
        assert (limit in ps) == is_prime(limit)
        assert all(is_prime(p) for p in ps)
        assert ps == sorted(set(ps))


@pytest.fixture
def is_prime_calls(monkeypatch):
    """The arguments of every is_prime call the factorization and lattice modules
    make; lattice's go through factorization._ascending_prime."""
    calls = []

    def counting_is_prime(n):
        calls.append(n)
        return is_prime(n)

    monkeypatch.setattr(factorization, "is_prime", counting_is_prime)
    return calls


class TestFactorize:
    def test_small_known_values(self):
        assert factorize(60).entries == ((2, 2), (3, 1), (5, 1))
        assert factorize(90).entries == ((2, 1), (3, 2), (5, 1))
        assert factorize(24).entries == ((2, 3), (3, 1))
        assert factorize(16).entries == ((2, 4),)
        assert factorize(97).entries == ((97, 1),)

    def test_one_is_the_empty_product(self):
        assert factorize(1).entries == ()
        assert reconstruct(factorize(1)) == 1

    def test_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            factorize(0)
        with pytest.raises(DomainError):
            factorize(-12)

    def test_rejects_beyond_64_bits(self):
        factorize(MAX_INPUT)
        with pytest.raises(DomainError):
            factorize(MAX_INPUT + 1)

    def test_mersenne_59_classical_splitting(self):
        assert factorize(M59).entries == M59_FACTORS

    def test_square_of_a_large_prime(self):
        n = (2**31 - 1) ** 2
        assert factorize(n).entries == ((2**31 - 1, 2),)

    def test_product_of_two_primes_above_trial_cutoff(self):
        n = (10**9 + 7) * (10**9 + 9)
        assert factorize(n).entries == ((10**9 + 7, 1), (10**9 + 9, 1))

    def test_carmichael_561(self):
        assert factorize(561).entries == ((3, 1), (11, 1), (17, 1))

    def test_prime_cofactor_is_tested_once(self, is_prime_calls):
        # one test proves 1000003 prime, and the result is built from that proof
        assert factorize(1_000_003).entries == ((1_000_003, 1),)
        assert is_prime_calls == [1_000_003]

    def test_gcd_lcm_set_proves_each_prime_once(self, is_prime_calls):
        # each input is found composite, its cofactor after the 2 or the 3 is
        # proved prime, and the support is built from those proofs
        res = gcd_lcm_set([2_000_006, 3_000_009])
        assert (res.gcd, res.support.primes) == (1_000_003, (2, 3, 1_000_003))
        assert is_prime_calls == [2_000_006, 1_000_003, 3_000_009, 1_000_003]

    def test_rho_input_proves_each_prime_once(self, is_prime_calls):
        # one test finds the input composite; rho's two factors are tested once each
        n = (10**9 + 7) * (10**9 + 9)
        assert factorization._prime_powers(n) == {10**9 + 7: 1, 10**9 + 9: 1}
        assert is_prime_calls[0] == n
        assert sorted(is_prime_calls[1:]) == [10**9 + 7, 10**9 + 9]

    def test_trial_loop_reads_the_shared_sieve(self, monkeypatch):
        # the trial loop walks the primes sieved at import, and the table was
        # built there too; nothing sieves again per input
        def sieving_again(limit):
            raise AssertionError(f"factorize sieved again up to {limit}")

        monkeypatch.setattr(factorization, "_eratosthenes", sieving_again)
        assert factorize(1_000_003 * 1_000_033).entries == ((1_000_003, 1), (1_000_033, 1))
        assert factorize(4_294_967_279 * 4_294_967_291).entries == (
            (4_294_967_279, 1),
            (4_294_967_291, 1),
        )

    @pytest.mark.parametrize("n", [7 * 97 * 10007, 3 * 999_983], ids=str)
    def test_cofactor_up_to_the_cap_is_finished_from_the_table(self, is_prime_calls, n):
        # one test finds n composite; once a trial prime leaves a cofactor
        # up to _SPF_CAP, the table factors it without another test
        assert factorization._prime_powers(n) == _trial_division_powers(n)
        assert is_prime_calls == [n]

    def test_prime_powers_match_trial_division_up_to_3e4(self):
        for n in range(1, 3 * 10**4 + 1):
            assert factorization._prime_powers(n) == _trial_division_powers(n), n

    @pytest.mark.parametrize(
        "n",
        [999_983, 10**6, 997**2, 2**19, 3**12, 2 * 499_979, 640_000, 20_011],
        ids=["prime", "cap", "square-of-997", "power-of-2", "power-of-3", "twice-a-prime", "powers-of-2-and-5", "prime-past-the-cutoff"],
    )
    def test_prime_powers_inside_the_full_table(self, n):
        assert factorization._prime_powers(n) == _trial_division_powers(n)
        assert factorize(n).as_dict() == _trial_division_powers(n)

    @given(st.integers(min_value=1, max_value=10**6))
    def test_roundtrip_small(self, n):
        assert reconstruct(factorize(n)) == n

    @settings(max_examples=40)
    @given(st.integers(min_value=1, max_value=MAX_INPUT))
    def test_roundtrip_64bit(self, n):
        f = factorize(n)
        assert reconstruct(f) == n
        assert all(e >= 1 for _, e in f.entries)
        assert [p for p, _ in f.entries] == sorted({p for p, _ in f.entries})


class TestOddTable:
    def test_built_at_import_to_the_cap(self):
        # a fresh interpreter, so no earlier test can have touched the table;
        # inputs up to the cap, which once rebuilt it, leave it in place
        code = f"""
from primelattice import factorization, factorize
table = factorization._odd_spf
assert 2 * len(table) - 1 == {_SPF_CAP - 1}, len(table)
assert len(table) * table.itemsize <= {_SPF_CAP}
for n in ({TRIAL_CUTOFF + 1}, 640_000, 999_983, {_SPF_CAP}):
    factorize(n)
assert factorization._odd_spf is table
"""
        result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert result.returncode == 0, result.stderr

    def test_full_table_matches_a_sieve(self):
        table, flags = factorization._odd_spf, _sieve(_SPF_CAP)
        assert table[0] == 0
        for i in range(1, len(table)):
            n, p = 2 * i + 1, table[i]
            assert (p == 0) == bool(flags[n]), n
            assert p == 0 or (flags[p] and n % p == 0 and p * p <= n), n

    @pytest.mark.parametrize("n", [TRIAL_CUTOFF, _SPF_CAP + 3, 2**64 - 59, 994009 * 1_000_003])
    def test_inputs_outside_the_range_never_build_it(self, n):
        # nothing replaces the table built at import
        table = factorization._odd_spf
        assert reconstruct(factorize(n)) == n
        assert factorization._odd_spf is table

    def test_primality_tests_never_build_it(self):
        table = factorization._odd_spf
        assert is_prime(999_983)
        assert not is_prime(994_009)
        assert factorization._odd_spf is table

    def test_64bit_inputs_never_build_it(self):
        table = factorization._odd_spf
        rng = random.Random(64)
        for n in [rng.randint(2**32, MAX_INPUT) for _ in range(40)]:
            assert reconstruct(factorize(n)) == n
        assert factorization._odd_spf is table


class TestFactorizationType:
    def test_rejects_composite_base(self):
        with pytest.raises(DomainError):
            Factorization(((4, 1),))

    def test_rejects_unsorted_entries(self):
        with pytest.raises(DomainError):
            Factorization(((5, 1), (3, 1)))

    def test_rejects_duplicate_primes(self):
        with pytest.raises(DomainError):
            Factorization(((3, 1), (3, 2)))

    def test_rejects_nonpositive_exponent(self):
        with pytest.raises(DomainError):
            Factorization(((3, 0),))

    @pytest.mark.parametrize("entries", [((2,),), ((2, 1, 0),), (5,)], ids=["short", "long", "scalar"])
    def test_rejects_an_entry_that_is_not_a_pair(self, entries):
        with pytest.raises(DomainError, match=r"^factorization entries must be \(prime, exponent\) pairs$"):
            Factorization(entries)

    def test_as_dict(self):
        assert factorize(360).as_dict() == {2: 3, 3: 2, 5: 1}

    def test_structural_equality(self):
        assert factorize(84) == factorize(84)
