import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from primelattice import DomainError, Factorization, factorize, is_prime, primes_up_to, reconstruct
from primelattice import factorization
from primelattice.factorization import MAX_INPUT

# Mersenne number 2**59 - 1 and its classical two-prime splitting.
M59 = 2**59 - 1
M59_FACTORS = ((179951, 1), (3203431780337, 1))

LARGEST_64BIT_PRIME = 18446744073709551557
MERSENNE_PRIME_61 = 2**61 - 1

# Classical Carmichael numbers: composites that fool single-base Fermat tests.
CARMICHAELS = [561, 1105, 1729, 2465, 2821, 6601, 8911, 10585, 15841, 29341, 41041, 9746347772161]


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

    def test_result_is_independent_of_rho_seed(self):
        n = (10**9 + 7) * (10**9 + 9)
        assert factorize(n, rho_seed=1) == factorize(n, rho_seed=2**40 + 17)

    def test_prime_cofactor_is_tested_once(self, monkeypatch):
        # one test proves 1000003 prime, one more comes from Factorization's own check
        calls = []

        def counting_is_prime(n):
            calls.append(n)
            return is_prime(n)

        monkeypatch.setattr(factorization, "is_prime", counting_is_prime)
        assert factorize(1_000_003).entries == ((1_000_003, 1),)
        assert calls == [1_000_003, 1_000_003]

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

    def test_as_dict(self):
        assert factorize(360).as_dict() == {2: 3, 3: 2, 5: 1}

    def test_structural_equality(self):
        assert factorize(84) == factorize(84)
