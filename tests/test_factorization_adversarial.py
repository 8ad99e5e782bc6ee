"""Differential checks against sympy, a test-only dependency.

factorize is compared with factorint on inputs that trial division cannot
finish, whose prime factors lie above TRIAL_CUTOFF so that Brent's rho has
to split them, and on strong pseudoprimes, which fool Miller-Rabin with small
bases. is_prime, which every factorization starts with, is compared with
isprime on 64-bit integers and on the composites built to fool primality
tests: strong pseudoprimes, Carmichael numbers and squares of primes."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from primelattice import factorize, is_prime
from primelattice.factorization import MAX_INPUT, TRIAL_CUTOFF, _miller_rabin

sympy = pytest.importorskip("sympy")

# psi_k, the least strong pseudoprime to each of the first k prime bases, for
# k = 1..7 and 9; the last passes Miller-Rabin with every prime base up to 23
STRONG_PSEUDOPRIMES = (
    2047,
    1373653,
    25326001,
    3215031751,
    2152302898747,
    3474749660383,
    341550071728321,
    3825123056546413051,
)

LARGEST_PRIME_BELOW_1E6 = 999983
LARGEST_64BIT_PRIME = 18446744073709551557


def _primes_just_above(limit, span):
    return st.integers(limit, limit + span).map(sympy.nextprime)


def _max_exponent(p):
    k = 1
    while p ** (k + 1) <= MAX_INPUT:
        k += 1
    return k


def _powers(p):
    return st.integers(2, _max_exponent(p)).map(lambda k: p**k)


# primes in (TRIAL_CUTOFF, 10**6], weighted toward the cutoff itself
RHO_RANGE_PRIMES = st.one_of(
    _primes_just_above(TRIAL_CUTOFF, 500),
    st.integers(TRIAL_CUTOFF, LARGEST_PRIME_BELOW_1E6 - 1).map(sympy.nextprime),
)


def _matches_sympy(n):
    assert factorize(n).as_dict() == sympy.factorint(n), n


@given(_primes_just_above(TRIAL_CUTOFF, 2000).flatmap(_powers))
def test_prime_powers_just_above_the_cutoff(n):
    _matches_sympy(n)


@given(st.lists(RHO_RANGE_PRIMES, min_size=2, max_size=3))
def test_products_of_primes_above_the_cutoff(primes):
    for p in primes:
        assert TRIAL_CUTOFF < p <= 10**6
    _matches_sympy(math.prod(primes))


def _multiples(n):
    return st.integers(1, min(2**20, MAX_INPUT // n)).map(lambda k: n * k)


def test_strong_pseudoprime_to_bases_up_to_23():
    n = 3825123056546413051
    assert factorize(n).entries == ((149491, 1), (747451, 1), (34233211, 1))
    _matches_sympy(n)


@given(st.sampled_from(STRONG_PSEUDOPRIMES).flatmap(_multiples))
def test_strong_pseudoprimes_and_their_multiples(n):
    _matches_sympy(n)


def _agrees_with_sympy(n):
    assert is_prime(n) == sympy.isprime(n), n


@given(
    st.one_of(
        st.integers(0, MAX_INPUT),
        st.integers(0, LARGEST_64BIT_PRIME - 1).map(sympy.nextprime),
    )
)
def test_is_prime_on_64bit_integers(n):
    _agrees_with_sympy(n)


# The exact bounds of the classical smaller witness sets, (2, 3), (2, 7, 61)
# and (2, 13, 23, 1662803), each the first strong pseudoprime to its set: they
# split the range above TRIAL_CUTOFF into pieces that each get their own draws,
# and their neighbourhoods are adversarial inputs for the one 7-base set
# is_prime runs. is_prime answers n <= 10**6 from its table, so these tests
# also call Miller-Rabin directly.
WITNESS_BOUNDS = (1_373_653, 4_759_123_141, 1_122_004_669_633)
WITNESS_RANGES = tuple(zip((TRIAL_CUTOFF + 1,) + WITNESS_BOUNDS, WITNESS_BOUNDS + (MAX_INPUT + 1,)))


def _witnesses_agree_with_sympy(n):
    expected = sympy.isprime(n)
    assert is_prime(n) == expected, n
    if n > TRIAL_CUTOFF:
        assert _miller_rabin(n) == expected, n


@given(st.sampled_from(WITNESS_RANGES).flatmap(lambda r: st.integers(r[0], r[1] - 1)))
def test_is_prime_in_each_witness_range(n):
    _witnesses_agree_with_sympy(n)


def _primes_in(r):
    return st.integers(r[0], r[1] - 1).map(sympy.nextprime).filter(lambda p: p < r[1])


@given(st.sampled_from(WITNESS_RANGES).flatmap(_primes_in))
def test_is_prime_on_primes_in_each_witness_range(n):
    _witnesses_agree_with_sympy(n)


@pytest.mark.parametrize("bound", WITNESS_BOUNDS + (TRIAL_CUTOFF,), ids=str)
def test_is_prime_on_either_side_of_each_bound(bound):
    below, above = bound, bound
    for _ in range(5):
        below, above = sympy.prevprime(below), sympy.nextprime(above)
        assert is_prime(below) and is_prime(above), (below, above)
    for n in range(bound - 300, bound + 300):
        _witnesses_agree_with_sympy(n)


@given(st.sampled_from(STRONG_PSEUDOPRIMES), st.integers(-64, 64))
def test_is_prime_near_strong_pseudoprimes(psi, offset):
    _agrees_with_sympy(psi + offset)


# Miller-Rabin skips a base that n divides, which would read 0 even for a
# prime n; past TRIAL_CUTOFF that n is 407,521 or 299,210,837, both prime, or
# a composite that base 2 rejects.
BASE_DIVISORS = sorted(
    {d for a in (325, 9375, 28178, 450775, 9780504, 1795265022) for d in sympy.divisors(a) if d > TRIAL_CUTOFF}
)


def test_is_prime_on_divisors_of_the_witness_bases():
    assert len(BASE_DIVISORS) == 19
    assert [d for d in BASE_DIVISORS if sympy.isprime(d)] == [407_521, 299_210_837]
    for n in BASE_DIVISORS:
        _witnesses_agree_with_sympy(n)


def _chernick_carmichael(k):
    # (6k + 1)(12k + 1)(18k + 1) is a Carmichael number once all three are prime
    while not all(sympy.isprime(a * k + 1) for a in (6, 12, 18)):
        k += 1
    return (6 * k + 1) * (12 * k + 1) * (18 * k + 1)


@given(st.integers(1, 200_000).map(_chernick_carmichael))
def test_is_prime_on_carmichael_numbers(n):
    assert n <= MAX_INPUT
    _agrees_with_sympy(n)


@given(_primes_just_above(TRIAL_CUTOFF, 2000).map(lambda p: p * p))
def test_is_prime_on_squares_of_primes_above_the_cutoff(n):
    _agrees_with_sympy(n)
