"""Differential checks of factorize against sympy's factorint on inputs that
trial division cannot finish, whose prime factors lie above TRIAL_CUTOFF so
that Brent's rho has to split them, and on strong pseudoprimes, which fool
Miller-Rabin with small bases. sympy is a test-only dependency."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from primelattice import factorize
from primelattice.factorization import MAX_INPUT, TRIAL_CUTOFF

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
