"""Prime factorization of 64-bit integers.

One smallest-prime-factor table over odd n up to _SPF_CAP = 10**6, one
uint16 each and 0 where n is prime, is built at import (1 MB, 5-7 ms)
and answers primality and factoring there by lookups. Past the table,
is_prime runs Miller-Rabin with one 7-base witness set, exact for every n
below 2**64. A base that n divides is skipped: past _SPF_CAP only the prime
299,210,837 divides a base, and base 2 rejects every composite that does.
An input up to _SPF_CAP loses its 2s by a bit trick and its odd part comes
apart by lookups. Any larger one is tested, trial division by the primes up
to TRIAL_CUTOFF strips small factors until the cofactor is prime or small
enough to finish from the table, and Brent-cycle Pollard rho splits
whatever survives the trial range.
"""

from __future__ import annotations

import math
from array import array
from itertools import compress

from .errors import DomainError, _frozen, _integer, _integers, _shown
from .rng import SplitMix64

MAX_INPUT = 2**64 - 1
# Rho finds a factor p in about sqrt(p) steps, so past about 10**4 it beats
# trial division: on random 64-bit inputs, cutoffs from 10**3 to 3*10**4 ran
# within about 10% of one another, and 10**6 at under half their rate.
TRIAL_CUTOFF = 10**4
# primes_up_to sieves per call; the cap bounds the memory a caller's limit buys.
_SIEVE_CAP = 10**7
_RHO_SEED = 0x517CC1B727220A95
# The table answers up to here; every odd composite n <= 10**6 has a prime
# factor <= 999, so uint16 holds it.
_SPF_CAP = 10**6

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
# Miller-Rabin with these bases is exact for every n < 2**64.
_MR_BASES = (2, 325, 9375, 28178, 450775, 9780504, 1795265022)


def is_prime(n: int) -> bool:
    """Return True iff n has exactly two positive divisors.

    Deterministic over the supported range; values of 2**64 and above are
    rejected because no witness set is proven past that, and so are
    non-integers and bools.
    """
    if type(n) is not int:
        n = _integer(n, "primality test requires an integer")
    if n <= _SPF_CAP:
        if n & 1:
            return n > 1 and not _odd_spf[n >> 1]
        return n == 2
    if n > MAX_INPUT:
        raise DomainError(f"primality test supports n < 2**64, got {_shown(n)}")
    return _miller_rabin(n)


def _miller_rabin(n: int) -> bool:
    """Primality of _SPF_CAP < n < 2**64 without the table."""
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return False
    d = n - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    for a in _MR_BASES:
        if a % n == 0:
            # a base that n divides reads 0 and would call even a prime n composite
            continue
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _eratosthenes(limit: int) -> list[int]:
    flags = bytearray((1,)) * (limit + 1)
    flags[0:2] = b"\x00\x00"
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = bytearray(len(range(p * p, limit + 1, p)))
    return list(compress(range(limit + 1), flags))


def _odd_spf_table(limit: int) -> array:
    """The smallest prime factor of each odd n <= limit at index n >> 1, and
    0 where n is prime (and at n = 1)."""
    size = (limit + 1) >> 1
    odd_spf = array("H", bytes(2 * size))
    # a composite n has a prime factor p with p * p <= n; the largest such p
    # goes first, so each smaller one overwrites the odd multiples they
    # share; n = p * p + 2 * k * p sits at index (p * p >> 1) + k * p
    for p in reversed(_eratosthenes(math.isqrt(limit))[1:]):
        start = p * p >> 1
        odd_spf[start::p] = array("H", (p,)) * len(range(start, size, p))
    return odd_spf


_odd_spf = _odd_spf_table(_SPF_CAP)
# the 1,229 primes the trial loop walks
_TRIAL_PRIMES = tuple(_eratosthenes(TRIAL_CUTOFF))


def primes_up_to(limit: int) -> list[int]:
    """Return every prime <= limit in ascending order; limit may be at most 10**7."""
    limit = _integer(limit, "primes_up_to requires an integer limit")
    if limit > _SIEVE_CAP:
        raise DomainError("primes_up_to sieves limits up to 10**7 only")
    if limit < 2:
        return []
    return _eratosthenes(limit)


def _ascending_prime(p: int, last: int, noun: str) -> int:
    """Return p if it is a prime above last, the one before it in the ascending noun."""
    if p <= last:
        raise DomainError(f"{noun} must be strictly ascending, saw {_shown(p)} after {last}")
    if not is_prime(p):
        raise DomainError(f"{p} is not prime")
    return p


@_frozen
class Factorization:
    """Canonical factorization as ((prime, exponent), ...) with primes ascending.

    The empty tuple represents 1. Construction validates primality of every
    base, strict ascent, and positive exponents.
    """

    entries: tuple[tuple[int, int], ...] = ()

    def __post_init__(self) -> None:
        try:
            pairs = [(p, e) for p, e in self.entries]
        except (TypeError, ValueError):
            raise DomainError("factorization entries must be (prime, exponent) pairs") from None
        entries = tuple(_integers(pair, "factorization entries") for pair in pairs)
        object.__setattr__(self, "entries", entries)
        last = 1
        for p, e in entries:
            if e < 1:
                raise DomainError(f"exponent of {_shown(p)} must be positive, got {_shown(e)}")
            last = _ascending_prime(p, last, "primes")

    def as_dict(self) -> dict[int, int]:
        return dict(self.entries)


def reconstruct(f: Factorization) -> int:
    """Multiply a factorization back out; exact at any size."""
    return math.prod(p**e for p, e in f.entries)


def factorize(n: int) -> Factorization:
    """Factor a positive integer up to 2**64 - 1."""
    n = _integer(n, "factorization requires an integer")
    return Factorization._trusted(tuple(sorted(_prime_powers(n).items())))


def _prime_powers(n: int) -> dict[int, int]:
    """Map each prime of an int n to its exponent, in no particular order.

    Every key is proved prime on the way (by the sieve, by the table, or by
    Miller-Rabin), so callers build their results from it without re-proof.
    """
    if n < 1:
        raise DomainError(f"factorization is defined for positive integers, got {_shown(n)}")
    if n > MAX_INPUT:
        raise DomainError(f"factorization supports inputs up to 2**64 - 1, got {_shown(n)}")
    powers: dict[int, int] = {}
    m = n
    if m > _SPF_CAP:
        if is_prime(m):
            return {m: 1}
        # m stays composite here and its least prime factor is >= p, so p * p <= m
        for p in _TRIAL_PRIMES:
            if m % p == 0:
                e = 0
                while m % p == 0:
                    m //= p
                    e += 1
                powers[p] = e
                # the table finishes a cofactor up to _SPF_CAP, and a prime one ends the scan
                if m <= _SPF_CAP or is_prime(m):
                    break
        else:
            # the trial primes ran out with the cofactor still composite
            rng = SplitMix64(_RHO_SEED ^ (n * 0x9E3779B97F4A7C15))
            stack = [m]
            m = 1
            while stack:
                v = stack.pop()
                d = _brent_rho(v, rng)
                for f in (d, v // d):
                    if is_prime(f):
                        powers[f] = powers.get(f, 0) + 1
                    else:
                        stack.append(f)
        if m > _SPF_CAP:
            # proved prime by is_prime, and above every stripped prime
            powers[m] = 1
            return powers
    # m is n itself or a cofactor, up to _SPF_CAP
    if not m & 1:
        e = (m & -m).bit_length() - 1
        powers[2] = e
        m >>= e
    while p := _odd_spf[m >> 1]:
        powers[p] = powers.get(p, 0) + 1
        m //= p
    if m > 1:
        powers[m] = powers.get(m, 0) + 1
    return powers


def _brent_rho(n: int, rng: SplitMix64) -> int:
    """Find a nontrivial factor of an odd composite n via Brent's cycle method."""
    while True:
        y = rng.randint(2, n - 2)
        c = rng.randint(1, n - 1)
        g = r = q = 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += 128
            r *= 2
        if g == n:
            # the batched gcd overshot; replay one step at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g
