"""Prime factorization of 64-bit integers.

Every n <= TRIAL_CUTOFF is looked up in one smallest-prime-factor table,
built on first use. Above the table, Miller-Rabin runs with the smallest
witness set proven for n's range: (2, 3) below 1,373,653 (Pomerance,
Selfridge and Wagstaff 1980), (2, 7, 61) below 4,759,123,141 and
(2, 13, 23, 1662803) below 1,122,004,669,633 (Jaeschke 1993), and a 7-base
set exact below 2**64 past that. Factoring runs in one pass: the input is
tested, trial division by the table's primes strips small factors until
the cofactor is 1, prime, or small enough to finish from the table, and
Brent-cycle Pollard rho splits whatever survives the trial range.
"""

from __future__ import annotations

import functools
import math
from array import array
from dataclasses import dataclass
from itertools import compress

from .errors import DomainError, _integer, _integers, _shown
from .rng import SplitMix64

MAX_INPUT = 2**64 - 1
# Rho finds a factor p in about sqrt(p) steps, so past about 10**4 it beats
# trial division: on random 64-bit inputs, cutoffs from 10**3 to 3*10**4 ran
# within about 10% of one another, and 10**6 at under half their rate.
TRIAL_CUTOFF = 10**4
# primes_up_to sieves per call; the cap bounds the memory a caller's limit buys.
_SIEVE_CAP = 10**7
_RHO_SEED = 0x517CC1B727220A95

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
# (bound, bases): Miller-Rabin with these bases is exact for every n < bound.
# A set meets only n from the bound before it (or TRIAL_CUTOFF) up, so each
# base is below every n it meets and never reduces to 0 mod n.
_MR_WITNESSES = (
    (1_373_653, (2, 3)),
    (4_759_123_141, (2, 7, 61)),
    (1_122_004_669_633, (2, 13, 23, 1662803)),
    (MAX_INPUT + 1, (2, 325, 9375, 28178, 450775, 9780504, 1795265022)),
)


def is_prime(n: int) -> bool:
    """Return True iff n has exactly two positive divisors.

    Deterministic over the supported range; values of 2**64 and above are
    rejected because no witness set is proven past that, and so are
    non-integers and bools.
    """
    if type(n) is not int:
        n = _integer(n, "primality test requires an integer")
    if n <= TRIAL_CUTOFF:
        return n >= 2 and _small_table()[0][n] == n
    if n > MAX_INPUT:
        raise DomainError(f"primality test supports n < 2**64, got {_shown(n)}")
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return False
    for bound, bases in _MR_WITNESSES:
        if n < bound:
            break
    d = n - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    for a in bases:
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


@functools.cache
def _small_table() -> tuple[array, tuple[int, ...]]:
    """The smallest prime factor of every n <= TRIAL_CUTOFF (0 at 0 and 1),
    about 20 KB, and the primes in that range, which feed the trial loop."""
    primes = tuple(_eratosthenes(TRIAL_CUTOFF))
    spf = array("H", bytes(2 * (TRIAL_CUTOFF + 1)))
    for p in primes:
        spf[p] = p
    # a composite n has a prime factor p with p * p <= n; the largest such p
    # goes first, so each smaller one overwrites the multiples they share
    for p in reversed([p for p in primes if p * p <= TRIAL_CUTOFF]):
        spf[p * p :: p] = array("H", (p,)) * len(range(p * p, TRIAL_CUTOFF + 1, p))
    return spf, primes


def primes_up_to(limit: int) -> list[int]:
    """Return every prime <= limit in ascending order; limit may be at most 10**7."""
    limit = _integer(limit, "primes_up_to requires an integer limit")
    if limit > _SIEVE_CAP:
        raise DomainError("primes_up_to sieves limits up to 10**7 only")
    if limit < 2:
        return []
    return _eratosthenes(limit)


@dataclass(frozen=True)
class Factorization:
    """Canonical factorization as ((prime, exponent), ...) with primes ascending.

    The empty tuple represents 1. Construction validates primality of every
    base, strict ascent, and positive exponents.
    """

    entries: tuple[tuple[int, int], ...] = ()

    def __post_init__(self) -> None:
        entries = tuple(
            (p, e) if type(p) is int and type(e) is int else _integers((p, e), "factorization entries")
            for p, e in self.entries
        )
        object.__setattr__(self, "entries", entries)
        last = 1
        for p, e in entries:
            if e < 1:
                raise DomainError(f"exponent of {_shown(p)} must be positive, got {_shown(e)}")
            if p <= last:
                raise DomainError(f"primes must be strictly ascending, saw {_shown(p)} after {last}")
            if not is_prime(p):
                raise DomainError(f"{p} is not prime")
            last = p

    def as_dict(self) -> dict[int, int]:
        return dict(self.entries)


def reconstruct(f: Factorization) -> int:
    """Multiply a factorization back out; exact at any size."""
    return math.prod(p**e for p, e in f.entries)


def factorize(n: int) -> Factorization:
    """Factor a positive integer up to 2**64 - 1."""
    n = _integer(n, "factorization requires an integer")
    return Factorization(tuple(sorted(_prime_powers(n).items())))


def _prime_powers(n: int) -> dict[int, int]:
    """Map each prime of an int n to its exponent, in no particular order.

    Every key is proved prime on the way (by the table, by Miller-Rabin, or
    by p * p > m), but the map is not wrapped in a validated Factorization.
    """
    if n < 1:
        raise DomainError(f"factorization is defined for positive integers, got {_shown(n)}")
    if n > MAX_INPUT:
        raise DomainError(f"factorization supports inputs up to 2**64 - 1, got {_shown(n)}")
    spf, primes = _small_table()
    powers: dict[int, int] = {}
    m = n
    if m > TRIAL_CUTOFF and not is_prime(m):
        for p in primes:
            if p * p > m:
                break
            if m % p == 0:
                e = 0
                while m % p == 0:
                    m //= p
                    e += 1
                powers[p] = e
                # the table finishes a small cofactor, and a prime one ends the scan
                if m <= TRIAL_CUTOFF or is_prime(m):
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
    if m > TRIAL_CUTOFF:
        # proved prime above (or by p * p > m), and above every stripped prime
        powers[m] = 1
    else:
        while m > 1:
            p = spf[m]
            powers[p] = powers.get(p, 0) + 1
            m //= p
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
