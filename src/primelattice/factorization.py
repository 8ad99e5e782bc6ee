"""Prime factorization of 64-bit integers over a cached prime sieve.

Factoring runs in tiers: trial division by sieved primes strips small
factors, a deterministic Miller-Rabin test (exact below 2**64) stops the
scan as soon as the cofactor is prime, and Brent-cycle Pollard rho splits
whatever survives with all factors above the trial range.
"""

from __future__ import annotations

import math
import threading
from bisect import bisect_right
from dataclasses import dataclass

from .errors import DomainError
from .rng import SplitMix64

MAX_INPUT = 2**64 - 1
TRIAL_CUTOFF = 10**6
DEFAULT_RHO_SEED = 0x517CC1B727220A95

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
# Witness set that makes Miller-Rabin exact for every n below 2**64.
_MR_BASES = (2, 325, 9375, 28178, 450775, 9780504, 1795265022)


def is_prime(n: int) -> bool:
    """Return True iff n has exactly two positive divisors.

    Deterministic over the supported range; values of 2**64 and above are
    rejected because the fixed witness set is only proven below that.
    """
    if n > MAX_INPUT:
        raise DomainError(f"primality test supports n < 2**64, got {n}")
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    if n < 41 * 41:
        # no small prime divides n, and any composite this size would have one
        return True
    d = n - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    for base in _MR_BASES:
        a = base % n
        if a == 0:
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


def _eratosthenes(limit: int) -> tuple[int, ...]:
    flags = bytearray((1,)) * (limit + 1)
    flags[0:2] = b"\x00\x00"
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = bytearray(len(range(p * p, limit + 1, p)))
    return tuple(i for i in range(2, limit + 1) if flags[i])


_sieve_lock = threading.Lock()
# grow-only; readers see an atomic (limit, primes) snapshot without the lock
_sieve_state: tuple[int, tuple[int, ...]] = (1, ())


def primes_up_to(limit: int) -> list[int]:
    """Return every prime <= limit in ascending order."""
    global _sieve_state
    if limit < 2:
        return []
    lim, primes = _sieve_state
    if limit > lim:
        with _sieve_lock:
            lim, primes = _sieve_state
            if limit > lim:
                # geometric growth amortizes repeated slightly-larger asks
                lim = max(limit, 2 * lim, 1 << 10)
                primes = _eratosthenes(lim)
                _sieve_state = (lim, primes)
    return list(primes[: bisect_right(primes, limit)])


@dataclass(frozen=True)
class Factorization:
    """Canonical factorization as ((prime, exponent), ...) with primes ascending.

    The empty tuple represents 1. Construction validates primality of every
    base, strict ascent, and positive exponents.
    """

    entries: tuple[tuple[int, int], ...] = ()

    def __post_init__(self) -> None:
        entries = tuple((int(p), int(e)) for p, e in self.entries)
        object.__setattr__(self, "entries", entries)
        last = 1
        for p, e in entries:
            if e < 1:
                raise DomainError(f"exponent of {p} must be positive, got {e}")
            if p <= last:
                raise DomainError(f"primes must be strictly ascending, saw {p} after {last}")
            if not is_prime(p):
                raise DomainError(f"{p} is not prime")
            last = p

    def as_dict(self) -> dict[int, int]:
        return dict(self.entries)


def reconstruct(f: Factorization) -> int:
    """Multiply a factorization back out; exact at any size."""
    return math.prod(p**e for p, e in f.entries)


def factorize(n: int, *, rho_seed: int = DEFAULT_RHO_SEED) -> Factorization:
    """Factor a positive integer up to 2**64 - 1.

    The result is independent of rho_seed; the seed only steers how fast
    Pollard rho happens to split hard semiprimes.
    """
    if n < 1:
        raise DomainError(f"factorization is defined for positive integers, got {n}")
    if n > MAX_INPUT:
        raise DomainError(f"factorization supports inputs up to 2**64 - 1, got {n}")
    powers: dict[int, int] = {}
    m = n
    for p in _SMALL_PRIMES:
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            powers[p] = e
    if m > 1 and not is_prime(m):
        trial = primes_up_to(min(TRIAL_CUTOFF, math.isqrt(m)))
        for p in trial[bisect_right(trial, _SMALL_PRIMES[-1]) :]:
            if p * p > m:
                break
            if m % p == 0:
                e = 0
                while m % p == 0:
                    m //= p
                    e += 1
                powers[p] = e
                # once the cofactor is prime the rest of the scan is wasted
                if m == 1 or is_prime(m):
                    break
        else:
            # the trial list ran out with the cofactor still composite
            _rho_split(m, powers, SplitMix64(rho_seed ^ (n * 0x9E3779B97F4A7C15)))
            m = 1
    # any cofactor left here was proved prime above (or by p * p > m)
    if m > 1:
        powers[m] = powers.get(m, 0) + 1
    return Factorization(tuple(sorted(powers.items())))


def _rho_split(n: int, powers: dict[int, int], rng: SplitMix64) -> None:
    # n is an odd composite with no factor below the trial range
    stack = [n]
    while stack:
        v = stack.pop()
        if is_prime(v):
            powers[v] = powers.get(v, 0) + 1
            continue
        d = _brent_rho(v, rng)
        stack.append(d)
        stack.append(v // d)


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
