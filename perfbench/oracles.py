"""Independent oracles for the benchmark's correctness checks.

Nothing here imports primelattice: each check is answered by the standard
library or by code in this file, never by the route being checked.
"""

from __future__ import annotations

import math
from typing import Sequence

# Miller-Rabin with the first twelve primes as bases is exact below 3.3e24.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
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


def random_prime(rng, bits: int) -> int:
    """Uniform-ish prime with exactly `bits` bits."""
    while True:
        candidate = rng.getrandbits(bits) | (1 << (bits - 1)) | 1
        if is_prime(candidate):
            return candidate


def factorization_ok(n: int, entries: Sequence[Sequence[int]]) -> bool:
    """True iff entries are ascending (prime, exponent) pairs whose product is n."""
    product = 1
    last = 1
    for p, e in entries:
        if p <= last or e < 1 or not is_prime(p):
            return False
        product *= p**e
        last = p
    return product == n


def cycle_lengths(perm: Sequence[int]) -> list[int]:
    """Cycle lengths of a one-line permutation of 1..n, by walking each cycle."""
    seen = [False] * (len(perm) + 1)
    lengths = []
    for start in range(1, len(perm) + 1):
        length = 0
        j = start
        while not seen[j]:
            seen[j] = True
            j = perm[j - 1]
            length += 1
        if length:
            lengths.append(length)
    return lengths


def landau_brute(n_max: int) -> list[int]:
    """g(n) for n = 0..n_max by enumerating partitions with a running lcm."""
    best = [1] * (n_max + 1)

    def walk(n: int, remaining: int, cap: int, running: int) -> None:
        if remaining == 0:
            if running > best[n]:
                best[n] = running
            return
        for part in range(min(remaining, cap), 0, -1):
            walk(n, remaining - part, part, math.lcm(running, part))

    for n in range(1, n_max + 1):
        walk(n, n, n, 1)
    return best


def partition_count(n: int) -> int:
    """Number of partitions of n, by the coin-change recurrence over part sizes."""
    ways = [1] + [0] * n
    for part in range(1, n + 1):
        for total in range(part, n + 1):
            ways[total] += ways[total - part]
    return ways[n]


def landau_ratio_text(n: int, value: int) -> str:
    """log(g) / sqrt(n log n) to six decimals, as the table prints it."""
    return f"{math.log(value) / math.sqrt(n * math.log(n)):.6f}"


def witness_ok(n: int, value: int, parts: Sequence[int]) -> bool:
    """A Landau witness is a partition of n whose lcm is the claimed value."""
    return all(p >= 1 for p in parts) and sum(parts) == n and math.lcm(*parts) == value
