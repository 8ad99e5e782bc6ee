"""Largest lcm over the partitions of n.

Two independent routes compute it: a search over every partition that
skips only subtrees a product bound rules out (small n only), and a
knapsack-style dynamic program over prime powers, which rests on the fact
that some maximizing partition always consists of powers of distinct
primes padded with ones. The growth-ratio table feeds
the asymptotic comparison against sqrt(n log n).

The knapsack runs only over primes up to 1.328 * sqrt(n log n) at the
table's largest n: Grantham (Math. Comp. 64, 1995) bounds the largest
prime dividing g(n) by that, building on the effective bounds of Massias,
Nicolas and Robin (Math. Comp. 53, 1989). It fails at n = 2 and 3, so
tables below 5 keep every prime. The tests check the bound, and the
bounded table against an unbounded one, for every n up to DP_LIMIT.
"""

from __future__ import annotations

import math
from dataclasses import field
from typing import Callable, Iterator

from .errors import DomainError, _frozen, _integer, _integers, _positive_non_increasing, _shown
from .factorization import primes_up_to
from .gcdlcm import gcd_lcm_set

BRUTE_FORCE_LIMIT = 60
DP_LIMIT = 10**4
# partition_count holds n + 1 counts and runs in about n**1.5 steps (0.4 s at
# 10**4), so the cap bounds the memory and time a caller's n buys.
PARTITION_COUNT_LIMIT = 10**4


@_frozen
class Partition:
    """Non-increasing positive parts; n is their sum."""

    parts: tuple[int, ...]
    n: int = field(init=False)

    def __post_init__(self) -> None:
        parts = _positive_non_increasing(self.parts, "partition parts")
        object.__setattr__(self, "parts", parts)
        object.__setattr__(self, "n", sum(parts))


@_frozen
class LandauRecord:
    """Maximal lcm at n, a partition attaining it, and the growth ratio.

    ratio is log(value) / sqrt(n * log(n)) with natural logs, or None at
    n = 1 where the denominator vanishes.
    """

    n: int
    value: int
    witness: Partition
    ratio: float | None

    def __post_init__(self) -> None:
        n, value = _integers((self.n, self.value), "Landau record n and value")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "value", value)
        if self.n < 1:
            raise DomainError(f"defined for positive n, got {_shown(self.n)}")
        _check_witness(self.n, self.value, self.witness.parts, lambda *parts: gcd_lcm_set(parts).lcm)
        if (self.ratio is None) != (self.n == 1):
            raise DomainError("ratio must be None exactly at n = 1")
        if self.ratio is not None and self.ratio != _ratio(self.n, self.value):
            raise DomainError("ratio does not match log(value) / sqrt(n log n)")


def _check_witness(n: int, value: int, parts: tuple[int, ...], lcm: Callable[..., int]) -> None:
    if sum(parts) != n:
        raise DomainError(f"witness sums to {_shown(sum(parts))}, expected {_shown(n)}")
    if lcm(*parts) != value:
        raise DomainError("witness lcm does not equal the reported value")


def _ratio(n: int, value: int) -> float | None:
    if n == 1:
        return None
    return math.log(value) / math.sqrt(n * math.log(n))


def partitions(n: int) -> Iterator[Partition]:
    """Yield all partitions of n in reverse-lexicographic order, from (n,) to
    all ones (Knuth, TAOCP 4A, 7.2.1.4): each step strips the trailing ones,
    lowers the last part by one and refills behind it with parts no larger.
    n = 0 yields the single empty partition.
    """
    n = _integer(n, "partitions require an integer n")
    if n < 0:
        raise DomainError(f"partitions are defined for nonnegative n, got {_shown(n)}")
    parts = [n] if n else []
    yield Partition._trusted(tuple(parts), n)
    while parts and parts[0] > 1:
        rest = 1
        while parts[-1] == 1:
            rest += parts.pop()
        part = parts[-1] = parts[-1] - 1
        while rest > part:
            parts.append(part)
            rest -= part
        parts.append(rest)
        yield Partition._trusted(tuple(parts), n)


def partition_count(n: int) -> int:
    """Count partitions of n by the pentagonal-number recurrence, for
    0 <= n <= PARTITION_COUNT_LIMIT.

    Shares no code with partitions(), which makes it an independent check
    on the enumeration.
    """
    n = _integer(n, "partition counts require an integer n")
    if n < 0:
        raise DomainError(f"partition counts are defined for nonnegative n, got {_shown(n)}")
    if n > PARTITION_COUNT_LIMIT:
        raise DomainError(f"partition counts support n <= {PARTITION_COUNT_LIMIT}, got {_shown(n)}")
    counts = [1] + [0] * n
    for m in range(1, n + 1):
        total = 0
        k = 1
        while True:
            g1 = k * (3 * k - 1) // 2
            if g1 > m:
                break
            sign = 1 if k % 2 else -1
            total += sign * counts[m - g1]
            g2 = k * (3 * k + 1) // 2
            if g2 <= m:
                total += sign * counts[m - g2]
            k += 1
        counts[m] = total
    return counts[n]


# _MAX_PRODUCT[r] is the largest product of positive parts summing to r: threes,
# with one 2 or 4 when r is not a multiple of 3. It bounds the lcm of any parts
# summing to r, and uses nothing about which partitions attain an lcm.
_MAX_PRODUCT = [1, 1, 2, 3, 4]
while len(_MAX_PRODUCT) <= BRUTE_FORCE_LIMIT:
    _MAX_PRODUCT.append(3 * _MAX_PRODUCT[-3])


def landau_bruteforce(n: int) -> LandauRecord:
    """Maximal lcm by searching every partition of n.

    The search walks the partitions in partitions() order and carries the
    lcm of the parts so far. It skips a subtree when the running lcm times
    the largest product of positive parts summing to what remains is at
    most the best lcm found, since no partition below can beat it. That
    bound knows nothing of Landau's function, so this route stays
    independent of the dynamic program. The witness is the first maximizer
    in enumeration order: a later partition replaces it only with a
    strictly larger lcm, and the skip test is not strict. The record
    re-derives the witness lcm through the exponent route. The search still
    grows superpolynomially, hence the hard limit.
    """
    n = _integer(n, "brute force requires an integer n")
    if not 1 <= n <= BRUTE_FORCE_LIMIT:
        raise DomainError(f"brute force supports 1 <= n <= {BRUTE_FORCE_LIMIT}, got {_shown(n)}")
    best = 0
    witness: tuple[int, ...] = ()
    stack: list[int] = []

    def search(remaining: int, cap: int, acc: int) -> None:
        nonlocal best, witness
        for head in range(min(remaining, cap), 0, -1):
            rest = remaining - head
            lcm = acc * head // math.gcd(acc, head)
            if lcm * _MAX_PRODUCT[rest] <= best:
                continue
            stack.append(head)
            if rest:
                search(rest, head, lcm)
            else:
                # passing the skip test with nothing left means lcm > best
                best = lcm
                witness = tuple(stack)
            stack.pop()

    search(n, n, 1)
    return LandauRecord(n=n, value=best, witness=Partition(witness), ratio=_ratio(n, best))


@_frozen
class _DpTable:
    """Knapsack table over prime powers; values[b] is the maximal lcm for budget b.

    choices[i][b] stores the exponent picked for primes[i] at budget b, 0
    when that prime is skipped, which is enough to walk a witness back out.
    Primes larger than a budget can never be picked for it, and the prime
    bound grows with n, so one table serves every n below len(values) at once.
    """

    primes: tuple[int, ...]
    values: tuple[int, ...]
    choices: tuple[bytes, ...]


def _build_table(n_max: int) -> _DpTable:
    # no prime above Grantham's bound divides g(n) for 4 <= n <= n_max, and
    # at n_max >= 5 the bound is at least 3, which covers n = 2 and 3
    bound = n_max if n_max < 5 else int(1.328 * math.sqrt(n_max * math.log(n_max)))
    primes = primes_up_to(bound)
    values: list[int] = [1] * (n_max + 1)
    choices: list[bytes] = []
    for p in primes:
        row = bytearray(n_max + 1)
        for budget in range(n_max, p - 1, -1):
            best = values[budget]
            picked = 0
            power = p
            exponent = 1
            while power <= budget:
                candidate = values[budget - power] * power
                if candidate > best:
                    best = candidate
                    picked = exponent
                power *= p
                exponent += 1
            if picked:
                values[budget] = best
                row[budget] = picked
        choices.append(bytes(row))
    return _DpTable(tuple(primes), tuple(values), tuple(choices))


# Rebound, never mutated: a reader takes one reference and returns a table
# that covers its n, so two threads that grow it at once only build twice. A
# miss builds to n or to twice the cached size, so ascending n rebuild O(log n) times.
_dp_cached: _DpTable | None = None


def _dp_table(n_max: int) -> _DpTable:
    global _dp_cached
    table = _dp_cached
    have = len(table.values) - 1 if table else 0
    if have < n_max:
        table = _dp_cached = _build_table(min(DP_LIMIT, max(n_max, 2 * have)))
    return table


def _witness_parts(table: _DpTable, n: int) -> tuple[int, ...]:
    parts = []
    budget = n
    for i in range(len(table.primes) - 1, -1, -1):
        exponent = table.choices[i][budget]
        if exponent:
            power = table.primes[i] ** exponent
            parts.append(power)
            budget -= power
    parts.sort(reverse=True)
    # leftover budget pads out with ones, which change no lcm
    parts.extend([1] * budget)
    return tuple(parts)


def landau_dp(n: int) -> LandauRecord:
    """Maximal lcm by dynamic programming over distinct prime powers."""
    n = _integer(n, "dynamic program requires an integer n")
    if not 1 <= n <= DP_LIMIT:
        raise DomainError(f"dynamic program supports 1 <= n <= {DP_LIMIT}, got {_shown(n)}")
    table = _dp_table(n)
    value = table.values[n]
    parts = _witness_parts(table, n)
    # the knapsack only multiplies prime powers, so math.lcm checks its witness by another method
    _check_witness(n, value, parts, math.lcm)
    return LandauRecord._trusted(n, value, Partition._trusted(parts, n), _ratio(n, value))


def asymptotic_table(n_max: int, step: int = 1) -> list[LandauRecord]:
    """Records for n = 2, 2 + step, ... up to n_max."""
    n_max = _integer(n_max, "table range requires an integer n_max")
    step = _integer(step, "step must be an integer")
    if not 2 <= n_max <= DP_LIMIT:
        raise DomainError(f"table range must satisfy 2 <= n_max <= {DP_LIMIT}, got {_shown(n_max)}")
    if step < 1:
        raise DomainError(f"step must be positive, got {_shown(step)}")
    _dp_table(n_max)
    return [landau_dp(n) for n in range(2, n_max + 1, step)]
