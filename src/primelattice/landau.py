"""Largest lcm over the partitions of n.

Two independent routes compute it: exhaustive enumeration of partitions
(small n only) and a knapsack-style dynamic program over prime powers,
which rests on the fact that some maximizing partition always consists of
powers of distinct primes padded with ones. The growth-ratio table feeds
the asymptotic comparison against sqrt(n log n).
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field
from typing import Iterator

from .errors import DomainError, _positive_non_increasing
from .factorization import primes_up_to
from .gcdlcm import gcd_lcm_set

BRUTE_FORCE_LIMIT = 60
DP_LIMIT = 10**4


@dataclass(frozen=True)
class Partition:
    """Non-increasing positive parts; n is their sum."""

    parts: tuple[int, ...]
    n: int = field(init=False)

    def __post_init__(self) -> None:
        parts = _positive_non_increasing(self.parts, "partition parts")
        object.__setattr__(self, "parts", parts)
        object.__setattr__(self, "n", sum(parts))


@dataclass(frozen=True)
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
        if self.n < 1:
            raise DomainError(f"defined for positive n, got {self.n}")
        if self.witness.n != self.n:
            raise DomainError(f"witness sums to {self.witness.n}, expected {self.n}")
        if gcd_lcm_set(list(self.witness.parts)).lcm != self.value:
            raise DomainError("witness lcm does not equal the reported value")
        if (self.ratio is None) != (self.n == 1):
            raise DomainError("ratio must be None exactly at n = 1")
        if self.ratio is not None and self.ratio != _ratio(self.n, self.value):
            raise DomainError("ratio does not match log(value) / sqrt(n log n)")


def _ratio(n: int, value: int) -> float | None:
    if n == 1:
        return None
    return math.log(value) / math.sqrt(n * math.log(n))


def partitions(n: int) -> Iterator[Partition]:
    """Yield all partitions of n in reverse-lexicographic order.

    The first partition is (n,) and the last is all ones; n = 0 yields the
    single empty partition.
    """
    if n < 0:
        raise DomainError(f"partitions are defined for nonnegative n, got {n}")

    def descend(remaining: int, cap: int) -> Iterator[tuple[int, ...]]:
        if remaining == 0:
            yield ()
            return
        for head in range(min(remaining, cap), 0, -1):
            for tail in descend(remaining - head, head):
                yield (head, *tail)

    for parts in descend(n, n):
        yield Partition(parts)


def partition_count(n: int) -> int:
    """Count partitions of n by the pentagonal-number recurrence.

    Shares no code with partitions(), which makes it an independent check
    on the enumeration.
    """
    if n < 0:
        raise DomainError(f"partition counts are defined for nonnegative n, got {n}")
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


def landau_bruteforce(n: int) -> LandauRecord:
    """Maximal lcm by scanning every partition of n.

    The witness is the first maximizer in enumeration order. Each partition
    is scored with math.lcm; the record re-derives the witness lcm through
    the exponent route. Partition counts grow superpolynomially, hence the
    hard limit.
    """
    if not 1 <= n <= BRUTE_FORCE_LIMIT:
        raise DomainError(f"brute force supports 1 <= n <= {BRUTE_FORCE_LIMIT}, got {n}")
    best = 0
    witness = None
    for part in partitions(n):
        value = math.lcm(*part.parts)
        if value > best:
            best = value
            witness = part
    assert witness is not None
    return LandauRecord(n=n, value=best, witness=witness, ratio=_ratio(n, best))


@dataclass(frozen=True)
class _DpTable:
    """Knapsack table over prime powers; values[b] is the maximal lcm for budget b.

    choices[i][b] stores the exponent picked for primes[i] at budget b, 0
    when that prime is skipped, which is enough to walk a witness back out.
    Primes larger than a budget can never be picked for it, so one table
    serves every n up to n_max at once.
    """

    n_max: int
    primes: tuple[int, ...]
    values: tuple[int, ...]
    choices: tuple[bytes, ...]


def _build_table(n_max: int) -> _DpTable:
    primes = primes_up_to(n_max)
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
    return _DpTable(n_max, tuple(primes), tuple(values), tuple(choices))


_dp_lock = threading.Lock()
_dp_cached: _DpTable | None = None


def _dp_table(n_max: int) -> _DpTable:
    global _dp_cached
    table = _dp_cached
    if table is None or table.n_max < n_max:
        with _dp_lock:
            table = _dp_cached
            have = table.n_max if table else 0
            if have < n_max:
                table = _build_table(min(DP_LIMIT, max(n_max, 2 * have, 1 << 10)))
                _dp_cached = table
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
    if not 1 <= n <= DP_LIMIT:
        raise DomainError(f"dynamic program supports 1 <= n <= {DP_LIMIT}, got {n}")
    table = _dp_table(n)
    value = table.values[n]
    witness = Partition(_witness_parts(table, n))
    return LandauRecord(n=n, value=value, witness=witness, ratio=_ratio(n, value))


def asymptotic_table(n_max: int, step: int = 1) -> list[LandauRecord]:
    """Records for n = 2, 2 + step, ... up to n_max."""
    if not 2 <= n_max <= DP_LIMIT:
        raise DomainError(f"table range must satisfy 2 <= n_max <= {DP_LIMIT}, got {n_max}")
    if step < 1:
        raise DomainError(f"step must be positive, got {step}")
    _dp_table(n_max)
    return [landau_dp(n) for n in range(2, n_max + 1, step)]
