"""Cycle structure and multiplicative order of finite permutations.

A permutation is given in one-line notation: position i maps to perm[i-1],
with entries 1..n each appearing once. The order of the permutation is the
lcm of its cycle lengths; verify_order checks that claim literally, by
iterating the permutation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .errors import DomainError, _integer, _positive_non_increasing, _shown, _trusted
from .gcdlcm import gcd_lcm_set


@dataclass(frozen=True)
class CycleDecomposition:
    """Cycle lengths of a permutation of n symbols, longest first."""

    n: int
    cycle_lengths: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "n", _integer(self.n, "cycle decomposition size must be an integer"))
        lengths = _positive_non_increasing(self.cycle_lengths, "cycle lengths")
        object.__setattr__(self, "cycle_lengths", lengths)
        if sum(lengths) != self.n:
            raise DomainError(f"cycle lengths sum to {_shown(sum(lengths))}, expected {_shown(self.n)}")


def _validate_one_line(perm: Sequence[int]) -> list[int]:
    if not perm:
        raise DomainError("permutation must have at least one entry")
    n = len(perm)
    seen = [False] * (n + 1)
    for i, v in enumerate(perm, start=1):
        # exact ints skip both isinstance calls, which cost a quarter of this loop
        if type(v) is not int and (isinstance(v, bool) or not isinstance(v, int)):
            raise DomainError(f"permutation entries must be integers, got {v!r} at position {i}")
        if not 1 <= v <= n:
            raise DomainError(f"entry {_shown(v)} at position {i} is outside 1..{n}")
        if seen[v]:
            raise DomainError(f"entry {v} at position {i} repeats an earlier value")
        seen[v] = True
    return [v - 1 for v in perm]


def cycle_decompose(perm: Sequence[int]) -> CycleDecomposition:
    """Split a one-line permutation into its cycle lengths."""
    mapping = _validate_one_line(perm)
    n = len(mapping)
    visited = [False] * n
    lengths = []
    for start in range(n):
        if visited[start]:
            continue
        length = 0
        j = start
        while not visited[j]:
            visited[j] = True
            j = mapping[j]
            length += 1
        lengths.append(length)
    lengths.sort(reverse=True)
    return _trusted(CycleDecomposition, n, tuple(lengths))


def order(decomposition: CycleDecomposition) -> int:
    """Order of the permutation: the lcm of its cycle lengths."""
    return gcd_lcm_set(list(decomposition.cycle_lengths)).lcm


def verify_order(perm: Sequence[int], m: int) -> bool:
    """True iff perm**m is the identity and no smaller positive power is.

    Runs in O(n * m) by literal iteration, so it stays an oracle for the
    lcm route rather than a fast path.
    """
    m = _integer(m, "order candidate must be an integer")
    if m < 1:
        raise DomainError(f"order candidate must be positive, got {_shown(m)}")
    mapping = _validate_one_line(perm)
    n = len(mapping)
    identity = list(range(n))
    state = identity[:]
    for power in range(1, m + 1):
        state = [mapping[s] for s in state]
        if state == identity:
            return power == m
    return False
