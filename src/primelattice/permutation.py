"""Cycle structure and multiplicative order of finite permutations.

A permutation is given in one-line notation: position i maps to perm[i-1],
with entries 1..n each appearing once. Entries are ints; int subclasses
such as IntEnum members count as their value, and bools are rejected. One
pass both checks a permutation and walks its cycles. The order of the
permutation is the lcm of its cycle lengths; verify_order checks that claim
literally, by iterating the permutation.
"""

from __future__ import annotations

import operator
from typing import Sequence

from .errors import DomainError, _frozen, _integer, _positive_non_increasing, _safe_repr, _shown
from .gcdlcm import gcd_lcm_set


@_frozen
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


def _checked_entries(perm: Sequence[int]) -> list[int]:
    """The entries of perm as exact ints, or a DomainError naming the first
    entry that keeps perm from being a one-line permutation of 1..n."""
    if not perm:
        raise DomainError("permutation must have at least one entry")
    n = len(perm)
    seen = [False] * (n + 1)
    for i, v in enumerate(perm, start=1):
        if isinstance(v, bool) or not isinstance(v, int):
            raise DomainError(f"permutation entries must be integers, got {_safe_repr(v)} at position {i}")
        if not 1 <= v <= n:
            raise DomainError(f"entry {_shown(operator.index(v))} at position {i} is outside 1..{n}")
        if seen[v]:
            raise DomainError(f"entry {v} at position {i} repeats an earlier value")
        seen[v] = True
    return [int(v) for v in perm]


def _walk(entries: Sequence[int]) -> list[int]:
    """Cycle lengths of entries in one-line notation, all of them ints >= 1.

    Each walk zeroes the entries it visits and parks its start in m[0]. A
    walk that meets an entry zeroed before follows its 0 to m[0] and so back
    to its start, counting two steps that visit no new entry. An entry above
    n raises IndexError when the walk uses it as an index. Each entry is
    first visited by exactly one walk, so the lengths sum to n exactly when
    every walk closed a cycle, that is, when the entries are a permutation
    of 1..n.
    """
    m = [0, *entries]
    lengths = []
    for start in range(1, len(m)):
        j = m[start]
        if j:
            m[start] = 0
            m[0] = start
            length = 1
            while j != start:
                m[j], j = 0, m[j]
                length += 1
            lengths.append(length)
    return lengths


def _cycle_lengths(perm: Sequence[int]) -> list[int]:
    """Cycle lengths of a one-line permutation, checked in the same pass.

    Exact ints, all of them >= 1 (both tested at C speed), are walked
    directly and accepted when the walk raises no IndexError and its lengths
    sum to n. Anything else goes to _checked_entries, which raises for the
    first bad entry or returns int subclass entries as exact ints.
    """
    if perm and operator.countOf(map(type, perm), int) == len(perm) and min(perm) >= 1:
        try:
            lengths = _walk(perm)
        except IndexError:
            pass
        else:
            if sum(lengths) == len(perm):
                return lengths
    return _walk(_checked_entries(perm))


def cycle_decompose(perm: Sequence[int]) -> CycleDecomposition:
    """Split a one-line permutation into its cycle lengths."""
    lengths = _cycle_lengths(perm)
    lengths.sort(reverse=True)
    return CycleDecomposition._trusted(len(perm), tuple(lengths))


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
    _cycle_lengths(perm)  # the one check of perm; its lengths are not the oracle's
    mapping = [v - 1 for v in perm]
    n = len(mapping)
    identity = list(range(n))
    state = identity[:]
    for power in range(1, m + 1):
        state = [mapping[s] for s in state]
        if state == identity:
            return power == m
    return False
