"""Deterministic pseudo-random 64-bit generator (splitmix64).

The update rule is fixed so that sweeps seeded with the same value replay
the identical draw sequence on any platform or language:

    state := (state + 0x9E3779B97F4A7C15) mod 2**64
    z := state
    z := ((z XOR (z >> 30)) * 0xBF58476D1CE4E5B9) mod 2**64
    z := ((z XOR (z >> 27)) * 0x94D049BB133111EB) mod 2**64
    output := z XOR (z >> 31)
"""

from __future__ import annotations

from .errors import DomainError, _integer, _integers, _shown

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


class SplitMix64:
    """Stateful splitmix64 stream seeded with a 64-bit integer."""

    __slots__ = ("state",)

    def __init__(self, seed: int) -> None:
        self.state = _integer(seed, "SplitMix64 requires an integer seed") & _MASK64

    def next_u64(self) -> int:
        """Advance the state once and return the mixed 64-bit output."""
        self.state = (self.state + _GAMMA) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
        return z ^ (z >> 31)

    def randint(self, lo: int, hi: int) -> int:
        """Draw from [lo, hi] by reduction modulo the span.

        The modulo bias is below span / 2**64, which is irrelevant for the
        test sweeps this generator exists for.
        """
        if type(lo) is not int or type(hi) is not int:
            lo, hi = _integers((lo, hi), "randint bounds")
        if lo > hi:
            raise DomainError(f"empty range [{_shown(lo)}, {_shown(hi)}]")
        return lo + self.next_u64() % (hi - lo + 1)
