"""Exponent vectors over a shared prime support.

Pointwise minimum and maximum of these vectors are exactly the exponent
pictures of gcd and lcm; pointwise addition is multiplication and the
componentwise order is divisibility. Every operation insists that its
operands share one support: mixing vectors from different supports is an
error, never a silent re-alignment.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

from .errors import DomainError, _frozen, _integers, _shown
from .factorization import Factorization, _ascending_prime


@_frozen
class PrimeSupport:
    """Ascending tuple of the distinct primes a vector is indexed by."""

    primes: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        primes = _integers(self.primes, "support primes")
        object.__setattr__(self, "primes", primes)
        last = 1
        for p in primes:
            last = _ascending_prime(p, last, "support primes")

    def __len__(self) -> int:
        return len(self.primes)


@_frozen
class ExponentVector:
    """Nonnegative exponents, one per support prime."""

    support: PrimeSupport
    exponents: tuple[int, ...]

    def __post_init__(self) -> None:
        exponents = _integers(self.exponents, "exponents")
        object.__setattr__(self, "exponents", exponents)
        if len(exponents) != len(self.support):
            raise DomainError(
                f"vector length {len(exponents)} does not match support size {len(self.support)}"
            )
        for p, e in zip(self.support.primes, exponents):
            if e < 0:
                raise DomainError(f"exponent of {p} must be nonnegative, got {_shown(e)}")


def _common_support(vectors: Sequence[ExponentVector]) -> PrimeSupport:
    if not vectors:
        raise DomainError("at least one exponent vector is required")
    support = vectors[0].support
    for v in vectors[1:]:
        if v.support.primes != support.primes:
            raise DomainError("exponent vectors have mismatched prime supports")
    return support


def align(factorizations: Iterable[Factorization]) -> tuple[PrimeSupport, list[ExponentVector]]:
    """Embed factorizations into vectors over the union of their primes.

    Primes absent from a particular factorization get exponent zero, so the
    returned vectors are mutually comparable.
    """
    facs = list(factorizations)
    if not facs:
        raise DomainError("at least one factorization is required")
    union: set[int] = set()
    for f in facs:
        union.update(p for p, _ in f.entries)
    support = PrimeSupport._trusted(tuple(sorted(union)))
    vectors = []
    for f in facs:
        table = f.as_dict()
        vectors.append(ExponentVector._trusted(support, tuple(table.get(p, 0) for p in support.primes)))
    return support, vectors


def meet(vectors: Sequence[ExponentVector]) -> ExponentVector:
    """Pointwise minimum; the exponent vector of the gcd."""
    support = _common_support(vectors)
    lows = tuple(min(v.exponents[i] for v in vectors) for i in range(len(support)))
    return ExponentVector._trusted(support, lows)


def join(vectors: Sequence[ExponentVector]) -> ExponentVector:
    """Pointwise maximum; the exponent vector of the lcm."""
    support = _common_support(vectors)
    highs = tuple(max(v.exponents[i] for v in vectors) for i in range(len(support)))
    return ExponentVector._trusted(support, highs)


def add(a: ExponentVector, b: ExponentVector) -> ExponentVector:
    """Pointwise sum; multiplication of the underlying integers."""
    support = _common_support((a, b))
    return ExponentVector._trusted(support, tuple(x + y for x, y in zip(a.exponents, b.exponents)))


def dominates(a: ExponentVector, b: ExponentVector) -> bool:
    """True iff a >= b in every component, i.e. b's integer divides a's."""
    _common_support((a, b))
    return all(x >= y for x, y in zip(a.exponents, b.exponents))


def reconstruct(vector: ExponentVector) -> int:
    """Integer the vector denotes: the product of prime**exponent."""
    return math.prod(p**e for p, e in zip(vector.support.primes, vector.exponents))
