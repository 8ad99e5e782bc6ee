"""n-ary gcd and lcm from prime exponent vectors, plus the classical
identities that cross-check them and Euclidean ratio reduction.

The exponent route factors every input; the subtraction-based Euclidean
gcd never factors anything, which makes it an independent oracle for the
lattice computation.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Sequence

from . import lattice
from .errors import DomainError
from .factorization import factorize
from .lattice import ExponentVector, PrimeSupport, align, join, meet


@dataclass(frozen=True)
class GcdLcmResult:
    """gcd and lcm of a set, with the exponent vectors that produced them."""

    gcd: int
    lcm: int
    support: PrimeSupport
    min_exponents: ExponentVector
    max_exponents: ExponentVector

    def __post_init__(self) -> None:
        if lattice.reconstruct(self.min_exponents) != self.gcd:
            raise DomainError("gcd does not match its exponent vector")
        if lattice.reconstruct(self.max_exponents) != self.lcm:
            raise DomainError("lcm does not match its exponent vector")
        if not lattice.dominates(self.max_exponents, self.min_exponents):
            raise DomainError("lcm exponents must dominate gcd exponents")


@dataclass(frozen=True)
class ReducedRatio:
    """A ratio in lowest terms; left and right are positive and coprime."""

    left: int
    right: int

    def __post_init__(self) -> None:
        if self.left < 1 or self.right < 1:
            raise DomainError("reduced ratio terms must be positive")
        if gcd_euclid(self.left, self.right) != 1:
            raise DomainError(f"{self.left}:{self.right} is not in lowest terms")


@dataclass(frozen=True)
class ProductCheck:
    """Evaluation of gcd(a, b) * lcm(a, b) == a * b for one pair."""

    a: int
    b: int
    gcd: int
    lcm: int
    product: int
    combined: int
    holds: bool


@dataclass(frozen=True)
class DistributiveCheck:
    """Evaluation of gcd(lcm(a,b), lcm(b,c), lcm(a,c)) == lcm(gcd(a,b), gcd(b,c), gcd(a,c)).

    Both sides are computed twice: by nested integer gcd/lcm calls and by
    min/max over aligned exponent vectors. per_prime lists, for each prime
    in the joint support, the min-of-pairwise-maxima and the
    max-of-pairwise-minima, which the identity requires to coincide.
    """

    a: int
    b: int
    c: int
    left: int
    right: int
    exponent_left: int
    exponent_right: int
    per_prime: tuple[tuple[int, int, int], ...]
    holds: bool


def gcd_lcm_set(values: Sequence[int]) -> GcdLcmResult:
    """gcd and lcm of nonzero integers via min/max prime exponents.

    Signs are dropped: divisibility does not see them, so the result is the
    same for -4 as for 4. Zero is rejected because max exponents (and with
    them the lcm) stop existing once zero joins the set.

    Each value is factored once and its entries are folded in one pass into
    the maximum exponent of every prime seen and the minimum over primes
    common to all values, so the cost follows the factor entries rather
    than the number of values times the joint support.
    """
    vals = [_integer(v) for v in values]
    if not vals:
        raise DomainError("gcd/lcm of an empty set is undefined")
    for v in vals:
        if v == 0:
            raise DomainError("gcd/lcm require nonzero integers; zero admits no exponent vector")
    tables = (factorize(abs(v)).as_dict() for v in vals)
    lows = next(tables)
    highs = dict(lows)
    for table in tables:
        for p, e in table.items():
            if e > highs.get(p, 0):
                highs[p] = e
        # a prime missing from this value has exponent 0, so it leaves lows
        lows = {p: min(e, table[p]) for p, e in lows.items() if p in table}
    support = PrimeSupport(tuple(sorted(highs)))
    mins = ExponentVector(support, tuple(lows.get(p, 0) for p in support.primes))
    maxs = ExponentVector(support, tuple(highs[p] for p in support.primes))
    return GcdLcmResult(
        gcd=lattice.reconstruct(mins),
        lcm=lattice.reconstruct(maxs),
        support=support,
        min_exponents=mins,
        max_exponents=maxs,
    )


def _integer(value: int) -> int:
    if isinstance(value, bool):
        raise DomainError(f"gcd/lcm require integers, got the bool {value!r}")
    try:
        return operator.index(value)
    except TypeError:
        raise DomainError(f"gcd/lcm require integers, got {value!r}") from None


def gcd_euclid(a: int, b: int) -> int:
    """Euclidean gcd by remainder alternation; no factoring involved."""
    a, b = abs(a), abs(b)
    while b:
        a, b = b, a % b
    return a


def reduce_ratio(a: int, b: int) -> ReducedRatio:
    """Reduce a:b to lowest terms by dividing out the Euclidean gcd."""
    if a == 0 or b == 0:
        raise DomainError("ratio terms must be nonzero")
    a, b = abs(a), abs(b)
    g = gcd_euclid(a, b)
    return ReducedRatio(a // g, b // g)


def check_product_identity(a: int, b: int) -> ProductCheck:
    """Compare gcd * lcm against a * b for positive a and b."""
    if a < 1 or b < 1:
        raise DomainError("product identity check expects positive integers")
    res = gcd_lcm_set([a, b])
    product = a * b
    combined = res.gcd * res.lcm
    return ProductCheck(
        a=a, b=b, gcd=res.gcd, lcm=res.lcm,
        product=product, combined=combined, holds=product == combined,
    )


def check_distributive_identity(a: int, b: int, c: int) -> DistributiveCheck:
    """Check the gcd-of-lcms == lcm-of-gcds identity along both routes.

    The integer route nests gcd_lcm_set calls, so the pairwise lcms it
    factors must stay below 2**64; inputs up to 2**32 - 1 are always safe.
    """
    for v in (a, b, c):
        if v < 1:
            raise DomainError("distributive identity check expects positive integers")
    pairs = [gcd_lcm_set(pair) for pair in ([a, b], [b, c], [a, c])]
    left = gcd_lcm_set([res.lcm for res in pairs]).gcd
    right = gcd_lcm_set([res.gcd for res in pairs]).lcm

    support, (va, vb, vc) = align([factorize(a), factorize(b), factorize(c)])
    pair_maxima = [join([va, vb]), join([vb, vc]), join([va, vc])]
    pair_minima = [meet([va, vb]), meet([vb, vc]), meet([va, vc])]
    vec_left = meet(pair_maxima)
    vec_right = join(pair_minima)
    per_prime = tuple(
        (p, vec_left.exponents[i], vec_right.exponents[i])
        for i, p in enumerate(support.primes)
    )
    exponent_left = lattice.reconstruct(vec_left)
    exponent_right = lattice.reconstruct(vec_right)
    holds = (
        left == right == exponent_left == exponent_right
        and all(lo == hi for _, lo, hi in per_prime)
    )
    return DistributiveCheck(
        a=a, b=b, c=c,
        left=left, right=right,
        exponent_left=exponent_left, exponent_right=exponent_right,
        per_prime=per_prime, holds=holds,
    )
