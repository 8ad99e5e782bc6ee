"""n-ary gcd and lcm from prime exponent vectors, plus the classical
identities that cross-check them and Euclidean ratio reduction.

The exponent route factors every input; the remainder-based Euclidean
gcd never factors anything, which makes it an independent oracle for the
lattice computation.
"""

from __future__ import annotations

import math
from typing import Sequence

from . import lattice
from .errors import DomainError, _frozen, _integer, _integers, _shown
from .factorization import _prime_powers, factorize
from .lattice import ExponentVector, PrimeSupport, align, join, meet


@_frozen
class GcdLcmResult:
    """gcd and lcm of a set, with the exponent vectors that produced them."""

    gcd: int
    lcm: int
    support: PrimeSupport
    min_exponents: ExponentVector
    max_exponents: ExponentVector

    def __post_init__(self) -> None:
        gcd, lcm = _integers((self.gcd, self.lcm), "gcd and lcm")
        object.__setattr__(self, "gcd", gcd)
        object.__setattr__(self, "lcm", lcm)
        if lattice.reconstruct(self.min_exponents) != self.gcd:
            raise DomainError("gcd does not match its exponent vector")
        if lattice.reconstruct(self.max_exponents) != self.lcm:
            raise DomainError("lcm does not match its exponent vector")
        if not lattice.dominates(self.max_exponents, self.min_exponents):
            raise DomainError("lcm exponents must dominate gcd exponents")
        if self.max_exponents.support != self.support:
            raise DomainError("support does not match the exponent vectors' support")


@_frozen
class ReducedRatio:
    """A ratio in lowest terms; left and right are positive and coprime."""

    left: int
    right: int

    def __post_init__(self) -> None:
        left, right = _integers((self.left, self.right), "reduced ratio terms")
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)
        if self.left < 1 or self.right < 1:
            raise DomainError("reduced ratio terms must be positive")
        if gcd_euclid(self.left, self.right) != 1:
            raise DomainError(f"{_shown(self.left)}:{_shown(self.right)} is not in lowest terms")


@_frozen
class ProductCheck:
    """Evaluation of gcd(a, b) * lcm(a, b) == a * b for one pair."""

    a: int
    b: int
    gcd: int
    lcm: int
    product: int
    combined: int
    holds: bool


@_frozen
class DistributiveCheck:
    """Evaluation of gcd(lcm(a,b), lcm(b,c), lcm(a,c)) == lcm(gcd(a,b), gcd(b,c), gcd(a,c)).

    Both sides are computed twice: by a Euclidean gcd/lcm fold that never
    factors and by min/max over aligned exponent vectors. per_prime lists,
    for each prime in the joint support, the min-of-pairwise-maxima and the
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

    Each value is factored once. One pass over the prime-to-exponent maps
    keeps every prime's maximum exponent. The gcd lives on the primes all
    values share, found by intersecting the maps' keys at C speed; most sets
    share none, and then the gcd is 1 with no minimum taken. So the cost
    follows the factor entries rather than the number of values times the
    joint support. The factorizer proves every prime it returns, so the
    support, both vectors and the result are built from those proved parts
    without re-validation.
    """
    vals = [v if type(v) is int else _integer(v, "gcd/lcm require integers") for v in values]
    if not vals:
        raise DomainError("gcd/lcm of an empty set is undefined")
    if 0 in vals:
        raise DomainError("gcd/lcm require nonzero integers; zero admits no exponent vector")
    tables = [_prime_powers(abs(v)) for v in vals]
    highs = dict(tables[0])
    for table in tables[1:]:
        for p, e in table.items():
            if e > highs.get(p, 0):
                highs[p] = e
    primes = tuple(sorted(highs))
    maxs = tuple(map(highs.__getitem__, primes))
    # a prime missing from any value has exponent 0 in the gcd
    shared = set(tables[0]).intersection(*tables[1:])
    if shared:
        mins = tuple(min(t[p] for t in tables) if p in shared else 0 for p in primes)
        gcd = math.prod(map(pow, primes, mins))
    else:
        mins = (0,) * len(primes)
        gcd = 1
    support = PrimeSupport._trusted(primes)
    return GcdLcmResult._trusted(
        gcd, math.prod(map(pow, primes, maxs)), support,
        ExponentVector._trusted(support, mins), ExponentVector._trusted(support, maxs),
    )


def gcd_euclid(a: int, b: int) -> int:
    """Euclidean gcd by remainder alternation; no factoring involved."""
    a, b = map(abs, _integers((a, b), "gcd_euclid arguments"))
    while b:
        a, b = b, a % b
    return a


def _euclid_fold(values: Sequence[int]) -> tuple[int, int]:
    """gcd and lcm of values by pairwise Euclidean steps; no factoring involved."""
    g = 0
    l = 1
    for v in values:
        g = gcd_euclid(g, v)
        l = abs(v) // gcd_euclid(l, v) * l
    return g, l


def reduce_ratio(a: int, b: int) -> ReducedRatio:
    """Reduce a:b to lowest terms by dividing out the Euclidean gcd."""
    a = _integer(a, "ratio terms must be integers")
    b = _integer(b, "ratio terms must be integers")
    if a == 0 or b == 0:
        raise DomainError("ratio terms must be nonzero")
    a, b = abs(a), abs(b)
    g = gcd_euclid(a, b)
    return ReducedRatio._trusted(a // g, b // g)


def check_product_identity(a: int, b: int) -> ProductCheck:
    """Compare gcd * lcm against a * b for positive a and b."""
    a, b = _integers((a, b), "product identity check inputs")
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

    The integer side is a Euclidean gcd/lcm fold over the pairs, so only
    the exponent route factors, once per input.
    """
    a, b, c = _integers((a, b, c), "distributive identity check inputs")
    if min(a, b, c) < 1:
        raise DomainError("distributive identity check expects positive integers")
    gcds, lcms = zip(*(_euclid_fold(pair) for pair in ((a, b), (b, c), (a, c))))
    left = _euclid_fold(lcms)[0]
    right = _euclid_fold(gcds)[1]

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
