import math
from fractions import Fraction

import pytest

from primelattice import (
    CycleDecomposition,
    DomainError,
    ExponentVector,
    Factorization,
    GcdLcmResult,
    LandauRecord,
    Partition,
    PrimeSupport,
    ReducedRatio,
    asymptotic_table,
    check_distributive_identity,
    check_product_identity,
    cycle_decompose,
    factorize,
    gcd_euclid,
    gcd_lcm_set,
    is_prime,
    landau_bruteforce,
    landau_dp,
    partition_count,
    partitions,
    primes_up_to,
    reduce_ratio,
    verify_order,
)
from primelattice import factorization
from primelattice.cli import verify_sweep
from primelattice.rng import SplitMix64


def _gcd_lcm_result(*values, gcd, lcm):
    """A GcdLcmResult with the given scalars over the vectors of gcd_lcm_set(values)."""
    res = gcd_lcm_set(values)
    return GcdLcmResult(gcd, lcm, res.support, res.min_exponents, res.max_exponents)


# each call used to succeed on the integer a float or bool compares equal to,
# to blame a truncated value, or to end in a bare TypeError
NON_INTEGER_CALLS = {
    "factorize-float": lambda: factorize(2.0),
    "factorize-bool": lambda: factorize(True),
    "factorize-fraction": lambda: factorize(10.5),
    "reduce_ratio-float": lambda: reduce_ratio(2.0, 4),
    "reduce_ratio-bool": lambda: reduce_ratio(6, False),
    "landau_dp-float": lambda: landau_dp(5.0),
    "landau_dp-bool": lambda: landau_dp(True),
    "landau_bruteforce-float": lambda: landau_bruteforce(5.0),
    "asymptotic_table-n_max": lambda: asymptotic_table(10.0),
    "asymptotic_table-step": lambda: asymptotic_table(10, 1.0),
    "partitions-float": lambda: list(partitions(3.0)),
    "partition_count-float": lambda: partition_count(3.0),
    "primes_up_to-fraction": lambda: primes_up_to(10.5),
    "primes_up_to-bool": lambda: primes_up_to(True),
    "primes_up_to-str": lambda: primes_up_to("7"),
    "cycle_decompose-bool": lambda: cycle_decompose([True]),
    # repr of these passes str()'s digit limit, which ended in a bare ValueError
    "factorize-huge-fraction": lambda: factorize(Fraction(10**5000)),
    "gcd_lcm_set-huge-fraction": lambda: gcd_lcm_set([Fraction(10**5000)]),
    "cycle_decompose-huge-fraction": lambda: cycle_decompose([Fraction(10**5000)]),
    "verify_order-bool-entry": lambda: verify_order([True], 1),
    "verify_order-float-m": lambda: verify_order([2, 1], 2.0),
    "gcd_euclid-fraction": lambda: gcd_euclid(4.5, 3),
    "gcd_euclid-bool": lambda: gcd_euclid(True, 4),
    "check_product_identity-str": lambda: check_product_identity("7", 3),
    "check_distributive_identity-none": lambda: check_distributive_identity(2, None, 3),
    # verify_sweep ended in a TypeError on these, or echoed count=True as true
    "verify_sweep-count-float": lambda: verify_sweep("product", 2.5, 1, 10),
    "verify_sweep-count-bool": lambda: verify_sweep("product", True, 1, 10),
    "verify_sweep-seed-float": lambda: verify_sweep("product", 2, 1.5, 10),
    "verify_sweep-max-bool": lambda: verify_sweep("product", 2, 1, True),
    # SplitMix64 ended in a TypeError or took a bool; randint returned a float
    "SplitMix64-float": lambda: SplitMix64(1.5),
    "SplitMix64-bool": lambda: SplitMix64(True),
    "randint-float": lambda: SplitMix64(1).randint(1, 2.5),
    "randint-bool": lambda: SplitMix64(1).randint(False, 2),
    # the domain types used to truncate these with int()
    "Factorization-float": lambda: Factorization(((2.9, 1.5),)),
    "Factorization-bool": lambda: Factorization(((2, True),)),
    "PrimeSupport-float": lambda: PrimeSupport((3.7,)),
    "ExponentVector-float": lambda: ExponentVector(PrimeSupport((2,)), (0.5,)),
    "Partition-float": lambda: Partition((2.5, 2.5)),
    "Partition-bool": lambda: Partition((True,)),
    "CycleDecomposition-float": lambda: CycleDecomposition(n=4, cycle_lengths=(2.9, 2.1)),
    # is_prime took these as the integer they compare equal to, or called
    # 10.5 prime; the scalar fields kept a float or bool as given
    "is_prime-float": lambda: is_prime(7.0),
    "is_prime-fraction": lambda: is_prime(10.5),
    "is_prime-bool": lambda: is_prime(True),
    "CycleDecomposition-n-float": lambda: CycleDecomposition(n=4.0, cycle_lengths=(2, 2)),
    "LandauRecord-n-float": lambda: LandauRecord(
        n=5.0, value=6, witness=Partition((3, 2)), ratio=math.log(6) / math.sqrt(5 * math.log(5))
    ),
    "LandauRecord-value-bool": lambda: LandauRecord(n=1, value=True, witness=Partition((1,)), ratio=None),
    "ReducedRatio-float": lambda: ReducedRatio(1.0, 2),
    "ReducedRatio-bool": lambda: ReducedRatio(2, True),
    # GcdLcmResult compared gcd and lcm with != against their reconstructions only
    "GcdLcmResult-float": lambda: _gcd_lcm_result(4, 6, gcd=2.0, lcm=12.0),
    "GcdLcmResult-lcm-float": lambda: _gcd_lcm_result(4, 6, gcd=2, lcm=12.0),
    "GcdLcmResult-bool": lambda: _gcd_lcm_result(2, 3, gcd=True, lcm=6),
}


@pytest.mark.parametrize("call", NON_INTEGER_CALLS.values(), ids=NON_INTEGER_CALLS.keys())
def test_public_entries_reject_non_integers(call):
    with pytest.raises(DomainError, match="integer"):
        call()


HUGE = 10**5000

# str() refuses ints past 4300 digits, so a message quoting one used to end
# in a bare ValueError instead of the DomainError it was building
HUGE_INTEGER_CALLS = {
    "factorize": lambda: factorize(HUGE),
    "gcd_lcm_set": lambda: gcd_lcm_set([HUGE, 3]),
    "is_prime": lambda: is_prime(HUGE),
    "check_product_identity": lambda: check_product_identity(HUGE, 3),
    "Factorization": lambda: Factorization(((HUGE, 1),)),
    "PrimeSupport": lambda: PrimeSupport((HUGE,)),
    "Partition": lambda: Partition((1, HUGE)),
    "CycleDecomposition": lambda: CycleDecomposition(n=4, cycle_lengths=(HUGE,)),
    "landau_dp": lambda: landau_dp(HUGE),
    "landau_bruteforce": lambda: landau_bruteforce(HUGE),
    "asymptotic_table": lambda: asymptotic_table(HUGE),
    "partitions": lambda: list(partitions(-HUGE)),
    "partition_count": lambda: partition_count(-HUGE),
    "partition_count-above-cap": lambda: partition_count(HUGE),
    "verify_order-m": lambda: verify_order([2, 1], -HUGE),
}


@pytest.mark.parametrize("call", HUGE_INTEGER_CALLS.values(), ids=HUGE_INTEGER_CALLS.keys())
def test_public_entries_reject_huge_integers(call):
    with pytest.raises(DomainError, match="16610-bit integer"):
        call()


def test_a_value_too_long_to_quote_is_named_by_its_type():
    huge = Fraction(10**5000)
    with pytest.raises(DomainError) as exc:
        factorize(huge)
    assert str(exc.value) == "factorization requires an integer, got a Fraction too long to quote"
    with pytest.raises(DomainError) as exc:
        cycle_decompose([2, 1, huge])
    assert str(exc.value) == "permutation entries must be integers, got a Fraction too long to quote at position 3"
    with pytest.raises(DomainError) as exc:
        verify_sweep(huge, 1, 1, 10)
    assert str(exc.value) == (
        "kind must be one of product, distributive, oracle, roundtrip, got a Fraction too long to quote"
    )
    # a value that fits is still quoted by its repr
    with pytest.raises(DomainError, match=r"got Fraction\(21, 2\) at position 1$"):
        cycle_decompose([Fraction(21, 2)])


def test_verify_sweep_names_the_kinds_on_an_unknown_one():
    # ended in a bare KeyError, or a TypeError for an unhashable kind
    with pytest.raises(DomainError, match="kind must be one of product, distributive, oracle, roundtrip, got 'nope'"):
        verify_sweep("nope", 1, 1, 10)
    with pytest.raises(DomainError, match=r"got \['product'\]"):
        verify_sweep(["product"], 1, 1, 10)


def test_partition_count_caps_n_before_allocating():
    # 2**63 used to end in a bare OverflowError from the n + 1 entry table
    with pytest.raises(DomainError, match="n <= 10000, got 9223372036854775808"):
        partition_count(2**63)


def test_primes_up_to_caps_the_limit_before_sieving(monkeypatch):
    def sieve_must_not_run(limit):
        raise AssertionError(f"sieved up to {limit}")

    monkeypatch.setattr(factorization, "_eratosthenes", sieve_must_not_run)
    with pytest.raises(DomainError, match="10\\*\\*7"):
        primes_up_to(10**100)
