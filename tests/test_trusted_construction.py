"""Values the library builds without running their constructors' checks must
still be values those constructors accept: rebuilding each one through its
public constructor from its own fields gives an equal value with the same
hash and repr. The runtime trusts these invariants; the tests keep proving
them. Every domain type is a frozen slots dataclass whose _trusted builder
takes exactly its fields, pickle and copy round-trip it, and
dataclasses.replace still validates."""

import dataclasses

import pytest
from hypothesis import given
from hypothesis import strategies as st

import primelattice
from primelattice import (
    DomainError,
    ExponentVector,
    PrimeSupport,
    asymptotic_table,
    cycle_decompose,
    factorize,
    gcd_lcm_set,
    landau_dp,
    partitions,
    reduce_ratio,
)
from primelattice.landau import _DpTable
from primelattice.lattice import add, align, join, meet

from matrix_checks import assert_copies, assert_frozen_slots, assert_rebuilds, domain_values

nonzero = st.integers(min_value=-(10**6), max_value=10**6).filter(lambda v: v != 0)
positive = st.integers(min_value=1, max_value=10**6)

DOMAIN_VALUES = domain_values()


def test_every_domain_type_is_sampled():
    public = {getattr(primelattice, name) for name in primelattice.__all__}
    domain_types = {cls for cls in public if dataclasses.is_dataclass(cls)} | {_DpTable}
    assert {type(value) for value in DOMAIN_VALUES} == domain_types


@pytest.mark.parametrize("value", DOMAIN_VALUES, ids=lambda value: type(value).__name__)
def test_frozen_slots_with_an_exact_builder(value):
    assert_frozen_slots(value)


@pytest.mark.parametrize("value", DOMAIN_VALUES, ids=lambda value: type(value).__name__)
def test_pickle_and_copy_round_trip(value):
    assert_copies(value)


_record = landau_dp(12)
_res = gcd_lcm_set([12, 18])


# one invalid field per validating type; replace runs the public constructor
@pytest.mark.parametrize(
    "value,changes",
    [
        (factorize(12), {"entries": ((4, 1),)}),
        (factorize(12), {"entries": ((2, 0),)}),
        (_res.support, {"primes": (3, 2)}),
        (_res.support, {"primes": (2, 9)}),
        (_res.min_exponents, {"exponents": (-1, 1)}),
        (_res.min_exponents, {"exponents": (1,)}),
        (_res, {"gcd": 7}),
        (_res, {"support": PrimeSupport((5, 7))}),
        (reduce_ratio(8, 12), {"left": 6}),
        (cycle_decompose([2, 1, 3]), {"n": 4}),
        (cycle_decompose([2, 1, 3]), {"cycle_lengths": (1, 2)}),
        (_record.witness, {"parts": (1, 2)}),
        (_record, {"value": _record.value + 1}),
        (_record, {"ratio": 0.5}),
    ],
    ids=lambda v: type(v).__name__ if not isinstance(v, dict) else ",".join(v),
)
def test_replace_still_validates(value, changes):
    with pytest.raises(DomainError):
        dataclasses.replace(value, **changes)


def test_replace_with_valid_fields_builds_a_checked_value():
    assert dataclasses.replace(factorize(12), entries=((3, 2),)) == factorize(9)
    assert dataclasses.replace(_record.witness, parts=(3, 3)).n == 6
    assert dataclasses.replace(_res.max_exponents, exponents=(0, 0)) == ExponentVector(_res.support, (0, 0))


def assert_gcd_lcm_set_rebuilds(values):
    res = gcd_lcm_set(values)
    for value in (res.support, res.min_exponents, res.max_exponents, res):
        assert_rebuilds(value)


@given(st.one_of(positive, st.integers(min_value=1, max_value=2**64 - 1)))
def test_factorize(n):
    assert_rebuilds(factorize(n))


@given(st.lists(nonzero, min_size=1, max_size=6))
def test_gcd_lcm_set(values):
    assert_gcd_lcm_set_rebuilds(values)


# long lists: coprime values empty the running minima early, and a common
# factor keeps them filled to the last value
@given(st.lists(nonzero, min_size=7, max_size=60), st.sampled_from([1, 2, 12, 97, 2**20]))
def test_gcd_lcm_set_long_lists(values, common):
    assert_gcd_lcm_set_rebuilds(values)
    assert_gcd_lcm_set_rebuilds([common * v for v in values])


def test_gcd_lcm_set_on_landau_witnesses():
    # pairwise-coprime prime powers padded with ones
    for n in (30, 60, 500, 2048, 10**4):
        assert_gcd_lcm_set_rebuilds(landau_dp(n).witness.parts)


@given(st.lists(positive, min_size=1, max_size=6))
def test_lattice_operations(values):
    support, vectors = align([factorize(v) for v in values])
    assert_rebuilds(support)
    for value in (*vectors, meet(vectors), join(vectors), add(vectors[0], vectors[-1])):
        assert_rebuilds(value)


@given(nonzero, nonzero)
def test_reduce_ratio(a, b):
    assert_rebuilds(reduce_ratio(a, b))


@given(st.integers(min_value=1, max_value=30).flatmap(lambda n: st.permutations(range(1, n + 1))))
def test_cycle_decompose(perm):
    assert_rebuilds(cycle_decompose(perm))


def test_every_partition_up_to_12():
    for n in range(13):
        for part in partitions(n):
            assert_rebuilds(part)


def test_every_landau_dp_row_up_to_10_4():
    # the public LandauRecord re-proves each witness lcm through the exponent route
    for record in asymptotic_table(10**4):
        assert_rebuilds(record.witness)
        assert_rebuilds(record)
