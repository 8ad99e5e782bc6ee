"""Values the library builds without running their constructors' checks must
still be values those constructors accept: rebuilding each one through its
public constructor from its own fields gives an equal value with the same
hash and repr. The runtime trusts these invariants; the tests keep proving
them."""

import dataclasses

from hypothesis import given
from hypothesis import strategies as st

from primelattice import asymptotic_table, cycle_decompose, factorize, gcd_lcm_set, landau_dp, partitions, reduce_ratio
from primelattice.lattice import add, align, join, meet

nonzero = st.integers(min_value=-(10**6), max_value=10**6).filter(lambda v: v != 0)
positive = st.integers(min_value=1, max_value=10**6)


def assert_rebuilds(value):
    cls = type(value)
    rebuilt = cls(**{f.name: getattr(value, f.name) for f in dataclasses.fields(cls) if f.init})
    assert rebuilt == value
    assert hash(rebuilt) == hash(value)
    # repr tells an int from an equal float or bool, which == does not
    assert repr(rebuilt) == repr(value)


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
