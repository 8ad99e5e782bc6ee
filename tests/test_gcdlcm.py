import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from primelattice import (
    DomainError,
    check_distributive_identity,
    check_product_identity,
    gcd_euclid,
    gcd_lcm_set,
    reduce_ratio,
)
from primelattice import gcdlcm
from primelattice.factorization import _prime_powers, factorize
from primelattice.gcdlcm import GcdLcmResult, ReducedRatio
from primelattice.lattice import PrimeSupport, ExponentVector, align, join, meet

nonzero = st.integers(min_value=-(10**6), max_value=10**6).filter(lambda v: v != 0)
positive = st.integers(min_value=1, max_value=10**6)


def test_gcd_lcm_60_90():
    res = gcd_lcm_set([60, 90])
    assert res.gcd == 30
    assert res.lcm == 180
    assert res.support.primes == (2, 3, 5)
    assert res.min_exponents.exponents == (1, 1, 1)
    assert res.max_exponents.exponents == (2, 2, 1)


def test_lcm_24_16():
    assert gcd_lcm_set([24, 16]).lcm == 48


def test_signs_are_ignored():
    res = gcd_lcm_set([-4, 6])
    assert (res.gcd, res.lcm) == (2, 12)
    assert gcd_lcm_set([-4, -6]) == gcd_lcm_set([4, 6])


def test_zero_is_rejected():
    with pytest.raises(DomainError, match="nonzero"):
        gcd_lcm_set([0, 5])


def test_empty_set_is_rejected():
    with pytest.raises(DomainError):
        gcd_lcm_set([])


def test_duplicates_and_singletons():
    res = gcd_lcm_set([6, 6, 6])
    assert (res.gcd, res.lcm) == (6, 6)
    single = gcd_lcm_set([7])
    assert (single.gcd, single.lcm) == (7, 7)


def test_set_of_ones():
    res = gcd_lcm_set([1, 1])
    assert (res.gcd, res.lcm) == (1, 1)
    assert res.support.primes == ()


def test_nary():
    res = gcd_lcm_set([12, 18, 30])
    assert (res.gcd, res.lcm) == (6, 180)


@given(st.lists(nonzero, min_size=1, max_size=6))
def test_matches_stdlib_oracle(values):
    res = gcd_lcm_set(values)
    assert res.gcd == math.gcd(*values)
    assert res.lcm == math.lcm(*values)


@given(st.lists(nonzero, min_size=1, max_size=5))
def test_gcd_divides_all_and_all_divide_lcm(values):
    res = gcd_lcm_set(values)
    for v in values:
        assert abs(v) % res.gcd == 0
        assert res.lcm % abs(v) == 0


def test_non_integers_are_rejected():
    # a float or a bool used to be taken for the integer it compares equal to
    for values in ([6.0, 4], [True, 4], [4, False], ["6", 4], [None]):
        with pytest.raises(DomainError, match="require integers"):
            gcd_lcm_set(values)


@pytest.mark.parametrize("values", [[2**64, 3], [-(2**64), 3]])
def test_values_beyond_64_bits_are_rejected(values):
    # the fold reads raw prime maps, so the factorizer's range check is the only guard
    with pytest.raises(DomainError, match=r"factorization supports inputs up to 2\*\*64 - 1"):
        gcd_lcm_set(values)


def test_integer_like_values_are_accepted():
    class Index:
        def __index__(self):
            return 12

    res = gcd_lcm_set([Index(), 18])
    assert (res.gcd, res.lcm) == (6, 36)


# many values, small ones among them so that repeats, 1s and shared primes are common
_fold_values = st.lists(
    st.one_of(st.sampled_from([1, -1, 2, -2, 3, 4, 6, 12]), nonzero),
    min_size=1,
    max_size=80,
)


@settings(max_examples=60)
@given(_fold_values)
def test_one_pass_fold_matches_dense_route(values):
    res = gcd_lcm_set(values)
    support, vectors = align([factorize(abs(v)) for v in values])
    assert res.support == support
    assert res.min_exponents == meet(vectors)
    assert res.max_exponents == join(vectors)
    assert res.gcd == math.gcd(*values)
    assert res.lcm == math.lcm(*values)


def _dict_fold(values):
    """The earlier fold of gcd_lcm_set: running min and max exponent maps,
    the min map dropping every prime a value lacks."""
    tables = (_prime_powers(abs(v)) for v in values)
    lows = next(tables)
    highs = dict(lows)
    for table in tables:
        for p, e in table.items():
            if e > highs.get(p, 0):
                highs[p] = e
        if lows:
            lows = {p: min(e, table[p]) for p, e in lows.items() if p in table}
    primes = tuple(sorted(highs))
    return (
        math.prod(p**e for p, e in lows.items()),
        math.prod(p**e for p, e in highs.items()),
        primes,
        tuple(lows.get(p, 0) for p in primes),
        tuple(highs[p] for p in primes),
    )


# up to 8 values, some above the 10**6 table, some negative, and often a
# shared factor so that the minima stay filled
_shared_fold_values = st.tuples(
    st.lists(
        st.one_of(st.integers(-(10**12), 10**12), st.sampled_from([1, -1, 2, 9, 64, 999983])).filter(bool),
        min_size=1,
        max_size=8,
    ),
    st.sampled_from([1, 1, 2, 12, 97, 2**20, 999983, 3**10]),
).map(lambda drawn: [drawn[1] * v for v in drawn[0]])


@settings(max_examples=300)
@given(_shared_fold_values)
@example([12, 18])
@example([7, 11, 13])
@example([2**40, 3**25])
@example([-(999983**2), 999983 * 2])
@example([1, 1])
def test_fold_matches_the_dict_fold(values):
    res = gcd_lcm_set(values)
    got = (res.gcd, res.lcm, res.support.primes, res.min_exponents.exponents, res.max_exponents.exponents)
    # repr also tells an int from an equal int subclass or float
    assert repr(got) == repr(_dict_fold(values))
    assert res.min_exponents.support is res.support is res.max_exponents.support


def test_the_dict_fold_reference():
    assert _dict_fold([12, 18]) == (6, 36, (2, 3), (1, 1), (2, 2))
    assert _dict_fold([-8, 9]) == (1, 72, (2, 3), (0, 0), (3, 2))


def test_result_type_rejects_inconsistent_fields():
    support = PrimeSupport((2,))
    mins = ExponentVector(support, (1,))
    maxs = ExponentVector(support, (2,))
    with pytest.raises(DomainError):
        GcdLcmResult(gcd=3, lcm=4, support=support, min_exponents=mins, max_exponents=maxs)
    with pytest.raises(DomainError, match="lcm does not match"):
        GcdLcmResult(gcd=2, lcm=8, support=support, min_exponents=mins, max_exponents=maxs)
    with pytest.raises(DomainError):
        # min exponents above max exponents
        GcdLcmResult(gcd=4, lcm=2, support=support, min_exponents=maxs, max_exponents=mins)
    res = gcd_lcm_set([4, 6])
    with pytest.raises(DomainError, match="support does not match"):
        # consistent values and vectors, but a support that is not theirs
        GcdLcmResult(
            gcd=res.gcd, lcm=res.lcm, support=PrimeSupport((5, 7, 11)),
            min_exponents=res.min_exponents, max_exponents=res.max_exponents,
        )


class TestEuclid:
    def test_known(self):
        assert gcd_euclid(24, 16) == 8
        assert gcd_euclid(60, 90) == 30

    def test_zero_handling(self):
        assert gcd_euclid(0, 5) == 5
        assert gcd_euclid(0, 0) == 0

    @given(st.integers(min_value=-(10**12), max_value=10**12), st.integers(min_value=-(10**12), max_value=10**12))
    def test_matches_stdlib(self, a, b):
        assert gcd_euclid(a, b) == math.gcd(a, b)


class TestProductIdentity:
    def test_24_16(self):
        check = check_product_identity(24, 16)
        assert check.gcd == 8 and check.lcm == 48
        assert check.product == 384 and check.combined == 384
        assert check.holds

    def test_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            check_product_identity(0, 5)

    @given(positive, positive)
    def test_always_holds(self, a, b):
        assert check_product_identity(a, b).holds


class TestDistributiveIdentity:
    def test_4_6_10(self):
        check = check_distributive_identity(4, 6, 10)
        assert check.left == 2 and check.right == 2
        assert check.exponent_left == 2 and check.exponent_right == 2
        assert check.holds
        assert all(lo == hi for _, lo, hi in check.per_prime)

    def test_per_prime_detail(self):
        check = check_distributive_identity(8, 12, 18)
        assert {p: (lo, hi) for p, lo, hi in check.per_prime} == {2: (2, 2), 3: (1, 1)}

    def test_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            check_distributive_identity(1, -2, 3)

    @settings(max_examples=60)
    @given(st.integers(min_value=1, max_value=10**4), st.integers(min_value=1, max_value=10**4), st.integers(min_value=1, max_value=10**4))
    def test_always_holds(self, a, b, c):
        assert check_distributive_identity(a, b, c).holds

    @pytest.mark.parametrize(
        "a, b, c", [(2**63 + 1, 2**63 + 3, 5), (2**64 - 1, 2**64 - 3, 2**64 - 5)], ids=["above-2**63", "near-2**64"]
    )
    def test_holds_across_the_64_bit_range(self, a, b, c):
        # the pairwise lcms pass 2**64; only the inputs are ever factored
        check = check_distributive_identity(a, b, c)
        assert check.holds
        assert check.left == math.gcd(math.lcm(a, b), math.lcm(b, c), math.lcm(a, c))

    @pytest.mark.parametrize(
        "name, fake",
        [("gcd_euclid", lambda a, b: 1), ("meet", join)],
        ids=["integer-route", "exponent-route"],
    )
    def test_compares_two_routes(self, monkeypatch, name, fake):
        # a wrong answer on either side alone must break the check
        monkeypatch.setattr(gcdlcm, name, fake)
        assert not check_distributive_identity(4, 6, 10).holds


class TestReduceRatio:
    def test_equivalent_ratios_share_lowest_terms(self):
        # 4:6, 8:12 and 10:15 all collapse to the same lowest-terms pair
        assert (reduce_ratio(8, 12).left, reduce_ratio(8, 12).right) == (2, 3)
        assert (reduce_ratio(10, 15).left, reduce_ratio(10, 15).right) == (2, 3)
        assert (reduce_ratio(4, 6).left, reduce_ratio(4, 6).right) == (2, 3)

    def test_already_reduced(self):
        red = reduce_ratio(2, 3)
        assert (red.left, red.right) == (2, 3)

    def test_equal_terms(self):
        assert (reduce_ratio(7, 7).left, reduce_ratio(7, 7).right) == (1, 1)

    def test_signs_are_dropped(self):
        assert (reduce_ratio(-8, 12).left, reduce_ratio(-8, 12).right) == (2, 3)

    def test_zero_rejected(self):
        with pytest.raises(DomainError):
            reduce_ratio(0, 3)
        with pytest.raises(DomainError):
            reduce_ratio(3, 0)

    def test_type_rejects_non_coprime(self):
        with pytest.raises(DomainError):
            ReducedRatio(2, 4)

    @pytest.mark.parametrize("left, right", [(0, 1), (-1, 2), (3, -2)])
    def test_type_rejects_terms_that_are_not_positive(self, left, right):
        with pytest.raises(DomainError, match="positive"):
            ReducedRatio(left, right)

    @given(nonzero, nonzero)
    def test_reduction_properties(self, a, b):
        red = reduce_ratio(a, b)
        assert math.gcd(red.left, red.right) == 1
        assert abs(a) * red.right == abs(b) * red.left
