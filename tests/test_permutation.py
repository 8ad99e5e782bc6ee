import enum
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from primelattice import (
    CycleDecomposition,
    DomainError,
    cycle_decompose,
    landau_dp,
    order,
    verify_order,
)
from primelattice import permutation


def _compose(p, q):
    # (p after q) in one-line notation
    return [p[q[i] - 1] for i in range(len(p))]


def test_two_cycle_and_three_cycle():
    d = cycle_decompose([2, 1, 4, 5, 3])
    assert d.cycle_lengths == (3, 2)
    assert order(d) == 6


def test_identity_permutation():
    d = cycle_decompose([1, 2, 3, 4])
    assert d.cycle_lengths == (1, 1, 1, 1)
    assert order(d) == 1


def test_single_cycle():
    d = cycle_decompose([2, 3, 4, 5, 1])
    assert d.cycle_lengths == (5,)
    assert order(d) == 5


def test_order_from_cycle_lengths_24_16():
    d = CycleDecomposition(n=40, cycle_lengths=(24, 16))
    assert order(d) == 48


def test_decomposition_type_validation():
    with pytest.raises(DomainError):
        CycleDecomposition(n=5, cycle_lengths=(2, 2))
    with pytest.raises(DomainError):
        CycleDecomposition(n=4, cycle_lengths=(2, -2))
    with pytest.raises(DomainError):
        CycleDecomposition(n=5, cycle_lengths=(2, 3))


def test_one_line_validation_errors():
    with pytest.raises(DomainError, match="position 3"):
        cycle_decompose([2, 1, 2])
    with pytest.raises(DomainError, match="position 2"):
        cycle_decompose([1, 5, 3])
    with pytest.raises(DomainError):
        cycle_decompose([])
    with pytest.raises(DomainError):
        cycle_decompose([1, 0, 2])


def test_int_enum_entries_count_as_their_values():
    # int subclasses fail the exact-int gate and are walked as exact ints
    Slot = enum.IntEnum("Slot", "A B C D E")
    perm = [Slot.B, Slot.A, Slot.D, Slot.E, Slot.C]
    d = cycle_decompose(perm)
    assert d == cycle_decompose([2, 1, 4, 5, 3])
    assert verify_order(perm, 6)
    assert not verify_order(perm, 3)


@pytest.mark.parametrize("kind", [list, tuple])
def test_degree_100000(kind):
    n = 10**5
    assert cycle_decompose(kind(range(1, n + 1))).cycle_lengths == (1,) * n
    one_cycle = kind([*range(2, n + 1), 1])
    assert cycle_decompose(one_cycle) == CycleDecomposition(n=n, cycle_lengths=(n,))
    two_cycles = kind([*range(2, n // 2 + 1), 1, *range(n // 2 + 2, n + 1), n // 2 + 1])
    assert cycle_decompose(two_cycles).cycle_lengths == (n // 2, n // 2)


def test_verify_order_accepts_only_the_order():
    perm = [2, 1, 4, 5, 3]
    assert verify_order(perm, 6)
    for wrong in (1, 2, 3, 4, 5, 12):
        assert not verify_order(perm, wrong), wrong
    with pytest.raises(DomainError):
        verify_order(perm, 0)


def test_verify_order_does_not_read_the_cycle_lengths(monkeypatch):
    # a 3-cycle and a 2-cycle; the patched lengths claim five fixed points,
    # whose lcm is 1, so an oracle that took the lcm of them would answer 1
    perm = [2, 3, 1, 5, 4]
    monkeypatch.setattr(permutation, "_cycle_lengths", lambda p: [1] * len(p))
    assert verify_order(perm, 6) is True
    assert verify_order(perm, 1) is False


@given(st.permutations(list(range(1, 9))))
def test_order_is_minimal_by_power_iteration(perm):
    m = order(cycle_decompose(perm))
    assert verify_order(perm, m)


@given(st.permutations(list(range(1, 9))), st.permutations(list(range(1, 9))))
def test_cycle_type_is_conjugation_invariant(perm, relabel):
    inverse = [0] * len(relabel)
    for i, v in enumerate(relabel, start=1):
        inverse[v - 1] = i
    conjugated = _compose(relabel, _compose(perm, inverse))
    assert cycle_decompose(conjugated).cycle_lengths == cycle_decompose(perm).cycle_lengths


@settings(max_examples=30)
@given(st.permutations(list(range(1, 11))))
def test_order_never_exceeds_maximal_lcm(perm):
    assert order(cycle_decompose(perm)) <= landau_dp(len(perm)).value


def test_maximal_order_attained_for_degree_6():
    best = max(order(cycle_decompose(list(p))) for p in itertools.permutations(range(1, 7)))
    assert best == landau_dp(6).value == 6
