"""cycle_decompose and verify_order against a reference copy of the earlier
per-entry validator and visited-flag walk.

The library checks a one-line permutation in the same pass that walks its
cycles, and falls back to a per-entry loop only to name the first bad
entry. The reference below checks every entry before it walks, so each
input must give the same cycle lengths, the same verdict and the same
DomainError message on both sides.
"""

import enum
import itertools
import random

import pytest

from primelattice import DomainError, cycle_decompose, verify_order


def reference_mapping(perm):
    if not perm:
        raise DomainError("permutation must have at least one entry")
    n = len(perm)
    seen = [False] * (n + 1)
    for i, v in enumerate(perm, start=1):
        if type(v) is not int and (isinstance(v, bool) or not isinstance(v, int)):
            raise DomainError(f"permutation entries must be integers, got {v!r} at position {i}")
        if not 1 <= v <= n:
            raise DomainError(f"entry {v} at position {i} is outside 1..{n}")
        if seen[v]:
            raise DomainError(f"entry {v} at position {i} repeats an earlier value")
        seen[v] = True
    return [v - 1 for v in perm]


def reference_lengths(perm):
    mapping = reference_mapping(perm)
    n = len(mapping)
    visited = [False] * n
    lengths = []
    for start in range(n):
        if visited[start]:
            continue
        length = 0
        j = start
        while not visited[j]:
            visited[j] = True
            j = mapping[j]
            length += 1
        lengths.append(length)
    return tuple(sorted(lengths, reverse=True))


def reference_verify_order(perm, m):
    mapping = reference_mapping(perm)
    identity = list(range(len(mapping)))
    state = identity[:]
    for power in range(1, m + 1):
        state = [mapping[s] for s in state]
        if state == identity:
            return power == m
    return False


def outcome(call, *args):
    try:
        return "ok", call(*args)
    except DomainError as exc:
        return "error", str(exc)


class Small(enum.IntEnum):
    ONE = 1
    TWO = 2
    THREE = 3


# entries that are not a value in 1..n, by the degree n they replace one in
FOREIGN = (
    lambda n: 0,
    lambda n: -1,
    lambda n: -n,
    lambda n: -n - 1,
    lambda n: n + 1,
    lambda n: 2 * n + 1,
    lambda n: 2**70,
    lambda n: -(2**70),
    lambda n: True,
    lambda n: False,
    lambda n: 1.0,
    lambda n: None,
    lambda n: "1",
)


def zeroed_and_raised(rng, perm):
    """Zero one int entry of perm and raise other int entries, up to n, by
    as much in all, so the entries keep their sum and mostly gain repeats."""
    n = len(perm)
    i = rng.randrange(n)
    if type(perm[i]) is not int or perm[i] <= 0:
        return
    debt, perm[i] = perm[i], 0
    for k in rng.sample(range(n), n):
        if debt and k != i and type(perm[k]) is int and 0 < perm[k] < n:
            step = min(debt, n - perm[k])
            perm[k] += step
            debt -= step


def corrupted(rng, perm):
    """perm with one to three entries replaced: by a repeat at the first or
    last position or anywhere, by v - (n + 1) for its value v (the position
    a negative list index reads), by a value outside 1..n or not an int, or
    by a 0 whose value is spread over repeats of larger ones."""
    perm = perm[:]
    n = len(perm)
    for _ in range(rng.randint(1, 3)):
        kind = rng.randrange(6)
        if kind == 0:
            perm[0] = perm[rng.randrange(n)]
        elif kind == 1:
            perm[-1] = perm[rng.randrange(n)]
        elif kind == 2:
            perm[rng.randrange(n)] = perm[rng.randrange(n)]
        elif kind == 3:
            i = rng.randrange(n)
            if type(perm[i]) is int:
                perm[i] -= n + 1
        elif kind == 4:
            perm[rng.randrange(n)] = rng.choice(FOREIGN)(n)
        else:
            zeroed_and_raised(rng, perm)
    return perm


def random_inputs(seed, count):
    rng = random.Random(seed)
    for _ in range(count):
        if rng.random() < 0.05:
            yield range(rng.randint(-2, 42), rng.randint(-2, 42), rng.choice((1, 2, -1)))
            continue
        perm = list(range(1, rng.randint(1, rng.choice((8, 40))) + 1))
        rng.shuffle(perm)
        if rng.random() < 0.6:
            perm = corrupted(rng, perm)
        yield tuple(perm) if rng.random() < 0.5 else perm


FIXED_INPUTS = [
    [],
    (),
    range(0),
    range(1, 2),
    range(1, 9),
    range(8, 0, -1),
    range(0, 8),
    range(2, 10),
    range(1, 16, 2),
    range(-3, 5),
    [1],
    [2],
    [2, 1, 2],
    [1, 1, 3],
    [1, 2, 2],
    [3, 2, 3],
    [2, 3, 4, 2],  # the walk from 1 meets 2, zeroed, inside its own cycle
    [2, 1, 4, 2],  # the walk from 3 meets 2, zeroed by an earlier cycle
    [1, 0, 2],
    [0, 1],
    [-1, 1],  # -1 indexes the last position, so a walk alone reads [2, 1]
    [2, -1],
    [-3, 1, 2],
    [2, 3, -3],
    [4, 0, 0, 6, 6, 5],  # zeros offset repeats: the walk's lengths sum to n, the entries to n(n+1)/2
    (4, 0, 0, 6, 6, 5),
    [1, 5, 3],
    [2, 3, 4],
    [2**70, 1],
    [1, -(2**70)],
    [True],
    [False, 1],
    [1, True],
    [1.0],
    [2, 1.0],
    [None, 1],
    ["1"],
    [2, 1, "3"],
    [Small.TWO, Small.ONE, Small.THREE],
    (Small.THREE, Small.ONE, Small.TWO),
    [Small.TWO, 1, 3],
    [Small.TWO, Small.TWO, Small.ONE],
    [Small.THREE, Small.ONE],
]


@pytest.mark.parametrize("perm", FIXED_INPUTS, ids=repr)
def test_fixed_inputs_match_the_reference(perm):
    want = outcome(reference_lengths, perm)
    got = outcome(cycle_decompose, perm)
    if got[0] == "ok":
        got = "ok", got[1].cycle_lengths
        assert cycle_decompose(perm).n == len(perm)
    assert got == want
    for m in range(1, 7):
        assert outcome(verify_order, perm, m) == outcome(reference_verify_order, perm, m)


@pytest.mark.parametrize("seed", range(4))
def test_random_inputs_match_the_reference(seed):
    rng = random.Random(1000 + seed)
    failures = 0
    for perm in random_inputs(seed, 1500):
        want = outcome(reference_lengths, perm)
        got = outcome(cycle_decompose, perm)
        if got[0] == "ok":
            got = "ok", got[1].cycle_lengths
        else:
            failures += 1
        assert got == want, perm
        m = rng.randint(1, 12)
        assert outcome(verify_order, perm, m) == outcome(reference_verify_order, perm, m), (perm, m)
    # most corrupted inputs fail, and most of the others are permutations
    assert 500 < failures < 1200


@pytest.mark.parametrize("n, low, high", [(1, -2, 3), (2, -2, 4), (3, -2, 5), (4, -1, 5), (5, -1, 6), (6, 0, 6)])
def test_every_short_sequence_matches_the_reference(n, low, high):
    # every list of n entries from low..high: all permutations, and every way
    # zeros, negatives, values above n and repeats can offset one another
    for perm in itertools.product(range(low, high + 1), repeat=n):
        perm = list(perm)
        want = outcome(reference_lengths, perm)
        got = outcome(cycle_decompose, perm)
        if got[0] == "ok":
            got = "ok", got[1].cycle_lengths
        assert got == want, perm
