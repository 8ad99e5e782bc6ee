import operator
from typing import Iterable


class DomainError(ValueError):
    """Raised when an input falls outside an operation's documented domain."""


def _integer(value: int, requirement: str) -> int:
    """Return value as an int, rejecting bools and anything without __index__;
    requirement opens the error message, e.g. "gcd/lcm require integers"."""
    if isinstance(value, bool):
        raise DomainError(f"{requirement}, got the bool {value!r}")
    try:
        return operator.index(value)
    except TypeError:
        raise DomainError(f"{requirement}, got {value!r}") from None


def _positive_non_increasing(values: Iterable[int], noun: str) -> tuple[int, ...]:
    """Return values as a tuple of ints, rejecting any that is not positive or
    that exceeds its predecessor; noun names the values in the error message."""
    result = tuple(int(x) for x in values)
    prev = None
    for x in result:
        if x < 1:
            raise DomainError(f"{noun} must be positive, got {x}")
        if prev is not None and x > prev:
            raise DomainError(f"{noun} must be non-increasing, saw {x} after {prev}")
        prev = x
    return result
