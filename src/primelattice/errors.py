import operator
from typing import Iterable, TypeVar

_T = TypeVar("_T")


class DomainError(ValueError):
    """Raised when an input falls outside an operation's documented domain."""


def _shown(value: int) -> str:
    """Render an int for an error message: in decimal, or by its size once it
    passes the digit limit str() enforces (sys.get_int_max_str_digits())."""
    try:
        return str(value)
    except ValueError:
        return f"a {'negative ' if value < 0 else ''}{value.bit_length()}-bit integer"


def _safe_repr(value: object) -> str:
    """repr(value) for an error message, or its type's name when the repr would
    hold an int past str()'s digit limit, as repr(Fraction(10**5000)) does."""
    try:
        return repr(value)
    except ValueError:
        return f"a {type(value).__name__} too long to quote"


def _integer(value: int, requirement: str) -> int:
    """Return value as an int, rejecting bools and anything without __index__;
    requirement opens the error message, e.g. "gcd/lcm require integers"."""
    if isinstance(value, bool):
        raise DomainError(f"{requirement}, got the bool {value!r}")
    try:
        return operator.index(value)
    except TypeError:
        raise DomainError(f"{requirement}, got {_safe_repr(value)}") from None


def _integers(values: Iterable[int], noun: str) -> tuple[int, ...]:
    """Return values as a tuple of ints, each under _integer's rules; noun names
    them in the error message. Exact ints pass through unchanged."""
    return tuple(x if type(x) is int else _integer(x, f"{noun} must be integers") for x in values)


def _trusted(cls: type[_T], *values: object) -> _T:
    """Build a frozen dataclass from field values the library has just proved,
    in field order, without running its validating __post_init__. Public
    constructors keep validating what callers pass in."""
    obj = object.__new__(cls)
    for name, value in zip(cls.__dataclass_fields__, values, strict=True):
        object.__setattr__(obj, name, value)
    return obj


def _positive_non_increasing(values: Iterable[int], noun: str) -> tuple[int, ...]:
    """Return values as a tuple of ints, rejecting non-integers and any value not
    positive or above its predecessor; noun names the values in error messages."""
    result = _integers(values, noun)
    prev = None
    for x in result:
        if x < 1:
            raise DomainError(f"{noun} must be positive, got {_shown(x)}")
        if prev is not None and x > prev:
            raise DomainError(f"{noun} must be non-increasing, saw {_shown(x)} after {_shown(prev)}")
        prev = x
    return result
