import operator
from dataclasses import dataclass, fields
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


def _frozen(cls: type[_T]) -> type[_T]:
    """Make cls a frozen slots dataclass and give it cls._trusted(*values).

    _trusted builds an instance from field values the library has just
    proved, in field order (init=False fields too), without running the
    validating __post_init__; public constructors keep validating what
    callers pass in. Like the dataclass __init__, the builder is generated
    once per class: object.__new__ and one slot store per field, unrolled.
    It is compiled on its first call, which keeps the compile out of import.
    """
    slotted = dataclass(frozen=True, slots=True)(cls)
    # the frozen __setattr__ and __delattr__ test against the class before slots
    # (Python 3.10 to 3.13), which made setting an undeclared name a TypeError
    for cell in (*slotted.__setattr__.__closure__, *slotted.__delattr__.__closure__):
        if cell.cell_contents is cls:
            cell.cell_contents = slotted
    names = [f.name for f in fields(slotted)]

    def _trusted(*values):
        scope = {"_new": object.__new__, "_cls": slotted}
        scope.update((f"_set_{name}", getattr(slotted, name).__set__) for name in names)
        stores = "".join(f"    _set_{name}(_obj, {name})\n" for name in names)
        exec(f"def _trusted({', '.join(names)}):\n    _obj = _new(_cls)\n{stores}    return _obj\n", scope)
        slotted._trusted = staticmethod(scope["_trusted"])
        return slotted._trusted(*values)

    slotted._trusted = staticmethod(_trusted)
    # a pickle made before the classes had slots carries the instance __dict__
    setstate = slotted.__setstate__
    slotted.__setstate__ = lambda obj, state: setstate(obj, map(state.__getitem__, names) if type(state) is dict else state)
    return slotted


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
