"""Exception types shared across the package, the one conversion of its real
arguments and the one of its integer arguments, the one formatter of numbers
that Python will not print, and the base of its records."""

import math
import sys
from numbers import Integral


class DomainError(ValueError):
    """Raised when an argument lies outside the admissible parameter domain."""


class ConsistencyError(RuntimeError):
    """A solver state that the model rules out.  Exported for compatibility
    (qposc.__all__), as EPS_EQUAL is; no code path raises it."""


def to_float(value, name):
    """float(value), where a value beyond the float range (a huge int, say)
    is a DomainError rather than an OverflowError."""
    try:
        return float(value)
    except OverflowError:
        raise DomainError(f"{name} lies outside the float range") from None


def to_index(value, rule, low=0, high=sys.maxsize):
    """int(value) for an int or other Integral, never a bool (int is tested
    first: it skips the ABC's hook), in [low, high); else a DomainError
    "{rule}, got {value}".  sys.maxsize is islice's bound."""
    if isinstance(value, (int, Integral)) and not isinstance(value, bool) and low <= value < high:
        return int(value)
    raise DomainError(f"{rule}, got {_shown(value)}")


def _shown(value):
    """repr(value), or for a number beyond the float range, whose digits can
    exceed Python's limit for int to str, six digits and the exponent, as
    1e+5000."""
    try:
        float(value)
    except OverflowError:
        exponent, digits = divmod(math.log10(abs(int(value))), 1.0)
        return f"{'-' if value < 0 else ''}{10.0 ** digits:.6g}e+{exponent:.0f}"
    except (TypeError, ValueError):  # not a number
        pass
    return repr(value)


class Record:
    """A record: a subclass names its fields once, in __slots__, and
    Record.__init__ takes them by position or by name (a subclass that
    checks or defaults them passes them on in order).  A record is frozen
    unless its class says frozen=False; it equals only a record of its own
    class with equal fields, hashes by them if frozen, and pickles and
    copies through __init__."""

    __slots__ = ()

    def __init_subclass__(cls, frozen=True):
        cls.__match_args__ = cls.__slots__
        if not frozen:
            cls.__setattr__, cls.__delattr__ = object.__setattr__, object.__delattr__
            cls.__hash__ = None

    def __init__(self, *values, **named):
        names = self.__slots__
        if named or len(values) != len(names):
            rest = names[len(values):]
            if len(values) > len(names) or named.keys() != set(rest):
                raise TypeError(f"{type(self).__name__}() takes {', '.join(names)} once each, "
                                f"got {len(values)} by position and {sorted(named)} by name")
            values += tuple(named[name] for name in rest)
        for name, value in zip(names, values):
            object.__setattr__(self, name, value)

    def _values(self):
        return tuple(map(self.__getattribute__, self.__slots__))

    def __repr__(self):
        fields = ", ".join(map("{}={}".format, self.__slots__, map(_shown, self._values())))
        return f"{type(self).__qualname__}({fields})"

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __setattr__(self, name, *value):
        raise AttributeError(f"{type(self).__name__} is frozen: cannot set or delete {name!r}")

    __delattr__ = __setattr__

    def __reduce__(self):
        return type(self), self._values()
