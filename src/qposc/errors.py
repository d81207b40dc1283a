"""Exception types shared across the package, and the base of its records."""


class DomainError(ValueError):
    """Raised when an argument lies outside the admissible parameter domain."""


class ConsistencyError(RuntimeError):
    """Raised when a solver detects a state that contradicts the model's
    structural guarantees (e.g. a curve sample whose residual is not near
    zero); the message names the measured quantity and its limit."""


class Record:
    """A frozen record: a subclass names its fields in __slots__ and sets
    them in __init__ by object.__setattr__.  A record equals only a record
    of its own class with equal fields, hashes by its fields, and pickles
    and copies through __init__."""

    __slots__ = ()

    def __init_subclass__(cls):
        cls.__match_args__ = cls.__slots__

    def _values(self):
        return tuple(map(self.__getattribute__, self.__slots__))

    def __repr__(self):
        fields = ", ".join(map("{}={!r}".format, self.__slots__, self._values()))
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
