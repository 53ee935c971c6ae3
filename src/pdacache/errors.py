"""Exception types shared across the package."""


class PdacacheError(Exception):
    """Base class for all errors raised by this package."""


class UnsupportedField(PdacacheError):
    """Requested field order is not a prime power in the supported set."""


class MdsUnavailable(PdacacheError):
    """No (extended) Reed-Solomon MDS code with the requested parameters."""


class BadStrength(PdacacheError):
    """Orthogonal/covering array strength outside [1, m]."""


class ParamMismatch(PdacacheError):
    """Row index matrix and column index set disagree on m, q or t."""


class BadParams(PdacacheError):
    """Scheme parameters violate the scheme's preconditions."""


class PreconditionUnmet(PdacacheError):
    """A check was invoked on a PDA that does not have the required shape."""


class BadLength(PdacacheError):
    """A wrong length: a file not divisible by F, a ragged PDA grid, a row of
    a row index matrix, or a transcript, cache list or signal in decode."""


class BadInput(PdacacheError, ValueError):
    """A malformed argument, also a ValueError: a PDA cell, a row index
    matrix entry, a column index set, or a size or lam out of range."""


class DecodeFailure(PdacacheError):
    """A user is missing side information needed to decode a signal."""


def trusted(cls, **fields):
    """A cls of these fields made without its checks, for values the library built valid."""
    obj = cls.__new__(cls)
    obj.__dict__.update(fields)
    return obj


def require_type(x, cls, name):
    if not isinstance(x, cls):
        raise BadInput(f"{name} takes a {cls.__name__}, not {type(x).__name__}")


def require_ints(error, minimum=None, **values):
    """error naming the first value not an int (a bool included) or below minimum."""
    for name, v in values.items():
        if type(v) is not int or minimum is not None and v < minimum:
            at_least = "" if minimum is None else f" >= {minimum}"
            raise error(f"{name} must be an integer{at_least}, not {v!r}")


def require_within(error, name, limit, *sizes):
    """error naming the first (text, size) whose size exceeds the limit called name."""
    for text, size in sizes:
        if size > limit:
            raise error(f"{text} exceeds the limit {name} = {limit}")
