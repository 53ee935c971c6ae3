"""Exception types shared across the package."""


class PdacacheError(Exception):
    """Base class for all errors raised by this package."""


class UnsupportedField(PdacacheError):
    """Requested field order is not a prime power in the supported set."""


class MdsUnavailable(PdacacheError):
    """No (extended) Reed-Solomon MDS code with the requested parameters."""


class BadStrength(PdacacheError):
    """Orthogonal/covering array strength outside [1, m]."""


class LengthMismatch(PdacacheError):
    """Vectors of different lengths where equal lengths are required."""


class ParamMismatch(PdacacheError):
    """Row index matrix and column index set disagree on m, q or t."""


class BadParams(PdacacheError):
    """Scheme parameters violate the scheme's preconditions."""


class PreconditionUnmet(PdacacheError):
    """A check was invoked on a PDA that does not have the required shape."""


class BadLength(PdacacheError):
    """A wrong length: a file not divisible by F, a ragged PDA grid, or a
    transcript, cache list or signal in decode that does not fit the PDA."""


class DecodeFailure(PdacacheError):
    """A user is missing side information needed to decode a signal."""
