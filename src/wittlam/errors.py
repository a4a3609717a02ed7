"""Exception types shared across the package."""


class WittlamError(Exception):
    """Base class for all library errors."""


class InputError(WittlamError, ValueError):
    """Input text or an argument is malformed or out of range."""


class RingMismatchError(WittlamError):
    """Operands belong to different rings or truncations."""


class MembershipError(WittlamError):
    """A value does not belong to the ring it was constructed in."""


class UnsupportedRingError(WittlamError):
    """The requested operation is not defined for this ring kind."""


class UnsupportedIdealError(WittlamError):
    """The ideal descriptor is not supported by this coefficient domain."""


class ExactDivisionError(WittlamError):
    """Exact division is impossible inside the ring."""


class IntegralityError(WittlamError):
    """A quantity that must be integral came out non-integral (engine bug,
    or Adams data that do not lift).  `degree` is the failing degree of a
    Newton inversion, None where no degree applies."""

    degree = None


class WilkersonError(WittlamError):
    """The Adams data do not lift: a Newton division failed in the ring."""


class BoundExceededError(WittlamError):
    """A requested universal polynomial lies outside the configured bound."""


class PrimeWindowError(WittlamError):
    """An operation needs a prime outside the structure's prime window."""


class RelationViolationError(WittlamError):
    """An assignment fails the defining relations of the universal ring."""


class LubinHypothesisError(WittlamError):
    """The commuting-series hypotheses (on the linear coefficient) fail."""
