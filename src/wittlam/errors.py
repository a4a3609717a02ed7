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
    or Adams data that do not lift).  `degree` is the failing degree n of
    a Newton inversion and `prime` a prime p whose power p^e exactly
    dividing n does not divide, both None where they do not apply."""

    degree = None
    prime = None


class WilkersonError(WittlamError):
    """The Adams data do not lift: a Newton division failed in the ring.
    lambda^degree(element) needs a division by `degree` that fails at
    `prime`; each field is None where it is not known."""

    def __init__(self, message, prime=None, degree=None, element=None):
        super().__init__(message)
        self.prime, self.degree, self.element = prime, degree, element


class BoundExceededError(WittlamError):
    """A requested universal polynomial lies outside the configured bound."""


class PrimeWindowError(WittlamError):
    """An operation needs a prime outside the structure's prime window."""


class RelationViolationError(WittlamError):
    """An assignment fails the defining relations of the universal ring."""


class LubinHypothesisError(WittlamError):
    """The commuting-series hypotheses (on the linear coefficient) fail."""
