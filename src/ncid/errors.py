"""Exception types shared across the package.

Everything raised on bad input derives from :class:`NCIDError`, so callers
(and the CLI) can catch one base class and map it to a machine-readable
error report.
"""

from __future__ import annotations


class NCIDError(Exception):
    """Base class for all input and precondition failures."""


class NotSquare(NCIDError):
    pass


class NotHermitian(NCIDError):
    pass


class DimensionMismatch(NCIDError):
    pass


class TooLarge(NCIDError):
    """Ground set or problem size above the supported cap."""


class GroundSetMismatch(NCIDError):
    pass


class NotComparable(NCIDError):
    """Moebius function requested on a non-ordered pair."""


class TruncationExceeded(NCIDError):
    """An operation needs moment data beyond the stored truncation."""


class SeedExhausted(NCIDError):
    """No realizable model of the requested ambient size exists."""


class NotBValued(NCIDError):
    """A value expected to lie in the embedded copy of B does not."""


class PairMismatch(NCIDError):
    """Operands carry different (B, D) inclusion data."""


class GramNotPSD(NCIDError):
    """A Fock model's data failed its divisibility certificate."""


class DepthExceeded(NCIDError):
    """A Fock-space computation needs more tensor depth than built."""


class OrderExceedsTruncation(NCIDError):
    """A Laurent-order check asked for more terms than moment data allows."""


class CertificateFailed(NCIDError):
    """Divisibility certificate did not pass; carries the certificate."""

    def __init__(self, message: str, certificate=None):
        super().__init__(message)
        self.certificate = certificate
