"""Exception hierarchy.

Every error the library raises deliberately derives from LatdiscError, so
callers (and the CLI exit-code mapping) can tell domain failures apart from
genuine bugs.  CapExceededError is not a failure of the input: it means a
computation was refused because it would exceed a configured desk-scale cap.
InvariantViolationError is reserved for "this cannot happen if the code is
correct" conditions that are nevertheless checked at runtime.
"""


class LatdiscError(Exception):
    """Base class for all latdisc errors."""


class InputError(LatdiscError, ValueError):
    """Malformed or mathematically invalid input."""


class RankDeficientError(InputError):
    """Rows were expected to be linearly independent / full rank and are not."""


class NotIntegrationLatticeError(InputError):
    """The lattice does not contain the integer lattice."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class CapExceededError(LatdiscError):
    """A configured size cap (enumeration count, SVP dimension) was exceeded."""


class UndecidableComparisonError(LatdiscError):
    """Directed enclosures failed to separate two quantities at maximum
    precision.  For quantities that are provably unequal this is a bug."""


class InvariantViolationError(LatdiscError):
    """An internal certificate or invariant check failed.  Always a bug."""
