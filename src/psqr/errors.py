"""Exception types shared across the package.

Grouped under three base classes by how the CLI maps them to exit codes:
UsageError exits 2, CheckFailed (a failed numerical verdict) exits 3,
ResourceLimit exits 4.
"""


class PsqrError(Exception):
    """Base class for all package-specific errors."""


# -- usage / validation (CLI exit 2) --

class UsageError(PsqrError):
    """An input or argument the operation does not accept."""


class EmptySet(UsageError):
    """The element set is empty."""


class DuplicateElement(UsageError):
    """The element set contains a repeated value."""


class EvenModulus(UsageError):
    """Jacobi symbol requested for an even or nonpositive modulus."""


class NotPrime(UsageError):
    """A prime argument failed its primality check."""


class BadPrimeFile(UsageError):
    """Prime-list file is malformed: unsorted, non-integer, or composite entry."""


class WindowTooSmall(UsageError):
    """Census window does not dominate the product of the set elements."""


class PreconditionViolated(UsageError):
    """A documented precondition of an operation was not met."""


# -- numerical verdicts (CLI exit 3) --

class CheckFailed(PsqrError):
    """A self-check (identity, majorant, rearrangement) exceeded tolerance."""


# -- resource limits (CLI exit 4) --

class ResourceLimit(PsqrError):
    """A size, value or integer-width budget would be exceeded."""


class SetTooLarge(ResourceLimit):
    """Set size exceeds the supported enumeration ceiling."""


class Overflow(ResourceLimit):
    """An intermediate value exceeds the configured integer-width budget."""


class XTooSmallWarning(UserWarning):
    """Asymptotic main term evaluated below its validity threshold."""
