"""Exception hierarchy shared by the whole package.

Each public error maps to a fixed CLI exit code (see cli.main): usage and
congruence problems exit 2, violated mathematical guarantees and internal
routes that disagree exit 3, and resource-cap refusals exit 4.
"""


class QkforgeError(Exception):
    """Base class for all errors raised deliberately by this package."""

    exit_code = 1


class UsageError(QkforgeError):
    """Bad arguments: wrong types, empty/constant polynomials, k = 0, etc."""

    exit_code = 2


class UnsupportedPrimeError(UsageError):
    """The prime fails the congruence required by the requested multiplier class."""


class MalformedInputError(UsageError):
    """Unparseable input, or data that violates a documented precondition."""


class TheoremViolationError(QkforgeError):
    """A guaranteed structural property failed to hold; flags a bug or an
    out-of-scope configuration.  Carries enough context to reproduce."""

    exit_code = 3


class ResourceCapError(QkforgeError):
    """The request exceeds a configured size cap (see config)."""

    exit_code = 4


class InternalConsistencyError(QkforgeError):
    """Two internal routes disagreed; always indicates an upstream bug."""

    exit_code = 3
