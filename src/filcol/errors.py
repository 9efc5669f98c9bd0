"""Exception hierarchy for the filament-pair library.

Two broad families: *validation* errors (bad inputs, wrong regime, malformed
configuration) and *numerical* errors (a computation that started from valid
inputs could not be completed).  The CLI maps validation errors to exit code
2 and numerical errors to exit code 3.
"""

from __future__ import annotations

__all__ = [
    "FilcolError",
    "ValidationError",
    "NumericalError",
    "DomainError",
    "SeparationZero",
    "OnSingularLine",
    "Divergent",
    "InversionFailure",
    "RegimeError",
    "StepLimitExceeded",
    "InvalidInitialState",
    "ConfigInvalid",
    "NumericalFailure",
]


class FilcolError(Exception):
    """Base class for every error raised by this package."""


class ValidationError(FilcolError):
    """Invalid input, parameter, regime, or configuration."""


class NumericalError(FilcolError):
    """A numerical procedure failed on otherwise valid input."""


class DomainError(ValidationError):
    """Argument outside the mathematical domain of an operation."""


class SeparationZero(ValidationError):
    """The two filaments overlap; the interaction kernel is singular."""


class OnSingularLine(ValidationError):
    """State lies on the excluded W = 0 line of the equal-circulation system."""


class Divergent(NumericalError):
    """The requested quantity diverges at this state."""


class InversionFailure(NumericalError):
    """Radii are inconsistent with the conserved hyperbola beyond round-off."""


class RegimeError(ValidationError):
    """Operation called outside the circulation-ratio regime it applies to."""


class StepLimitExceeded(NumericalError):
    """The integrator made more step attempts, accepted or rejected, than its
    ``max_steps`` budget allows before finishing."""


class InvalidInitialState(ValidationError):
    """Initial state rejected by the integrator (non-finite or out of domain)."""


class ConfigInvalid(ValidationError):
    """Malformed run configuration (CLI exit code 2)."""


class NumericalFailure(NumericalError):
    """Generic numerical failure (CLI exit code 3)."""
