"""Exception types shared across lorenzlab modules."""

from __future__ import annotations


class LorenzLabError(Exception):
    """Base class for all package errors."""


class IntegrationError(LorenzLabError):
    """The ODE solver failed or produced non-finite states."""


class HorizonExceeded(LorenzLabError):
    """No section crossing was found within the configured horizon.

    Usually means the initial state is outside the absorbing neighbourhood
    or the section box is too small.
    """


class DomainError(LorenzLabError, ValueError):
    """Input outside the documented domain of an operation."""


class ShapeError(LorenzLabError):
    """Scatter data is not unimodal, no cusp map can be built from it."""


class FitError(LorenzLabError):
    """Too few usable points in a fit window."""


class SingularPoint(LorenzLabError):
    """Derivative requested at the cusp, where it diverges."""


class ConstructionError(LorenzLabError):
    """Requested map parameters violate monotonicity or branch signs."""


class SpectralError(LorenzLabError):
    """Power iteration did not converge within the iteration cap."""


class NumericalError(LorenzLabError):
    """Root finding or quadrature failed to converge."""


class ConfigError(LorenzLabError, ValueError):
    """Invalid experiment configuration (unknown key, bad value)."""


class TangencyWarning(UserWarning):
    """A section crossing was close to tangential; the event is kept."""


class TruncationWarning(UserWarning):
    """A truncated series or cylinder family left visible mass uncovered."""
