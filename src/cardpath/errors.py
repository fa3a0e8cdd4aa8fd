"""Exception types shared across the package."""


class CardpathError(Exception):
    """Base class for all package-specific errors."""


class InvalidDistribution(CardpathError):
    """Density is negative somewhere, does not normalize, or support is empty."""


class NegativeModulus(CardpathError):
    """Wave sample modulus must be nonnegative."""


class GridMismatch(CardpathError):
    """Path, time grid, or space grid shapes are inconsistent."""


class NonpositiveUnit(CardpathError):
    """The action unit h must be positive."""


class ZeroDenominator(CardpathError):
    """Conditioning on an event of zero probability."""


class TooLarge(CardpathError):
    """Enumeration would exceed the tractability guard."""


class UnboundedPotential(CardpathError):
    """Potential is not bounded below on the sampled region."""


class NoConvergence(CardpathError):
    """Iterative solver failed its tolerance within the iteration cap."""


class CausticSingularity(CardpathError):
    """Closed-form kernel is singular at this (omega, T) combination."""


class ShootingFailure(CardpathError):
    """No bracketing initial velocity found for the boundary value problem."""


class InvalidParameter(CardpathError, ValueError):
    """A constructor argument is out of range or not finite."""


class ConfigError(CardpathError):
    """Experiment configuration failed validation; message names the field."""
