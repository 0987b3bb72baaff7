"""Exception types shared across the package.

Everything raised on a domain violation derives from ExtremogramError so
callers (and the command line front end) can map failures to outcomes
without matching on message text.
"""
from __future__ import annotations

__all__ = [
    "ExtremogramError",
    "EmptyInput",
    "EmptyField",
    "DegenerateThreshold",
    "DegenerateDenominator",
    "DomainError",
    "LagOutOfRange",
    "FactorizationFailure",
    "NonDivisibleBlock",
    "WindowOutOfRange",
    "TooFewPermutations",
    "DataFormatError",
]


class ExtremogramError(Exception):
    """Base class for all package-specific errors."""


class EmptyInput(ExtremogramError):
    """An operation received zero observations."""


class EmptyField(ExtremogramError):
    """A point field has too few points for the requested operation."""


class DegenerateThreshold(ExtremogramError):
    """No value exceeds the requested absolute threshold."""


class DegenerateDenominator(ExtremogramError):
    """No site lands in the conditioning set; the ratio is undefined."""


class DomainError(ExtremogramError):
    """An argument is outside the mathematical domain of a closed form."""


class LagOutOfRange(ExtremogramError):
    """A lag does not fit inside the observation window."""


class FactorizationFailure(ExtremogramError):
    """The jittered covariance matrix is not positive semidefinite."""


class NonDivisibleBlock(ExtremogramError):
    """Block size does not divide the spatial grid dimensions."""


class WindowOutOfRange(ExtremogramError):
    """A temporal window falls outside the recorded time axis."""


class TooFewPermutations(ExtremogramError):
    """Not enough permutations to resolve the requested band level."""


class DataFormatError(ExtremogramError):
    """An input file does not follow the documented format contract."""
