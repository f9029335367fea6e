"""Exception taxonomy shared across the package.

Two broad families, matching the CLI exit-code contract:

* ``ParameterError`` (and subclasses) — the *inputs* are bad: out-of-range
  exponents, incompatible grids, parameters outside a method's validity
  range.  CLI exit code 1.
* ``NumericalError`` (and subclasses) — the inputs were admissible but the
  computation could not be completed to tolerance: failed brackets, solver
  non-convergence, under-resolved grids, exhausted scans.  CLI exit code 2.
"""

from __future__ import annotations

__all__ = [
    "MassNLSError",
    "ParameterError",
    "HypothesisError",
    "NumericalError",
    "ResolutionError",
    "BracketError",
    "ConvergenceError",
    "NoCriticalPointError",
    "ScanExhaustedError",
]


class MassNLSError(Exception):
    """Base class for everything raised deliberately by this package."""


class ParameterError(MassNLSError, ValueError):
    """Invalid or inconsistent input parameters (usage error)."""


class HypothesisError(ParameterError):
    """Parameters violate the standing hypotheses of the requested method.

    Example: asking for the constrained mountain-pass level with a mass-
    subcritical exponent, where the fiber maximum is not well defined.
    """


class NumericalError(MassNLSError, RuntimeError):
    """A computation failed to reach its tolerance or a well-defined result."""


class ResolutionError(NumericalError):
    """The grid is too coarse for the requested profile or tolerance."""


class BracketError(NumericalError):
    """A root/parameter bracket could not be established."""


class ConvergenceError(NumericalError):
    """An iterative solve stalled; carries the iteration history."""

    def __init__(self, message, history=None):
        super().__init__(message)
        self.history = history if history is not None else []


class NoCriticalPointError(NumericalError):
    """The fiber map has no critical point in the searched range."""


class ScanExhaustedError(NumericalError):
    """A parameter scan ended without finding the requested feature."""
