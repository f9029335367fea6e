"""Exception taxonomy, input rules and report serialization of the package.

Two broad families, matching the CLI exit-code contract:

* ``ParameterError`` (and subclasses) — the *inputs* are bad: out-of-range
  exponents, incompatible grids, parameters outside a method's validity
  range.  CLI exit code 1.
* ``NumericalError`` (and subclasses) — the inputs were admissible but the
  computation could not be completed to tolerance: failed brackets, solver
  non-convergence, under-resolved grids, exhausted scans.  CLI exit code 2.

Public entry points check scalar inputs by these rules, and a breach is a
ParameterError naming the input.  A finite real (`_real`) is a
``numbers.Real`` with a finite float value: a bool, a string, NaN, +-inf
and an int beyond the float range are not.  A positive number
(`_positive`) is a finite real > 0.  An integer (`_integer`) is an ``int``
or ``np.integer``, not a bool or a float; a dimension N is one >= 3.
Every report's ``as_dict`` is `_plain` of it: data that
``json.dumps(allow_nan=False)`` accepts, with NaN and +-inf as None.
"""

from __future__ import annotations

import dataclasses
import math
import numbers

import numpy as np

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


def _real(what, v):
    """v as a float, or ParameterError unless it is a finite real number."""
    # a plain float or int skips the slower ABC test
    if type(v) in (float, int) or (isinstance(v, numbers.Real) and not isinstance(v, bool)):
        try:
            f = float(v)
        except OverflowError:
            f = math.inf
        if math.isfinite(f):
            return f
    raise ParameterError(f"{what} must be a finite real number, got {v!r}")


def _positive(what, v):
    """v as a float, or ParameterError unless it is a finite real > 0."""
    if _real(what, v) > 0.0:
        return float(v)
    raise ParameterError(f"{what} must be positive, got {v!r}")


def _integer(what, v, least):
    """v as an int, or ParameterError unless it is a non-bool integer >= least."""
    if (type(v) is int or isinstance(v, np.integer)) and v >= least:
        return int(v)
    raise ParameterError(f"{what} must be an integer >= {least}, got {v!r}")


def _plain(obj, skip=()):
    """obj as data that json.dumps(allow_nan=False) accepts: a dataclass
    becomes the dict of its fields but those named in `skip`, lists, tuples
    and arrays become lists, NumPy scalars Python ones, NaN and +-inf None."""
    if dataclasses.is_dataclass(obj):
        obj = {f.name: getattr(obj, f.name)
               for f in dataclasses.fields(obj) if f.name not in skip}
    if isinstance(obj, dict):
        return {k: _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, np.ndarray)):
        return [_plain(v) for v in obj]
    if isinstance(obj, np.generic):
        obj = obj.item()
    return None if isinstance(obj, float) and not math.isfinite(obj) else obj
