"""Exception hierarchy and warning categories for :mod:`nclmoments`.

The exceptions map onto the CLI exit-code contract:

* :class:`ValidationError`, :class:`DimensionError`, :class:`DuplicatePointError`
  — invalid inputs (exit code 2),
* :class:`TruncationError`, :class:`InsufficientOrderError`,
  :class:`NumericConsistencyError` — the truncated Fock space or the supplied
  moment table cannot support the requested computation (exit code 3),
* :class:`SingularInversionError` — measurement inversion is singular
  (exit code 4).
"""

from __future__ import annotations

import numpy as np


class NclError(Exception):
    """Base class for all :mod:`nclmoments` errors."""


class ValidationError(NclError):
    """Raised when an input value or specification is invalid."""


class DimensionError(ValidationError):
    """Raised when a Fock index or matrix size exceeds the truncation."""


class DuplicatePointError(ValidationError):
    """Raised when a set of phase-space points contains duplicates."""


class TruncationError(NclError):
    """Raised when the truncated Fock space is too small for an operation.

    Attributes
    ----------
    suggested_dim:
        A dimension that is expected to be sufficient, when one can be
        estimated; ``None`` otherwise.
    """

    def __init__(self, message: str, suggested_dim: int | None = None):
        super().__init__(message)
        self.suggested_dim = suggested_dim


class InsufficientOrderError(NclError):
    """Raised when a moment table lacks the orders needed by a computation."""


class NumericConsistencyError(NclError):
    """Raised when a quantity that must be real carries a large imaginary part."""


class SingularInversionError(NclError):
    """Raised when measured data cannot be inverted (e.g. vanishing LO)."""


class OrderAccuracyWarning(UserWarning):
    """Warns that a requested moment order is high relative to the truncation."""


class WeakOscillatorWarning(UserWarning):
    """Warns that the local oscillator is not stronger than the entrance tap."""


def _check_count(value: object, name: str) -> None:
    """Refuse anything but a nonnegative Python or NumPy integer (``bool`` too)."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < 0:
        raise ValidationError(f"{name} must be a nonnegative integer, got {value!r}")
