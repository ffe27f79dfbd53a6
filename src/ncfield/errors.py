"""Shared exception types.

The CLI maps these onto exit codes: bad input is 1, an honest "the numerics
could not decide" is 2, and evaluation outside the domain of a rational
expression is 3.
"""

from __future__ import annotations


class NcfieldError(Exception):
    """Base class for all package errors."""


class InputError(NcfieldError):
    """Malformed user input (files, expressions, flag values)."""


class VariableMismatch(NcfieldError):
    """Operands declare different numbers of variables."""


class ShapeMismatch(NcfieldError):
    """Matrix shapes are incompatible for the requested operation."""


class NonSquareError(NcfieldError):
    """A square matrix was required."""


class DegreeTooHigh(NcfieldError):
    """A linear pencil was requested from a matrix of degree above one."""


class ZeroPencilError(NcfieldError):
    """The zero pencil admits no fullness analysis."""


class Inconclusive(NcfieldError):
    """Nothing was decided: no exact certificate either way, or no consensus."""

    def __init__(self, message: str, diagnostics: dict | None = None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}


class NoConsensus(NcfieldError):
    """Rank estimates across dimensions or trials failed to agree."""

    def __init__(self, message: str, estimates: list | None = None):
        super().__init__(message)
        self.estimates = estimates or []


class MethodDisagreement(NcfieldError):
    """Two independent engines returned contradictory verdicts."""


class InvariantViolation(NcfieldError):
    """A structural guarantee failed; results cannot be trusted."""


class OutOfDomain(NcfieldError):
    """The defining pencil is singular at the evaluation point."""

    def __init__(self, message: str, sigma_min: float = float("nan")):
        super().__init__(message)
        self.sigma_min = sigma_min
