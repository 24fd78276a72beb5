"""Exception types shared across the package."""

from __future__ import annotations

__all__ = [
    "FracineqError",
    "DomainError",
    "ParseError",
    "DerivativeSingularityError",
    "QuadratureToleranceError",
    "CsvSchemaError",
]


class FracineqError(Exception):
    """Base class for all package-specific failures."""


class DomainError(FracineqError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class ParseError(FracineqError, ValueError):
    """A function spec string or a sweep config violates its grammar.

    ``position`` locates the offending token: the 0-based index into a
    function spec where it starts, or, with ``unit="line"``, the 1-based
    line of a sweep config.
    """

    def __init__(self, message: str, position: int, unit: str = "position") -> None:
        super().__init__(f"{message} (at {unit} {position})")
        self.position = position


class DerivativeSingularityError(FracineqError, ValueError):
    """Differentiation would produce a term unbounded at the left domain edge.

    Raised for terms c*(u-shift)^e with 0 < e < 1 and shift >= lo; the caller
    must shrink the domain away from the singular point first.
    """


class QuadratureToleranceError(FracineqError, ArithmeticError):
    """Adaptive quadrature exhausted its subdivision budget or went non-finite.

    Carries the best available ``value`` and its ``error_estimate`` so callers
    can report how close the integrator got to the requested tolerance.
    ``reason`` replaces the default "estimated error > tolerance" wording;
    it is kept, None for the default.
    """

    def __init__(
        self,
        value: float,
        error_estimate: float,
        tolerance: float,
        reason: str | None = None,
    ) -> None:
        wording = reason
        if wording is None:
            wording = f"estimated error {error_estimate:.3e} > tolerance {tolerance:.3e}"
        super().__init__(
            f"quadrature tolerance not met: {wording} (value so far {value!r})"
        )
        self.value = value
        self.error_estimate = error_estimate
        self.tolerance = tolerance
        self.reason = reason


class CsvSchemaError(FracineqError, ValueError):
    """A sweep CSV file does not match the fixed record schema."""
