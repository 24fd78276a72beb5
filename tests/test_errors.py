"""The messages of the package's errors, word for word."""

import math

import pytest

from fracineq.errors import ParseError, QuadratureToleranceError


class TestQuadratureToleranceError:
    def test_the_default_wording_gives_the_estimate_over_the_tolerance(self):
        exc = QuadratureToleranceError(0.5, 1.25e-3, 1e-10)
        assert str(exc) == (
            "quadrature tolerance not met: estimated error 1.250e-03 > tolerance 1.000e-10 "
            "(value so far 0.5)"
        )
        assert (exc.value, exc.error_estimate, exc.tolerance, exc.reason) == (
            0.5, 1.25e-3, 1e-10, None,
        )

    def test_a_reason_replaces_the_default_wording(self):
        exc = QuadratureToleranceError(math.nan, math.inf, 1e-10, "the sums overflowed")
        assert str(exc) == "quadrature tolerance not met: the sums overflowed (value so far nan)"
        assert exc.reason == "the sums overflowed"


class TestParseError:
    @pytest.mark.parametrize(
        "unit,suffix", [((), "(at position 7)"), (("line",), "(at line 7)")], ids=["spec", "config"]
    )
    def test_the_message_ends_with_where_the_error_is(self, unit, suffix):
        exc = ParseError("unexpected token", 7, *unit)
        assert str(exc) == f"unexpected token {suffix}"
        assert exc.position == 7
