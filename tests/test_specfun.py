"""Gamma, log-gamma and beta against closed forms and an mpmath oracle."""

import math

import mpmath
import numpy as np
import pytest

from fracineq.errors import DomainError
from fracineq.rlint import QuadratureConfig, integrate_adaptive
from fracineq.specfun import beta, gamma, log_gamma

# frozen closed-form values
SQRT_PI = 1.7724538509055159  # gamma(1/2)
LOG_24 = 3.1780538303479458  # log gamma(5)

GRID = [0.1, 0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 2.5, 3.7, 5.0, 10.0, 25.5, 100.0]


class TestGamma:
    def test_half_integer(self):
        assert gamma(0.5) == pytest.approx(SQRT_PI, rel=1e-15)

    @pytest.mark.parametrize("x,expect", [(1.0, 1.0), (2.0, 1.0), (5.0, 24.0), (7.0, 720.0)])
    def test_factorials(self, x, expect):
        assert gamma(x) == pytest.approx(expect, rel=1e-15)

    @pytest.mark.parametrize("x", GRID)
    def test_recurrence(self, x):
        # gamma(x + 1) = x gamma(x)
        assert gamma(x + 1.0) == pytest.approx(x * gamma(x), rel=1e-13)

    @pytest.mark.parametrize("x", GRID)
    def test_against_mpmath(self, x):
        expect = float(mpmath.gamma(x))
        assert gamma(x) == pytest.approx(expect, rel=5e-15)

    @pytest.mark.parametrize("x", [0.0, -1.0, -0.5, math.nan])
    def test_domain(self, x):
        with pytest.raises(DomainError):
            gamma(x)

    def test_overflow_propagates(self):
        with pytest.raises(OverflowError):
            gamma(500.0)


class TestLogGamma:
    def test_log_24(self):
        assert log_gamma(5.0) == pytest.approx(LOG_24, rel=1e-15)

    @pytest.mark.parametrize("x", GRID)
    def test_consistent_with_gamma(self, x):
        assert math.exp(log_gamma(x)) == pytest.approx(gamma(x), rel=1e-12)

    @pytest.mark.parametrize("x", [500.0, 1e4, 1e8])
    def test_large_arguments_stay_finite(self, x):
        got = log_gamma(x)
        assert math.isfinite(got)
        assert got == pytest.approx(float(mpmath.loggamma(x)), rel=1e-13)

    @pytest.mark.parametrize("x", [0.0, -2.0, math.nan])
    def test_domain(self, x):
        with pytest.raises(DomainError):
            log_gamma(x)


class TestBeta:
    def test_symmetry_is_exact(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            x, y = rng.uniform(0.05, 40.0, size=2)
            assert beta(x, y) == beta(y, x)

    def test_unit_square(self):
        assert beta(1.0, 1.0) == pytest.approx(1.0, rel=1e-15)

    def test_half_half_is_pi(self):
        assert beta(0.5, 0.5) == pytest.approx(math.pi, rel=1e-14)

    @pytest.mark.parametrize("x", [0.5, 1.0, 2.5])
    @pytest.mark.parametrize("y", [0.25, 1.5, 3.0])
    def test_gamma_identity(self, x, y):
        expect = gamma(x) * gamma(y) / gamma(x + y)
        assert beta(x, y) == pytest.approx(expect, rel=1e-12)

    @pytest.mark.parametrize("x,y", [(1.5, 2.0), (2.0, 3.5), (4.0, 1.25)])
    def test_matches_defining_integral(self, x, y):
        cfg = QuadratureConfig(rel_tol=1e-12, abs_tol=1e-14, max_subdivisions=5000)
        value, _ = integrate_adaptive(
            lambda t: t ** (x - 1.0) * (1.0 - t) ** (y - 1.0), 0.0, 1.0, cfg
        )
        assert beta(x, y) == pytest.approx(value, rel=1e-10)

    @pytest.mark.parametrize("x", GRID)
    @pytest.mark.parametrize("y", [0.3, 1.0, 6.0])
    def test_against_mpmath(self, x, y):
        expect = float(mpmath.beta(x, y))
        assert beta(x, y) == pytest.approx(expect, rel=1e-12)

    def test_domain(self):
        with pytest.raises(DomainError):
            beta(0.0, 1.0)
        with pytest.raises(DomainError):
            beta(1.0, -3.0)
