"""Adaptive quadrature and the fractional integral operators.

The operators are cross-checked two independent ways: the closed-form power
rule for monomials, and direct high-precision evaluation of the singular
kernel integral with mpmath.
"""

import functools
import heapq
import math
import random
import tracemalloc
import warnings
from dataclasses import replace

import mpmath
import numpy as np
import pytest
import scipy.integrate
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fracineq.rlint as rlint

from fracineq.errors import DomainError, QuadratureToleranceError
from fracineq.funcmodel import FunctionModel, PowerTerm, parse_function
from fracineq.hh_core import ProblemInstance, identity_lhs_with_error
from fracineq.rlint import (
    DEFAULT_CONFIG,
    QuadratureConfig,
    integrate_adaptive,
    rl_batch_with_error,
    rl_left_with_error,
    rl_right_with_error,
)
from fracineq.specfun import log_gamma
from fracineq.sweep import grid_from_config_text, run_sweep

# frozen closed forms for order 1/2 on [0, 1]
INV_GAMMA_15 = 1.1283791670955126  # of the constant 1
POWER_HALF_U2 = 0.6018022224509402  # of u^2, gamma(3)/gamma(3.5)

ALPHAS = [0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 3.0]


def rl_power_rule_oracle(term: PowerTerm, a: float, alpha: float, x: float) -> float:
    """Closed form J_{a+}^alpha [c*(t-a)^e](x) for a term anchored at a.

        = c * Gamma(e+1)/Gamma(e+alpha+1) * (x-a)^(e+alpha)

    The Gamma ratio is formed in log space. Requires term.shift == a exactly
    and term.exponent >= 0.
    """
    if not (math.isfinite(alpha) and alpha > 0.0):
        raise DomainError(f"fractional order must satisfy alpha > 0, got {alpha!r}")
    if term.shift != a:
        raise DomainError(
            f"power rule oracle requires shift == a, got shift={term.shift!r}, a={a!r}"
        )
    if term.exponent < 0.0:
        raise DomainError("power rule oracle requires exponent >= 0")
    if x < a:
        raise DomainError(f"power rule oracle requires x >= a, got x={x!r}, a={a!r}")
    if x == a:
        return 0.0
    e = term.exponent
    ratio = math.exp(log_gamma(e + 1.0) - log_gamma(e + alpha + 1.0))
    return term.coeff * ratio * (x - a) ** (e + alpha)


class TestIntegrateAdaptive:
    def test_polynomial_is_exact(self):
        value, err = integrate_adaptive(lambda u: u**10, 0.0, 1.0)
        assert value == pytest.approx(1.0 / 11.0, rel=1e-15)
        assert err < 1e-14

    def test_the_rule_is_the_15_node_gauss_legendre_rule_read_only(self):
        nodes, weights = rlint._rule()
        want_nodes, want_weights = np.polynomial.legendre.leggauss(15)
        assert np.array_equal(nodes, want_nodes) and np.array_equal(weights, want_weights)
        assert not (nodes.flags.writeable or weights.flags.writeable)
        with pytest.raises(ValueError):
            nodes[0] = 0.0
        assert rlint._rule() is rlint._rule()

    # a 15-node Gauss rule is exact through degree 2*15 - 1, so every panel
    # and its halves agree to rounding and nothing splits, alone or in a batch
    @pytest.mark.parametrize("degree", range(30))
    def test_one_call_is_exact_through_degree_29(self, degree):
        single = Counted(lambda u: u**degree)
        value, err = integrate_adaptive(single, 0.0, 1.0)
        assert single.calls == 1
        assert value == pytest.approx(1.0 / (degree + 1), rel=1e-15)
        assert err < 1e-14
        batch = Counted(_by_row([lambda u: u**degree]))
        assert integrate_adaptive(batch, 0.0, 1.0, DEFAULT_CONFIG, [DEFAULT_CONFIG.abs_tol]) == [
            (value, err)
        ]
        assert batch.calls == 1

    def test_oscillatory(self):
        value, _ = integrate_adaptive(np.sin, 0.0, math.pi)
        assert value == pytest.approx(2.0, rel=1e-12)

    def test_empty_interval(self):
        assert integrate_adaptive(np.sin, 2.0, 2.0) == (0.0, 0.0)

    def test_limit_order_enforced(self):
        with pytest.raises(DomainError):
            integrate_adaptive(np.sin, 1.0, 0.0)

    def test_budget_exhaustion_carries_partial_result(self):
        cfg = QuadratureConfig(rel_tol=1e-14, abs_tol=1e-300, max_subdivisions=3)
        with pytest.raises(QuadratureToleranceError) as exc:
            integrate_adaptive(lambda u: np.abs(u - 1.0 / 3.0) ** -0.4, 0.0, 1.0, cfg)
        err = exc.value
        assert math.isfinite(err.value)
        assert err.error_estimate > err.tolerance

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"rel_tol": 0.0},
            {"abs_tol": -1.0},
            {"max_subdivisions": 0},
            # a budget no split count equals
            {"max_subdivisions": math.nan},
            {"max_subdivisions": 2.5},
        ],
    )
    def test_config_validation(self, kwargs):
        with pytest.raises(DomainError):
            QuadratureConfig(**kwargs)


class TestSubdivisionBudget:
    """max_subdivisions counts panel splits; its documented default is 2000.

    sin(k*u) on [0, 1] needs more panels as k grows: k = 1000 converges in
    63 splits under the default tolerances, k = 24775.390625 in exactly
    2000 and k = 24785.15625 only in 2001.
    """

    @staticmethod
    def _splits(k, cfg):
        counted = Counted(lambda u: np.sin(k * u))
        got = integrate_adaptive(counted, 0.0, 1.0, cfg)
        return got, counted.calls - 1  # one call for the first three panels

    def test_an_integral_that_converges_in_exactly_n_splits(self):
        n = 63
        (value, err), splits = self._splits(1000.0, QuadratureConfig(max_subdivisions=n))
        assert splits == n
        assert value == pytest.approx((1.0 - math.cos(1000.0)) / 1000.0, rel=1e-9)
        with pytest.raises(QuadratureToleranceError, match="estimated error"):
            self._splits(1000.0, QuadratureConfig(max_subdivisions=n - 1))

    def test_the_default_budget_is_2000_splits(self):
        (value, _), splits = self._splits(24775.390625, DEFAULT_CONFIG)
        assert splits == 2000
        assert value == pytest.approx((1.0 - math.cos(24775.390625)) / 24775.390625, rel=1e-9)
        with pytest.raises(QuadratureToleranceError, match="estimated error"):
            self._splits(24785.15625, DEFAULT_CONFIG)


class TestFrozenValues:
    def test_constant_order_half(self, const1):
        value, _ = rl_left_with_error(const1, 0.0, 0.5, 1.0)
        assert value == pytest.approx(INV_GAMMA_15, rel=1e-12)

    def test_square_order_half(self, u2):
        value, _ = rl_left_with_error(u2, 0.0, 0.5, 1.0)
        assert value == pytest.approx(POWER_HALF_U2, rel=1e-12)

    def test_oracle_matches_frozen_value(self):
        got = rl_power_rule_oracle(PowerTerm(1.0, 0.0, 2.0), 0.0, 0.5, 1.0)
        assert got == pytest.approx(POWER_HALF_U2, rel=1e-13)


class TestPowerRule:
    @pytest.mark.parametrize("alpha", ALPHAS)
    @pytest.mark.parametrize("exponent", [0.0, 1.0, 2.0, 2.5])
    @pytest.mark.parametrize("x", [0.35, 1.0])
    def test_left_operator_agrees(self, alpha, exponent, x):
        term = PowerTerm(1.0, 0.0, exponent)
        f = FunctionModel((term,), 0.0, 1.0)
        expect = rl_power_rule_oracle(term, 0.0, alpha, x)
        value, err = rl_left_with_error(f, 0.0, alpha, x)
        assert value == pytest.approx(expect, rel=1e-10, abs=1e-12)
        assert err <= 1e-8 * (1.0 + abs(value))

    def test_oracle_rejects_mismatched_shift(self):
        with pytest.raises(DomainError):
            rl_power_rule_oracle(PowerTerm(1.0, 0.5, 2.0), 0.0, 0.5, 1.0)


def _mp_rl_left(coeff, exponent, alpha, x):
    """Direct singular-kernel evaluation at 40 digits."""
    with mpmath.workdps(40):
        kernel = lambda t: (x - t) ** (alpha - 1.0) * coeff * t**exponent
        val = mpmath.quad(kernel, [0, x]) / mpmath.gamma(alpha)
        return float(val)


class TestAgainstMpmath:
    @pytest.mark.parametrize(
        "coeff,exponent,alpha,x",
        [
            (1.0, 1.5, 0.25, 0.7),
            (2.0, 2.0, 0.5, 1.0),
            (1.0, 0.0, 0.75, 0.3),
            (0.5, 3.0, 1.5, 0.9),
        ],
    )
    def test_monomials(self, coeff, exponent, alpha, x):
        f = FunctionModel((PowerTerm(coeff, 0.0, exponent),), 0.0, 1.0)
        expect = _mp_rl_left(coeff, exponent, alpha, x)
        assert rl_left_with_error(f, 0.0, alpha, x)[0] == pytest.approx(expect, rel=1e-10)

    def test_composite_model(self, linear):
        # 1 + u, order 1/4 at x = 0.8
        with mpmath.workdps(40):
            expect = float(
                mpmath.quad(lambda t: (0.8 - t) ** -0.75 * (1 + t), [0, 0.8])
                / mpmath.gamma(0.25)
            )
        assert rl_left_with_error(linear, 0.0, 0.25, 0.8)[0] == pytest.approx(expect, rel=1e-10)


class TestOperatorProperties:
    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
    def test_linearity(self, alpha, u2, const1):
        combo = parse_function("3*(u-0)^0 + 2*(u-0)^2 on [0,1]")
        direct = rl_left_with_error(combo, 0.0, alpha, 0.9)[0]
        parts = (
            3.0 * rl_left_with_error(const1, 0.0, alpha, 0.9)[0]
            + 2.0 * rl_left_with_error(u2, 0.0, alpha, 0.9)[0]
        )
        # each side independently converged to the 1e-10 relative default
        assert direct == pytest.approx(parts, rel=4e-10)

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_mirror_symmetry(self, alpha):
        # u(1-u) is symmetric about 1/2, so both operators agree across [0, 1]
        f = parse_function("1*(u-0)^1 + -1*(u-0)^2 on [0,1]")
        left = rl_left_with_error(f, 0.0, alpha, 1.0)[0]
        right = rl_right_with_error(f, 1.0, alpha, 0.0)[0]
        assert left == pytest.approx(right, rel=1e-11)

    def test_alpha_one_is_the_ordinary_integral(self, u2):
        expect, _ = scipy.integrate.quad(u2.evaluate, 0.2, 0.9)
        assert rl_left_with_error(u2, 0.2, 1.0, 0.9)[0] == pytest.approx(expect, rel=1e-11)
        expect_r, _ = scipy.integrate.quad(u2.evaluate, 0.1, 0.6)
        assert rl_right_with_error(u2, 0.6, 1.0, 0.1)[0] == pytest.approx(expect_r, rel=1e-11)

    def test_degenerate_point_is_exact_zero(self, u2):
        assert rl_left_with_error(u2, 0.3, 0.5, 0.3) == (0.0, 0.0)
        assert rl_right_with_error(u2, 0.3, 0.5, 0.3) == (0.0, 0.0)

    def test_monotone_in_x_for_nonnegative_f(self, u2):
        values = [rl_left_with_error(u2, 0.0, 0.5, x)[0] for x in np.linspace(0.1, 1.0, 8)]
        assert all(b >= a for a, b in zip(values, values[1:]))


class TestRLValidation:
    def test_order_must_be_positive(self, u2):
        with pytest.raises(DomainError):
            rl_left_with_error(u2, 0.0, 0.0, 1.0)
        with pytest.raises(DomainError):
            rl_right_with_error(u2, 1.0, -0.5, 0.0)

    def test_point_ordering(self, u2):
        with pytest.raises(DomainError):
            rl_left_with_error(u2, 0.5, 0.5, 0.2)
        with pytest.raises(DomainError):
            rl_right_with_error(u2, 0.5, 0.5, 0.8)

    def test_interval_inside_model_domain(self, u2):
        with pytest.raises(DomainError):
            rl_left_with_error(u2, -0.5, 0.5, 0.5)
        with pytest.raises(DomainError):
            rl_left_with_error(u2, 0.0, 0.5, 1.5)


# -- the three-call-per-panel integrator, kept as an exactness oracle --------


def _ref_panel(fn, lo, hi, nodes, weights):
    half = 0.5 * (hi - lo)
    mid = 0.5 * (lo + hi)
    return half * float(np.dot(weights, fn(mid + half * nodes)))


def _ref_panel_with_estimate(fn, lo, hi, nodes, weights):
    coarse = _ref_panel(fn, lo, hi, nodes, weights)
    mid = 0.5 * (lo + hi)
    fine = _ref_panel(fn, lo, mid, nodes, weights) + _ref_panel(fn, mid, hi, nodes, weights)
    return fine, abs(fine - coarse)


AT_RESOLUTION = "a panel reached floating-point resolution before the error met the tolerance"


def _ref_integrate(fn, lo, hi, cfg=DEFAULT_CONFIG):
    """Each panel and each of its halves evaluated afresh: six calls per split,
    with its own 15-node rule rather than rlint's."""
    nodes, weights = np.polynomial.legendre.leggauss(15)
    value, err = _ref_panel_with_estimate(fn, lo, hi, nodes, weights)
    heap = [(-err, 0, lo, hi, value, err)]
    total, total_err = value, err
    seq = 1
    for _ in range(cfg.max_subdivisions):
        tol = max(cfg.abs_tol, cfg.rel_tol * abs(total))
        if total_err <= tol:
            return total, total_err
        _, _, plo, phi, pval, perr = heapq.heappop(heap)
        mid = 0.5 * (plo + phi)
        if not plo < mid < phi:
            raise QuadratureToleranceError(total, total_err, tol, AT_RESOLUTION)
        lval, lerr = _ref_panel_with_estimate(fn, plo, mid, nodes, weights)
        rval, rerr = _ref_panel_with_estimate(fn, mid, phi, nodes, weights)
        total += lval + rval - pval
        total_err = max(total_err + lerr + rerr - perr, 0.0)
        heapq.heappush(heap, (-lerr, seq, plo, mid, lval, lerr))
        heapq.heappush(heap, (-rerr, seq + 1, mid, phi, rval, rerr))
        seq += 2
    tol = max(cfg.abs_tol, cfg.rel_tol * abs(total))
    if total_err <= tol:
        return total, total_err
    raise QuadratureToleranceError(total, total_err, tol)


class Counted:
    """Wraps an integrand and counts its calls."""

    def __init__(self, fn):
        self.fn = fn
        self.calls = 0

    def __call__(self, v):
        self.calls += 1
        return self.fn(v)


def _by_row(fns):
    """A batch integrand whose row r is the single integrand fns[r]: each
    call receives a RowNodes v and evaluates only the rows in v.rows."""
    def fn(v):
        assert isinstance(v, rlint.RowNodes) and v.shape[0] == len(v.rows)
        return np.stack([fns[r](np.asarray(row)) for r, row in zip(v.rows, v)])

    return fn


def _square(u):
    return u * u


# the two refinement loops: a batch of rlint.TABLE_ROWS rows or more refines
# as one table, a narrower one with a heap per row; a test run at the table's
# width adds u^2 rows, which converge on their first panels and leave
LOOPS = pytest.mark.parametrize("width", [0, rlint.TABLE_ROWS], ids=["heaps", "table"])


# the abs_tol of a u^2 row that _pad adds: it converges on its first panels
PAD_TOL = DEFAULT_CONFIG.abs_tol


def _pad(rows, cfg, width):
    """rows widened to ``width`` rows with u^2 rows, and each row's abs_tol:
    cfg's for the given rows, PAD_TOL for the u^2 rows."""
    more = max(width - len(rows), 0)
    return rows + [_square] * more, [cfg.abs_tol] * len(rows) + [PAD_TOL] * more


def _padded(lo, hi, cfg):
    """The result of each u^2 row that _pad adds."""
    return _ref_integrate(_square, lo, hi, replace(cfg, abs_tol=PAD_TOL))


def _kinked(alpha, x=0.8):
    # u^1.3 under the left operator's substitution at order alpha
    f = parse_function("1*(u-0)^1.3 on [0,1]")
    return lambda v: f.evaluate(np.clip(x - x * np.power(v, 1.0 / alpha), 0.0, x))


EXACT_CASES = {
    "smooth": (lambda u: np.exp(-u) * np.cos(3.0 * u), 0.0, 2.0),
    "kinked-0.3": (_kinked(0.3), 0.0, 1.0),
    "kinked-0.7": (_kinked(0.7), 0.0, 1.0),
    "kinked-2.5": (_kinked(2.5), 0.0, 1.0),
    "oscillatory": (lambda u: np.sin(40.0 * u) * u, 0.0, math.pi),
}


def _singular(u):
    with np.errstate(divide="ignore"):
        return np.abs(u - 1.0 / 3.0) ** -0.4


class TestExactAgainstReference:
    @pytest.mark.parametrize("name", sorted(EXACT_CASES))
    @pytest.mark.parametrize(
        "cfg",
        [
            DEFAULT_CONFIG,
            QuadratureConfig(rel_tol=1e-13, abs_tol=1e-15, max_subdivisions=20000),
        ],
        ids=["default", "tight"],
    )
    def test_value_error_and_calls(self, name, cfg):
        fn, lo, hi = EXACT_CASES[name]
        ref, new = Counted(fn), Counted(fn)
        try:
            expect = _ref_integrate(ref, lo, hi, cfg)
        except QuadratureToleranceError as exc:
            expect = exc
        try:
            got = integrate_adaptive(new, lo, hi, cfg)
        except QuadratureToleranceError as exc:
            got = exc
        assert type(got) is type(expect)
        if isinstance(expect, tuple):
            assert got == expect
        else:
            assert (got.value, got.error_estimate, got.tolerance) == (
                expect.value, expect.error_estimate, expect.tolerance,
            )
        # the reference makes 3 calls at the start and 6 per split
        splits = (ref.calls - 3) // 6
        assert ref.calls == 3 + 6 * splits
        assert new.calls == 1 + splits

    @LOOPS
    def test_batch_rows_and_calls(self, width):
        names = ["kinked-0.3", "kinked-0.7", "kinked-2.5"]
        rows = [EXACT_CASES[n][0] for n in names] + [lambda u: np.exp(-u) * np.cos(3.0 * u)]
        cfg = DEFAULT_CONFIG
        rows, tols = _pad(rows, cfg, width)
        counted = Counted(_by_row(rows))
        got = integrate_adaptive(counted, 0.0, 1.0, cfg, tols)
        splits = 0
        for g, t, row in zip(rows, tols, got):
            ref = Counted(g)
            try:
                expect = _ref_integrate(ref, 0.0, 1.0, replace(cfg, abs_tol=t))
            except QuadratureToleranceError as exc:
                expect = exc
            _assert_same(row, expect)
            splits = max(splits, (ref.calls - 3) // 6)
        assert counted.calls == 1 + splits

    @pytest.mark.parametrize("name", ["kinked-0.3", "kinked-0.7", "oscillatory", "singular"])
    def test_budget_exhaustion_payload(self, name):
        fn, lo, hi = EXACT_CASES.get(name, (_singular, 0.0, 1.0))
        cfg = QuadratureConfig(rel_tol=1e-14, abs_tol=1e-300, max_subdivisions=3)
        with pytest.raises(QuadratureToleranceError) as expect:
            _ref_integrate(fn, lo, hi, cfg)
        counted = Counted(fn)
        with pytest.raises(QuadratureToleranceError) as got:
            integrate_adaptive(counted, lo, hi, cfg)
        assert (got.value.value, got.value.error_estimate, got.value.tolerance) == (
            expect.value.value, expect.value.error_estimate, expect.value.tolerance,
        )
        assert str(got.value) == str(expect.value)
        assert counted.calls == 1 + 3

    @LOOPS
    @pytest.mark.parametrize("name", ["kinked-0.3", "kinked-0.7", "oscillatory", "singular"])
    def test_budget_exhaustion_payload_in_a_batch(self, name, width):
        fn, lo, hi = EXACT_CASES.get(name, (_singular, 0.0, 1.0))
        cfg = QuadratureConfig(rel_tol=1e-14, abs_tol=1e-300, max_subdivisions=3)
        with pytest.raises(QuadratureToleranceError) as expect:
            _ref_integrate(fn, lo, hi, cfg)
        rows, tols = _pad([fn], cfg, width)
        counted = Counted(_by_row(rows))
        got = integrate_adaptive(counted, lo, hi, cfg, tols)
        _assert_same(got[0], expect.value)
        assert got[1:] == [_padded(lo, hi, cfg)] * (len(rows) - 1)
        assert counted.calls == 1 + 3

    @LOOPS
    def test_an_error_equal_to_its_tolerance_converges(self, width):
        # err <= max(abs_tol, rel_tol * |total|) is the test: a row whose
        # first estimate is its abs_tol exactly converges without a split
        fn = EXACT_CASES["kinked-0.7"][0]
        value, err = _ref_integrate(fn, 0.0, 1.0, QuadratureConfig(abs_tol=1.0))
        assert err > 0.0
        cfg = QuadratureConfig(rel_tol=1e-300, abs_tol=err, max_subdivisions=1)
        rows, tols = _pad([fn], cfg, width)
        counted = Counted(_by_row(rows))
        got = integrate_adaptive(counted, 0.0, 1.0, cfg, tols)
        assert got[0] == (value, err)
        assert got[1:] == [_padded(0.0, 1.0, cfg)] * (len(rows) - 1)
        assert counted.calls == 1

    @LOOPS
    def test_a_panel_at_floating_point_resolution_fails_its_row(self, width):
        # on [1, 1 + 4 ulp] the noise leaves an error sum over tolerance
        # once every panel is one ulp wide, so the next split finds no
        # midpoint strictly inside its panel, long before the budget
        lo, hi = 1.0, 1.0 + 4 * math.ulp(1.0)

        def noise(u):
            return 3.7 * np.sin(1e20 * u) + math.pi

        cfg = QuadratureConfig(rel_tol=1e-300, abs_tol=1e-300, max_subdivisions=1000)
        ref = Counted(noise)
        with pytest.raises(QuadratureToleranceError) as expect:
            _ref_integrate(ref, lo, hi, cfg)
        splits = (ref.calls - 3) // 6
        assert splits < cfg.max_subdivisions
        rows, tols = _pad([noise], cfg, width)
        counted = Counted(_by_row(rows))
        got = integrate_adaptive(counted, lo, hi, cfg, tols)
        _assert_same(got[0], expect.value)
        assert str(got[0]).startswith(f"quadrature tolerance not met: {AT_RESOLUTION} (")
        assert got[1:] == [_padded(lo, hi, cfg)] * (len(rows) - 1)
        assert counted.calls == 1 + splits

    def test_each_call_is_whole_panels(self):
        sizes = []

        def fn(v):
            sizes.append(v.size)
            return _kinked(0.3)(v)

        integrate_adaptive(fn, 0.0, 1.0)
        assert sizes[0] == 3 * 15
        assert len(sizes) > 1 and set(sizes[1:]) == {4 * 15}

    @LOOPS
    def test_each_batch_call_is_each_split_rows_own_quarter_panels(self, width):
        # the first call gives every row the same three panels; each later
        # one gives each row that splits its own four quarters, in C order
        rows, tols = _pad(
            [_kinked(0.3), _kinked(2.5), EXACT_CASES["smooth"][0]], DEFAULT_CONFIG, width
        )
        calls = []

        def fn(v):
            assert v.flags.c_contiguous
            calls.append((list(v.rows), v.shape, np.array(v)))
            return _by_row(rows)(v)

        got = integrate_adaptive(fn, 0.0, 1.0, DEFAULT_CONFIG, tols)
        assert got == [_ref_integrate(g, 0.0, 1.0) for g in rows]
        (sel, shape, v), *later = calls
        n = len(rows)
        assert (sel, shape) == (list(range(n)), (n, 3 * 15)) and (v == v[0]).all()
        assert later and all(shape == (len(sel), 4 * 15) for sel, shape, _ in later)
        # a row leaves the batch when it converges and never comes back
        for (sel, *_), (after, *_) in zip(later, later[1:]):
            assert set(after) <= set(sel) and after == sorted(after)
        # the rows of one call split different panels: the nodes differ
        assert any(len(sel) > 1 and not (v == v[0]).all() for sel, _, v in later)


class TestNonFiniteIntegrand:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_fails_at_first_estimate(self, bad):
        counted = Counted(lambda u: np.full_like(u, bad))
        with pytest.raises(QuadratureToleranceError, match="non-finite value") as exc:
            integrate_adaptive(counted, 0.0, 1.0)
        assert counted.calls == 1
        assert not math.isfinite(exc.value.value) or not math.isfinite(
            exc.value.error_estimate
        )

    def test_fails_when_a_split_turns_non_finite(self):
        kinked = _kinked(0.3)
        counted = Counted(lambda v: kinked(v) if counted.calls < 3 else v * math.nan)
        with pytest.raises(QuadratureToleranceError, match="non-finite value"):
            integrate_adaptive(counted, 0.0, 1.0)
        assert counted.calls == 3

    def test_infinite_node_is_not_returned_as_converged(self):
        # refinement lands a node on the pole at 1/3; the three-call
        # integrator then met its relative tolerance with (inf, inf)
        cfg = QuadratureConfig(rel_tol=1e-13, abs_tol=1e-15, max_subdivisions=20000)
        assert _ref_integrate(_singular, 0.0, 1.0, cfg) == (math.inf, math.inf)
        with pytest.raises(QuadratureToleranceError, match="non-finite value"):
            integrate_adaptive(_singular, 0.0, 1.0, cfg)

    def test_nan_half_fails_at_once(self):
        counted = Counted(lambda u: np.where(u > 0.5, math.nan, u))
        with pytest.raises(QuadratureToleranceError, match="non-finite value"):
            integrate_adaptive(counted, 0.0, 1.0)
        assert counted.calls == 1


# a batch of one row refines with heaps, one of TABLE_ROWS rows as a table
HUGE_WIDTHS = pytest.mark.parametrize("width", [1, rlint.TABLE_ROWS], ids=["heaps", "table"])


class TestLimitsWhoseSumOverflows:
    """Limits so large that lo + hi overflows still integrate, with no warning."""

    @HUGE_WIDTHS
    def test_a_constant_integrates_exactly(self, width):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            got = integrate_adaptive(
                _by_row([np.ones_like] * width), 1e308, 1.5e308, DEFAULT_CONFIG, [1e-12] * width
            )
            assert got == [(5e307, 0.0)] * width
            assert integrate_adaptive(np.ones_like, 1e308, 1.5e308) == (5e307, 0.0)
            assert integrate_adaptive(np.ones_like, -1e308, 0.5e308) == (1.5e308, 0.0)

    @HUGE_WIDTHS
    @pytest.mark.parametrize("name", ["smooth", "kinked-0.3", "kinked-0.7", "kinked-2.5"])
    @pytest.mark.parametrize(
        "cfg",
        [DEFAULT_CONFIG, QuadratureConfig(rel_tol=1e-14, abs_tol=1e-300, max_subdivisions=3)],
        ids=["default", "out-of-budget"],
    )
    def test_a_power_of_two_stretch_scales_the_result_exactly(self, name, cfg, width):
        # g(u / S) on [S lo, S hi] is S times g on [lo, hi], bit for bit: a
        # power of two S scales every node, panel sum and tolerance exactly
        fn, lo, hi = EXACT_CASES[name]
        scale = 2.0 ** (1024 - math.frexp(hi)[1])
        assert math.isinf(2.0 * scale * hi) and math.isfinite(scale * hi)
        try:
            small = integrate_adaptive(fn, lo, hi, cfg)
        except QuadratureToleranceError as exc:
            small = exc
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            got = integrate_adaptive(
                _by_row([lambda u: fn(u / scale)] * width), scale * lo, scale * hi, cfg,
                [cfg.abs_tol] * width,
            )
        for row in got:
            assert type(row) is type(small)
            if isinstance(small, tuple):
                assert row == (scale * small[0], scale * small[1])
            else:
                assert (row.value, row.error_estimate, row.tolerance) == (
                    scale * small.value, scale * small.error_estimate, scale * small.tolerance,
                )
                assert str(row).startswith("quadrature tolerance not met: estimated error ")

    def test_an_integral_past_the_float_range_fails_as_non_finite(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(QuadratureToleranceError, match="non-finite value") as exc:
                integrate_adaptive(np.ones_like, -1.7e308, 1.7e308)
        assert exc.value.value == math.inf


# -- batches: every row equals the reference integrator run on it alone -------


def _ref_rl(f, alpha, origin, x, cfg):
    """J^alpha f with origin ``origin`` at x, one integral at a time, with the
    left and right operators as two mirror-image formulas, not one signed span."""
    if origin == x:
        return 0.0, 0.0
    span = abs(x - origin)
    scale = math.exp(alpha * math.log(span) - log_gamma(alpha + 1.0))
    inv_alpha = 1.0 / alpha
    if origin < x:
        def integrand(v):
            return f.evaluate(np.clip(x - span * np.power(v, inv_alpha), origin, x))
    else:
        def integrand(v):
            return f.evaluate(np.clip(x + span * np.power(v, inv_alpha), x, origin))
    if scale > 1.0:
        cfg = replace(cfg, abs_tol=cfg.abs_tol / scale)
    try:
        value, err = _ref_integrate(integrand, 0.0, 1.0, cfg)
    except QuadratureToleranceError as exc:
        return exc
    return scale * value, scale * err


def _noise(u):
    return 3.7 * np.sin(1e20 * u) + math.pi


# the rows, spans, configs and abs_tols of the mixed-width batches: a batch
# shares one span and one config, and each of its rows has its own abs_tol.
# On the 64-ulp span under a budget of 40 splits, at abs_tol 1e-300, the
# row that is noise on its first 16 ulps reaches a panel at resolution and
# the row that is noise throughout spends its budget. Row NAN_ROW is NaN
# past 0.9; the reference has no non-finite test, so that row's reference
# is the one-integral call.
NAN_ROW = 7
MIXED_ROWS = [
    _square,
    _kinked(0.3),
    _kinked(2.5),
    EXACT_CASES["smooth"][0],
    EXACT_CASES["oscillatory"][0],
    lambda u: u**-0.4,
    lambda u: np.sign(u - 1.0 / 3.0),
    lambda u: np.where(u > 0.9, math.nan, u),
    _noise,
    lambda u: np.where(u < 1.0 + 16 * math.ulp(1.0), _noise(u), math.pi),
]
MIXED_SPANS = [(0.0, 1.0), (1.0, 1.0 + 64 * math.ulp(1.0))]
MIXED_CONFIGS = [
    DEFAULT_CONFIG,
    QuadratureConfig(max_subdivisions=1),
    QuadratureConfig(max_subdivisions=3),
    QuadratureConfig(rel_tol=1e-13, max_subdivisions=200),
    QuadratureConfig(rel_tol=1e-300, max_subdivisions=40),
]
MIXED_ABS_TOLS = [1e-12, 1e-15, 1e-300]


@functools.lru_cache(maxsize=None)
def _mixed_reference(row, span, cfg, tol):
    cfg = replace(MIXED_CONFIGS[cfg], abs_tol=MIXED_ABS_TOLS[tol])
    integrate = integrate_adaptive if row == NAN_ROW else _ref_integrate
    try:
        return integrate(MIXED_ROWS[row], *MIXED_SPANS[span], cfg)
    except QuadratureToleranceError as exc:
        return exc


def _mixed_batch(picks, span, cfg):
    """The batch of MIXED_ROWS[i] at abs_tol MIXED_ABS_TOLS[t] for each (i,
    t) of ``picks``, over MIXED_SPANS[span] under MIXED_CONFIGS[cfg],
    checked row by row against the references; returns the rows' results."""
    got = integrate_adaptive(
        _by_row([MIXED_ROWS[i] for i, _ in picks]), *MIXED_SPANS[span], MIXED_CONFIGS[cfg],
        [MIXED_ABS_TOLS[t] for _, t in picks],
    )
    assert len(got) == len(picks)
    for (i, t), row in zip(picks, got):
        assert _bits(row) == _bits(_mixed_reference(i, span, cfg, t))
    return got


def _verdict(got):
    """converged, or the reason of a QuadratureToleranceError: None when
    the budget ran out."""
    return "converged" if isinstance(got, tuple) else got.reason


def _bits(got):
    """A result as text, each float by its repr: NaN matches NaN, and -0.0
    does not match 0.0."""
    if isinstance(got, tuple):
        return repr(got)
    return repr((type(got), got.value, got.error_estimate, got.tolerance, str(got)))


def _assert_same(got, expect):
    if isinstance(expect, tuple):
        assert got == expect
    else:
        assert isinstance(got, QuadratureToleranceError)
        assert (got.value, got.error_estimate, got.tolerance, str(got)) == (
            expect.value, expect.error_estimate, expect.tolerance, str(expect),
        )


@st.composite
def _identity_batches(draw):
    """A sign-definite power sum, an order, and points x with both endpoints."""
    lo = draw(st.floats(min_value=-2.0, max_value=2.0))
    hi = lo + draw(st.floats(min_value=0.1, max_value=3.0))
    sign = draw(st.sampled_from((1.0, -1.0)))
    terms = tuple(
        PowerTerm(
            sign * draw(st.floats(min_value=0.01, max_value=5.0)),
            lo - draw(st.floats(min_value=0.0, max_value=1.0)),
            draw(st.floats(min_value=0.0, max_value=4.0)),
        )
        for _ in range(draw(st.integers(min_value=1, max_value=3)))
    )
    alpha = draw(st.floats(min_value=0.1, max_value=5.0))
    xs = [lo, hi] + draw(st.lists(st.floats(min_value=lo, max_value=hi), max_size=3))
    return FunctionModel(terms, lo, hi), alpha, xs


BATCH_CONFIGS = [
    DEFAULT_CONFIG,
    QuadratureConfig(max_subdivisions=1),
    QuadratureConfig(max_subdivisions=3),
]


def _check_identity_batch(batch, cfg, alphas=None):
    # both sides of the identity at every x: right integrals toward lo,
    # left integrals toward hi, and zero-span rows at the endpoints; with
    # several alphas, every (alpha, x) of a family in one batch
    f, alpha, xs = batch
    rows = [
        (a, origin, at)
        for a in alphas or [alpha]
        for origin in xs
        for at in (f.lo, f.hi)
    ]
    got = rl_batch_with_error(f, rows, cfg)
    assert len(got) == len(rows)
    for (a, origin, x), row in zip(rows, got):
        _assert_same(row, _ref_rl(f, a, origin, x, cfg))


class TestBatch:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(_identity_batches(), st.sampled_from(BATCH_CONFIGS))
    def test_each_row_equals_the_reference_alone(self, batch, cfg):
        _check_identity_batch(batch, cfg)

    # numpy computes x^2.0 and x^0.5 as a square and a square root, so these
    # orders (exponents 1/alpha of 4, 2, 1, 0.5 and 0.25) pin that each
    # alpha's exponent reaches np.power as a Python float
    SPECIAL_ALPHAS = [0.25, 0.5, 1.0, 2.0, 4.0]

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        _identity_batches(),
        st.lists(st.floats(min_value=0.1, max_value=5.0), max_size=3),
        st.randoms(use_true_random=False),
        st.sampled_from(BATCH_CONFIGS),
    )
    def test_a_family_batch_of_several_alphas_equals_each_row_alone(
        self, batch, drawn, rnd, cfg
    ):
        # one batch for every (alpha, x) of a family, alphas in drawn order
        alphas = [batch[1], *self.SPECIAL_ALPHAS, *drawn]
        rnd.shuffle(alphas)
        _check_identity_batch(batch, cfg, alphas)

    @pytest.mark.parametrize("alpha", SPECIAL_ALPHAS)
    def test_a_batch_of_one_special_alpha_equals_each_row_alone(self, alpha):
        # one alpha takes the integrand's one-np.power path
        f = parse_function("0.6666666666666666*(u-0)^1.5 + 2*(u--0.5)^0.7 on [0,1]")
        _check_identity_batch((f, alpha, [0.0, 0.01, 0.3, 0.77, 1.0]), DEFAULT_CONFIG)

    def test_an_integrand_given_a_broadcast_view_keeps_its_bits(self, u15):
        # every row's first three panels are the same nodes; given them as a
        # broadcast view (stride 0 across rows) rather than laid out in C
        # order, the integrand must return the same bits
        rows = [(a, o, x) for a in self.SPECIAL_ALPHAS for o, x in ((0.4, 0.01), (0.4, 1.0))]
        integrands = []
        real = rlint.integrate_adaptive

        def spy(fn, lo, hi, cfg, abs_tols):
            integrands.append(fn)
            return real(fn, lo, hi, cfg, abs_tols)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(rlint, "integrate_adaptive", spy)
            got = rl_batch_with_error(u15, rows, DEFAULT_CONFIG)
        for (a, o, x), row in zip(rows, got):
            _assert_same(row, _ref_rl(u15, a, o, x, DEFAULT_CONFIG))
        nodes, _ = rlint._rule()
        panel = np.concatenate([0.5 + 0.5 * nodes, 0.25 + 0.25 * nodes, 0.75 + 0.25 * nodes])
        shared = np.broadcast_to(panel, (len(rows), panel.size)).view(rlint.RowNodes)
        # C order by request: np.array of a broadcast view lays it out in F order
        dense = np.array(shared, order="C").view(rlint.RowNodes)
        for v in (shared, dense):
            v.rows = list(range(len(rows)))
        assert shared.strides[0] == 0 and dense.flags.c_contiguous
        out = integrands[0](shared)
        assert out.flags.c_contiguous
        assert out.tobytes() == integrands[0](dense).tobytes()

    def test_an_overflowing_scale_fails_its_row_alone(self):
        # |x - o|^alpha / Gamma(alpha + 1) past the float range
        f = parse_function("1*(u-0)^0 on [0,1e300]")
        rows = [(2.0, 0.0, 1e300), (2.0, 0.0, 1.0), (0.5, 1e300, 0.0)]
        got = rl_batch_with_error(f, rows, DEFAULT_CONFIG)
        assert isinstance(got[0], OverflowError)
        for (a, o, x), row in zip(rows[1:], got[1:]):
            _assert_same(row, _ref_rl(f, a, o, x, DEFAULT_CONFIG))
        with pytest.raises(OverflowError):
            rl_left_with_error(f, 0.0, 2.0, 1e300)

    @pytest.mark.parametrize(
        "row", [(1.0, 0.0, 2.0), (0.5, -1e-300, 0.5), (1.0, math.nan, 0.5), (2.0, 0.5, math.nan)]
    )
    def test_a_row_outside_the_domain_fails_the_batch(self, u2, row):
        # the integrand skips evaluate's domain scan; the batch checks o and x
        with pytest.raises(DomainError, match=r"outside domain \[0\.0, 1\.0\]"):
            rl_batch_with_error(u2, [(1.0, 0.0, 0.5), row])

    def test_abs_tol_binds_the_scaled_result_past_a_unit_span(self):
        # scales k = |x - o|^alpha / Gamma(alpha + 1) of 8e4 and 1.07e7, and
        # integrals of 1e-11..1e-8, where rel_tol * |J| is under abs_tol: each
        # row's abs_tol is divided by k on [0, 1], so that k times the unit
        # integral's estimate, and its true error, still meet abs_tol
        f = parse_function("1e-20*(u-0)^2 on [0,400]")
        rows = [(2.0, 0.0, 400.0), (3.0, 0.0, 400.0), (3.0, 400.0, 0.0)]
        # J of c*u^2 toward 0 from 400: c * 400^(alpha + 2) / ((alpha + 2) Gamma(alpha))
        right = 1e-20 * 400.0**5 / (5.0 * math.gamma(3.0))
        exact = [
            rl_power_rule_oracle(f.terms[0], 0.0, 2.0, 400.0),
            rl_power_rule_oracle(f.terms[0], 0.0, 3.0, 400.0),
            right,
        ]
        cfg = DEFAULT_CONFIG
        got = rl_batch_with_error(f, rows, cfg)
        for (alpha, o, x), row, want in zip(rows, got, exact):
            _assert_same(row, _ref_rl(f, alpha, o, x, cfg))
            value, err = row
            assert abs(x - o) ** alpha / math.gamma(alpha + 1.0) > 1e4
            assert cfg.rel_tol * abs(value) < cfg.abs_tol
            assert err <= cfg.abs_tol
            assert abs(value - want) <= cfg.abs_tol

    def test_an_abs_tol_that_underflows_past_the_scale_is_floored(self):
        # abs_tol 1e-300 over k = 500^30 / Gamma(31) is below the smallest
        # float; the row then integrates to rel_tol, as the default config's
        # does, where it was refused as a non-positive tolerance
        f = parse_function("1*(u-0)^2 on [0,1000]")
        cfg = QuadratureConfig(abs_tol=1e-300)
        assert cfg.abs_tol / (500.0**30 / math.gamma(31.0)) == 0.0
        inst = ProblemInstance(f, 0.0, 1000.0, 500.0, 30.0, 1.0)
        assert identity_lhs_with_error(inst, cfg) == identity_lhs_with_error(inst)
        assert identity_lhs_with_error(inst, cfg) == (4.647224540616878e83, 3.627780725979956e73)
        assert rl_left_with_error(f, 0.0, 30.0, 500.0, cfg) == rl_left_with_error(f, 0.0, 30.0, 500.0)
        assert rl_right_with_error(f, 1000.0, 30.0, 500.0, cfg) == rl_right_with_error(
            f, 1000.0, 30.0, 500.0
        )

    @LOOPS
    def test_a_row_turning_nan_fails_alone(self, width):
        rows, tols = _pad(
            [_kinked(0.7), _kinked(0.3), EXACT_CASES["oscillatory"][0]], DEFAULT_CONFIG, width
        )
        tols[2] = 1e-15
        calls = []

        def fn(v):
            calls.append(v.size)
            out = _by_row(rows)(v)
            if len(calls) >= 3 and 1 in v.rows:
                out[v.rows.index(1)] = math.nan
            return out

        got = integrate_adaptive(fn, 0.0, 1.0, DEFAULT_CONFIG, tols)
        assert isinstance(got[1], QuadratureToleranceError)
        assert "non-finite value" in str(got[1])
        assert got[0] == _ref_integrate(rows[0], 0.0, 1.0)
        assert got[2] == _ref_integrate(rows[2], 0.0, 1.0, replace(DEFAULT_CONFIG, abs_tol=1e-15))
        assert got[3:] == [_ref_integrate(_square, 0.0, 1.0)] * (len(rows) - 3)
        assert len(calls) > 3  # the other rows went on refining

    @LOOPS
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_opposite_infinities_fail_their_row_without_a_warning(self, width):
        # the second call returns +inf on the left half of row 0's split
        # panel and -inf on the right, so the row's new total is inf - inf:
        # the heap loop's Python floats give NaN without a warning, and the
        # table's arrays must do the same
        def batch(width):
            rows, tols = _pad([_kinked(0.3)], DEFAULT_CONFIG, width)
            calls = []

            def fn(v):
                calls.append(v.rows)
                out = _by_row(rows)(v)
                if len(calls) == 2:
                    u = np.asarray(v[0])
                    out[0] = np.where(u < 0.5 * (u.min() + u.max()), math.inf, -math.inf)
                return out

            return integrate_adaptive(fn, 0.0, 1.0, DEFAULT_CONFIG, tols), calls

        (bad, *rest), calls = batch(width)
        assert isinstance(bad, QuadratureToleranceError) and math.isnan(bad.value)
        assert "non-finite value" in str(bad)
        assert len(calls) == 2
        assert _bits(bad) == _bits(batch(0)[0][0])
        assert rest == [_ref_integrate(_square, 0.0, 1.0)] * max(width - 1, 0)

    @LOOPS
    def test_rows_keep_their_own_tolerance(self, width):
        # one rel_tol so small that each row's abs_tol decides
        cfg = QuadratureConfig(rel_tol=1e-300)
        rows, tols = _pad([_kinked(0.3), _kinked(2.5)], cfg, width)
        tols[1] = 1e-15
        shapes = []

        def fn(v):
            shapes.append((list(v.rows), v.shape))
            return _by_row(rows)(v)

        got = integrate_adaptive(fn, 0.0, 1.0, cfg, tols)
        assert got == [
            _ref_integrate(g, 0.0, 1.0, replace(cfg, abs_tol=t)) for g, t in zip(rows, tols)
        ]
        assert got[1] != _ref_integrate(rows[1], 0.0, 1.0, cfg)
        assert shapes[0] == (list(range(len(rows))), (len(rows), 3 * 15))
        assert all(shape == (len(sel), 4 * 15) for sel, shape in shapes[1:])
        # the tighter row refines on alone once the other has converged
        assert shapes[-1][0] == [1]

    def test_empty_interval_batch(self):
        got = integrate_adaptive(np.sin, 2.0, 2.0, DEFAULT_CONFIG, [1e-12, 1e-15, 1.0])
        assert got == [(0.0, 0.0)] * 3

    @pytest.mark.parametrize("lo,hi", [(0.0, 1.0), (2.0, 2.0)])
    def test_an_empty_batch_is_an_empty_list(self, lo, hi):
        assert integrate_adaptive(np.sin, lo, hi, DEFAULT_CONFIG, []) == []
        assert rl_batch_with_error(parse_function("1*(u-0)^2 on [0,1]"), []) == []

    def test_the_row_count_picks_the_loop(self, monkeypatch):
        tables = []
        real = rlint._refine_table

        def spy(fn, lo, hi, first, *rest):
            tables.append(len(first))
            return real(fn, lo, hi, first, *rest)

        monkeypatch.setattr(rlint, "_refine_table", spy)
        for n in (1, 2, rlint.TABLE_ROWS - 1, rlint.TABLE_ROWS, rlint.TABLE_ROWS + 1):
            got = integrate_adaptive(_by_row([_square] * n), 0.0, 1.0, DEFAULT_CONFIG, [1e-12] * n)
            assert got == [_ref_integrate(_square, 0.0, 1.0)] * n
        assert integrate_adaptive(_square, 0.0, 1.0) == _ref_integrate(_square, 0.0, 1.0)
        assert tables == [rlint.TABLE_ROWS, rlint.TABLE_ROWS + 1]

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(
        st.one_of(
            st.integers(min_value=1, max_value=12),
            st.integers(min_value=rlint.TABLE_ROWS - 4, max_value=rlint.TABLE_ROWS + 40),
        ),
        st.randoms(use_true_random=False),
        st.sampled_from(range(len(MIXED_SPANS))),
        st.sampled_from(range(len(MIXED_CONFIGS))),
    )
    @example(1, random.Random(0), 0, 0)
    @example(rlint.TABLE_ROWS, random.Random(0), 1, len(MIXED_CONFIGS) - 1)
    def test_a_batch_of_any_width_equals_each_row_alone(self, width, rnd, span, cfg):
        # rows that converge at once, refine, spend their budget, turn
        # non-finite or reach a panel at resolution, each under its own
        # abs_tol, on both sides of the width that picks the loop
        picks = [
            (rnd.randrange(len(MIXED_ROWS)), rnd.randrange(len(MIXED_ABS_TOLS)))
            for _ in range(width)
        ]
        _mixed_batch(picks, span, cfg)

    @LOOPS
    def test_a_mixed_batch_reaches_every_verdict(self, width):
        # every mixed row at every abs_tol on the 64-ulp span, under the
        # config whose budget outlasts one noise row and not the other: one
        # batch gives all four verdicts
        picks = [(i, t) for i in range(len(MIXED_ROWS)) for t in range(len(MIXED_ABS_TOLS))]
        picks += [(0, 0)] * (width - len(picks))
        got = _mixed_batch(picks, 1, len(MIXED_CONFIGS) - 1)
        verdicts = [_verdict(row) for row in got]
        assert "converged" in verdicts
        assert None in verdicts  # out of budget
        assert rlint._NON_FINITE in verdicts
        assert AT_RESOLUTION in verdicts

    def test_a_wide_batch_drops_its_finished_rows(self):
        # 199 rows converge on their first panels and one spends 2000
        # splits; a table that kept every row's slots would hold 200 rows x
        # 4096 slots x 16 bytes, 13 MB
        n = 200
        tight = QuadratureConfig(rel_tol=1e-300, abs_tol=1e-300, max_subdivisions=2000)

        def last(u):
            return np.sin(1e3 * u)

        def fn(v):
            u = np.asarray(v)
            out = u * u
            if v.rows[-1] == n - 1:
                out[-1] = last(u[-1])
            return out

        expect = _ref_integrate(_square, 0.0, 1.0, replace(tight, abs_tol=1e-12))
        ref = Counted(last)
        with pytest.raises(QuadratureToleranceError) as spent:
            _ref_integrate(ref, 0.0, 1.0, tight)
        assert ref.calls == 3 + 6 * 2000
        tracemalloc.start()
        try:
            got = integrate_adaptive(fn, 0.0, 1.0, tight, [1e-12] * (n - 1) + [tight.abs_tol])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got[:-1] == [expect] * (n - 1)
        _assert_same(got[-1], spent.value)
        assert peak < 4 * 2**20


WORK_GRID = """\
alphas = 0.5, 1, 2.5
svals = 0.5, 1
xfracs = 0, 0.3, 0.8, 1
qvals = 2
theorems = t21, t22, hh
family.u2 = 1*(u-0)^2 on [0,1]
family.linear = 1*(u-0)^0 + 1*(u-0)^1 on [0,1]
"""


class TestBatchWork:
    @pytest.fixture
    def batches(self, monkeypatch):
        """The row count of each integrate_adaptive call the operators make."""
        rows = []
        real = rlint.integrate_adaptive

        def counted(fn, lo, hi, cfg=DEFAULT_CONFIG, abs_tols=None):
            rows.append(len(abs_tols))
            return real(fn, lo, hi, cfg, abs_tols)

        monkeypatch.setattr(rlint, "integrate_adaptive", counted)
        return rows

    def test_sweep_makes_one_call_per_family(self, batches):
        records = run_sweep(grid_from_config_text(WORK_GRID))
        assert len(records) == 2 * 2 * (1 + 3 * 4 * 2)
        # three alphas, four x each, two sides each, less the zero spans at
        # both ends
        assert batches == [3 * (2 * 4 - 2)] * 2

    def test_a_family_batch_refines_its_rows_together(self, u2, monkeypatch):
        # the rounds of one batch are its slowest row's, not the sum over alphas
        calls = []
        real = rlint.integrate_adaptive

        def counted(fn, lo, hi, cfg, abs_tols):
            def count(v):
                calls.append(len(v.rows))
                return fn(v)

            return real(count, lo, hi, cfg, abs_tols)

        monkeypatch.setattr(rlint, "integrate_adaptive", counted)
        rows = [(a, x, end) for a in (0.5, 1.0, 2.5) for x in (0.3, 0.8) for end in (0.0, 1.0)]
        rl_batch_with_error(u2, rows)
        alone = []
        for row in rows:
            del calls[:]
            rl_batch_with_error(u2, [row])
            alone.append(len(calls))
        del calls[:]
        rl_batch_with_error(u2, rows)
        assert len(calls) == max(alone) < sum(alone)
        assert sum(calls) == sum(alone)

    @pytest.mark.parametrize("x,rows", [(0.4, 2), (0.0, 1), (1.0, 1)])
    def test_identity_makes_one_call_per_instance(self, batches, u2, x, rows):
        identity_lhs_with_error(ProblemInstance(u2, 0.0, 1.0, x, 0.75, 1.0))
        assert batches == [rows]
