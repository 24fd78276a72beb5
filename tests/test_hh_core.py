"""The endpoint identity, the four bounds, their classical forms, the sandwich."""

import functools
import math
import sys
import re

import mpmath
import numpy as np
import pytest

import fracineq.hh_core as hh_core
from fracineq.errors import DomainError, QuadratureToleranceError
from fracineq.funcmodel import FunctionModel, parse_function
from fracineq.hh_core import (
    ALPHA_MIN,
    BOUNDS,
    ProblemInstance,
    TheoremId,
    bound_classical,
    bound_t21,
    bound_t22,
    bound_t23,
    bound_t24,
    c1_c2,
    c3_root,
    _identity_lhs_rows,
    hh_sandwich_with_error,
    identity_lhs_with_error,
    identity_rhs_with_error,
    proof_constants,
    rhs,
    rhs_t21,
    rhs_t22,
    rhs_t23,
    rhs_t24,
)
from fracineq.rlint import QuadratureConfig, integrate_adaptive

# frozen worked-example values; instances spelled out in the tests that use them
T22_RHS = 0.1651399024548925
T23_RHS = 0.14433756729740646
T24_RHS = 0.1971687836487032


class TestProblemInstance:
    def test_conjugate_is_derived(self, u2):
        inst = ProblemInstance(u2, 0.0, 1.0, 0.5, 1.0, 1.0, q=3.0)
        assert inst.p == pytest.approx(1.5, rel=1e-15)

    def test_p_is_not_an_argument(self, u2):
        with pytest.raises(TypeError, match="'p'"):
            ProblemInstance(u2, 0.0, 1.0, 0.5, 1.0, 1.0, p=2.0, q=2.0)
        # the seventh argument is q
        assert ProblemInstance(u2, 0.0, 1.0, 0.5, 1.0, 1.0, 3.0).p == 1.5

    def test_derived_conjugate_is_checked(self, u2):
        # 1e17 - 1 rounds to 1e17, so the derived p is exactly 1
        with pytest.raises(DomainError, match=r"p must satisfy p > 1, got 1\.0"):
            ProblemInstance(u2, 0, 1, 0.5, 1, 1, q=1e17)
        inst = ProblemInstance(u2, 0, 1, 0.5, 1, 1, q=1e15)
        assert inst.p > 1.0

    def test_a_span_past_the_float_range_is_refused(self):
        # b - a = inf: the endpoint weights (b - x)^(alpha + 1)/(b - a) were NaN
        f = parse_function("1*(u--1e308)^1 on [-1e308,1e308]")
        with pytest.raises(DomainError, match="b - a finite"):
            ProblemInstance(f, -1e308, 1e308, -1e308, 1.0, 1.0)
        assert ProblemInstance(f, -1e308, 0.0, -1e308, 1.0, 1.0).b == 0.0

    def test_q_one_has_no_conjugate(self, u2):
        inst = ProblemInstance(u2, 0.0, 1.0, 0.5, 1.0, 1.0, q=1.0)
        assert inst.p is None

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"a": 0.5, "b": 0.5},
            {"x": -0.1},
            {"x": 1.1},
            {"alpha": 0.0},
            {"alpha": -1.0},
            {"s": 0.0},
            {"s": 1.2},
            {"q": 0.5},
            {"b": 2.0},
            # _check_interval reads None as "no x": the instance was built
            {"x": None},
        ],
    )
    def test_rejects_bad_parameters(self, u2, kwargs):
        base = dict(f=u2, a=0.0, b=1.0, x=0.5, alpha=1.0, s=1.0)
        base.update(kwargs)
        with pytest.raises(DomainError):
            ProblemInstance(**base)


class TestProofConstants:
    def test_spot_values(self):
        assert proof_constants(2.0, 1.0, 2.0).c1 == pytest.approx(0.25, rel=1e-15)
        assert proof_constants(1.0, 1.0, 2.0).c2 == pytest.approx(1.0 / 3.0, rel=1e-14)
        assert proof_constants(1.0, 1.0, 2.0).c3 == pytest.approx(1.0 / 3.0, rel=1e-14)

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("s", [0.25, 0.75, 1.0])
    def test_integral_representations(self, alpha, s, tight_cfg):
        # c1, c2, c3 are moments of the kernel weight 1 - t^alpha
        p = 2.0
        c = proof_constants(alpha, s, p)
        i1, _ = integrate_adaptive(
            lambda t: (1.0 - t**alpha) * t**s, 0.0, 1.0, tight_cfg
        )
        i2, _ = integrate_adaptive(
            lambda t: (1.0 - t**alpha) * (1.0 - t) ** s, 0.0, 1.0, tight_cfg
        )
        i3, _ = integrate_adaptive(
            lambda t: (1.0 - t**alpha) ** p, 0.0, 1.0, tight_cfg
        )
        assert c.c1 == pytest.approx(i1, rel=1e-12)
        assert c.c2 == pytest.approx(i2, rel=1e-12)
        assert c.c3 == pytest.approx(i3, rel=1e-12)

    @pytest.mark.parametrize(
        "args",
        [
            (0.0, 1.0, 2.0), (1.0, 0.0, 2.0), (1.0, 1.0, 1.0),
            (1.0, 1.0, math.inf), (1.0, 1.0, math.nan),
        ],
    )
    def test_validation(self, args):
        with pytest.raises(DomainError):
            proof_constants(*args)


class TestAlphaFloor:
    """Below ALPHA_MIN the closed forms of c2 and c3 cancel to noise, so every
    alpha is refused there by one rule; at and above it they hold to 1e-10."""

    @pytest.mark.parametrize("alpha", [1e-300, 1e-17, 1e-6, 9.99e-5])
    def test_one_rule_refuses_below_the_floor(self, u2, alpha):
        message = f"alpha must be at least 0.0001, got {alpha!r}"
        with pytest.raises(DomainError) as inst:
            ProblemInstance(u2, 0.0, 1.0, 0.5, alpha, 1.0)
        with pytest.raises(DomainError) as consts:
            proof_constants(alpha, 1.0, 2.0)
        assert str(inst.value) == str(consts.value) == message

    def test_nan_is_refused_by_the_floor(self):
        with pytest.raises(DomainError, match="alpha must be at least 0.0001, got nan"):
            proof_constants(math.nan, 1.0, 2.0)

    def test_the_floor_itself_is_accepted(self, u2):
        assert ALPHA_MIN == 1e-4
        ProblemInstance(u2, 0.0, 1.0, 0.5, ALPHA_MIN, 1.0)
        assert proof_constants(ALPHA_MIN, 1.0, 2.0).c2 > 0.0

    @pytest.mark.parametrize("alpha", [ALPHA_MIN, 1.5e-4, 1e-3, 1e-2, 0.1, 0.5, 1.0, 3.0, 50.0])
    def test_c2_and_c3_root_against_mpmath(self, alpha):
        # B(alpha+1, s+1) and B(1/alpha, p+1)/alpha at 50 digits, not log-Gamma differences
        worst = 0.0
        with mpmath.workdps(50):
            a = mpmath.mpf(alpha)
            for s in (1e-6, 1e-3, 0.1, 0.25, 0.5, 0.75, 1.0):
                want = 1 / (mpmath.mpf(s) + 1) - mpmath.beta(a + 1, mpmath.mpf(s) + 1)
                for got in (proof_constants(alpha, s, 2.0).c2, c1_c2(alpha, s)[1]):
                    worst = max(worst, float(abs(got - want) / want))
            for p in (1.2, 1.5, 2.0, 3.0, 4.5, 6.0):
                pp = mpmath.mpf(p)
                want = (mpmath.beta(1 / a, pp + 1) / a) ** (1 / pp)
                worst = max(worst, float(abs(c3_root(alpha, p) - want) / want))
        assert worst <= 1e-10

    @pytest.mark.parametrize("alpha", [1e7, 1e8, 1.0000001e8, 1e9, 1e12, 1e17, 1e300, 1e308])
    def test_c1_and_c2_at_huge_orders(self, alpha):
        # log_gamma(alpha + 1) loses the digits of log B(alpha + 1, s + 1)
        # at these orders: c2 came out -0.5 at 1e17 and s = 1; and c1's
        # denominator overflowed at 1e308, giving 0. mpmath's beta needs the
        # digits of log Gamma(alpha) on top of the 50 kept
        with mpmath.workdps(50 + int(math.log10(alpha))):
            a = mpmath.mpf(alpha)
            for s in (5e-324, 1e-3, 0.5, 1.0):
                s1 = mpmath.mpf(s) + 1
                c1, c2 = c1_c2(alpha, s)
                assert c1 == pytest.approx(float(a / (s1 * (a + s1))), rel=1e-15)
                assert c2 == pytest.approx(float(1 / s1 - mpmath.beta(a + 1, s1)), rel=1e-14)

    @pytest.mark.parametrize(
        "alpha,p", [(ALPHA_MIN, 1001.0), (ALPHA_MIN, 1e17), (1e-3, 4.5e15), (2e-3, 2000.0)]
    )
    def test_c3_root_where_c3_underflows(self, alpha, p):
        # c3 is below the normal floats here, and its p-th root is not: the
        # root of the underflowed c3 was 0, and t22 and t24 printed rhs = 0
        with mpmath.workdps(50):
            a, pp = mpmath.mpf(alpha), mpmath.mpf(p)
            want = float((mpmath.beta(1 / a, pp + 1) / a) ** (1 / pp))
        assert proof_constants(alpha, 1.0, p).c3 < sys.float_info.min
        assert c3_root(alpha, p) == pytest.approx(want, rel=1e-10)

    @pytest.mark.parametrize("alpha", [ALPHA_MIN, 1e-2, 0.25, 1.0, 3.0, 50.0, 1e8])
    @pytest.mark.parametrize("p", [1e3, 2e3, 1e4, 1e6, 1e8, 1e12, 1e15, 1e17])
    def test_c3_at_large_p_against_mpmath(self, alpha, p):
        # log Gamma(1 + p) - log Gamma(1 + p + 1/alpha) kept only the last
        # digits of two log-Gammas of about p log p: at alpha = 1, where c3 =
        # 1/(1 + p), c3 was 2.2e-7 off at p = 1e8 and 1.0 at 1e17. From p =
        # 1e3 on, the error of log c3, which is the relative error of c3, is
        # a few ulps of log c3 and of log Gamma(1 + 1/alpha) (8e4 at ALPHA_MIN)
        with mpmath.workdps(50 + int(math.log10(p))):
            a, pp = mpmath.mpf(alpha), mpmath.mpf(p)
            log_c3 = mpmath.log(mpmath.beta(1 / a, pp + 1) / a)
            tol = 1e-15 * (1.0 + float(abs(log_c3) + abs(mpmath.loggamma(1 + 1 / a))))
            c3 = proof_constants(alpha, 1.0, p).c3
            if c3 >= sys.float_info.min:
                assert abs(float(mpmath.log(c3) - log_c3)) <= tol
            # the root's own rounding, and c3's error over p
            root = c3_root(alpha, p)
            assert abs(float(mpmath.log(root) - log_c3 / pp)) <= 4e-16 + tol / p

    def test_c3_at_huge_p_is_one_over_one_plus_p(self):
        for p in (1e8, 1e17):
            assert proof_constants(1.0, 1.0, p).c3 == pytest.approx(1.0 / (1.0 + p), rel=1e-15)


class TestIdentity:
    def test_square_at_order_one(self, u2):
        # boundary average minus the mean integral: 1/2 - 1/3
        inst = ProblemInstance(u2, 0.0, 1.0, 0.5, 1.0, 1.0)
        assert identity_lhs_with_error(inst)[0] == pytest.approx(1.0 / 6.0, rel=1e-10)
        assert identity_rhs_with_error(inst)[0] == pytest.approx(1.0 / 6.0, rel=1e-8)

    @pytest.mark.parametrize("alpha", [0.25, 0.5, 1.0, 1.5, 3.0])
    @pytest.mark.parametrize("x", [0.0, 0.3, 0.5, 1.0])
    def test_residual_vanishes(self, u2, alpha, x):
        inst = ProblemInstance(u2, 0.0, 1.0, x, alpha, 1.0)
        lhs, _ = identity_lhs_with_error(inst)
        rhs, _ = identity_rhs_with_error(inst)
        assert abs(lhs - rhs) <= 1e-9 * (1.0 + abs(lhs))

    @pytest.mark.parametrize("alpha", [0.25, 0.5, 1.0, 1.5, 3.0])
    def test_negated_kernel_is_exact(self, alpha):
        # identity_rhs_with_error writes the b side's 1 - t^alpha as
        # -(t^alpha - 1); IEEE rounding is symmetric under negation
        t = np.random.default_rng(7).random(20_000)
        pw = np.power(t, alpha)
        assert np.array_equal(-1.0 * (pw - 1.0), 1.0 - pw)

    @pytest.mark.parametrize("alpha", [0.25, 0.5, 0.75, 1.0, 2.0, 3.5])
    @pytest.mark.parametrize("x", [0.0, 0.01, 0.3, 0.5, 1.0])
    @pytest.mark.parametrize(
        "cfg",
        [
            QuadratureConfig(),
            QuadratureConfig(max_subdivisions=1),
            QuadratureConfig(rel_tol=1e-13, abs_tol=1e-15),
        ],
        ids=["default", "one-split", "tight"],
    )
    def test_rhs_batch_equals_each_side_alone(self, u15, alpha, x, cfg):
        # the two weighted f' integrals are one batch; each side must equal
        # its own single integral, and a failure raise the a side's first
        a, b = u15.lo, u15.hi
        x = a + x * (b - a)
        fp = u15.derivative()
        total, err, expect = 0.0, 0.0, None
        for end, sign in ((a, 1.0), (b, -1.0)):
            w = abs(x - end) ** (alpha + 1.0) / (b - a)
            if w == 0.0:
                continue
            lo, hi = sorted((x, end))
            try:
                val, e = integrate_adaptive(
                    lambda t: sign
                    * (np.power(t, alpha) - 1.0)
                    * fp.evaluate(np.clip(t * x + (1.0 - t) * end, lo, hi)),
                    0.0, 1.0, cfg,
                )
            except QuadratureToleranceError as exc:
                expect = exc
                break
            total += w * val
            err += w * e
        inst = ProblemInstance(u15, a, b, x, alpha, 1.0)
        if expect is None:
            assert identity_rhs_with_error(inst, cfg) == (total, err)
        else:
            with pytest.raises(QuadratureToleranceError) as got:
                identity_rhs_with_error(inst, cfg)
            assert (got.value.value, got.value.error_estimate, str(got.value)) == (
                expect.value, expect.error_estimate, str(expect),
            )

    def test_a_batch_reads_f_at_a_and_b_in_one_evaluation(self, u15, monkeypatch):
        # one evaluate of [a, b] for the boundary terms, none per endpoint,
        # with the bits of two scalar evaluations
        calls = []
        evaluate = FunctionModel.evaluate

        def counted(self, u):
            calls.append(np.asarray(u).tolist() if np.ndim(u) < 2 else np.shape(u))
            return evaluate(self, u)

        alphas, xs, cfg = (0.5, 2.5), (0.3, 0.6), QuadratureConfig()
        expect = _identity_lhs_rows(u15, 0.0, 1.0, alphas, xs, cfg)
        monkeypatch.setattr(FunctionModel, "evaluate", counted)
        assert _identity_lhs_rows(u15, 0.0, 1.0, alphas, xs, cfg) == expect
        assert calls[0] == [0.0, 1.0]
        assert all(isinstance(c, tuple) for c in calls[1:])
        assert u15.evaluate([0.0, 1.0]).tolist() == [u15.evaluate(0.0), u15.evaluate(1.0)]

    def test_an_empty_batch_is_an_empty_dict(self, u15):
        assert _identity_lhs_rows(u15, 0.0, 1.0, [], [0.5], QuadratureConfig()) == {}

    # d^alpha fits, but d^alpha / Gamma(alpha + 1) as the batch computes it,
    # exp(alpha log d - log Gamma(alpha + 1)), does not: only the J scale overflows
    HUGE = 1.7976931348611825e308
    ALPHA_NEAR_1 = 1.0000000000000009

    @pytest.mark.parametrize(
        "spec, alpha, xs",
        [
            ("1*(u-0)^2 on [0,1000]", 120.0, [250.0, 1000.0]),  # (1000 - 250)^120
            (f"1*(u-0)^0 on [0,{HUGE!r}]", ALPHA_NEAR_1, [HUGE]),
            ("1*(u-0)^2 on [0,1]", 200.0, [0.25, 1.0]),  # Gamma(201)
        ],
        ids=["boundary-term", "j-scale", "gamma-factor"],
    )
    def test_an_alpha_that_overflows_fails_alone(self, spec, alpha, xs):
        f = parse_function(spec)
        got = _identity_lhs_rows(f, f.lo, f.hi, [0.5, alpha], xs, QuadratureConfig())
        assert list(got) == [0.5, alpha]
        assert isinstance(got[alpha], OverflowError)
        assert got[0.5] == [
            identity_lhs_with_error(ProblemInstance(f, f.lo, f.hi, x, 0.5, 1.0)) for x in xs
        ]
        with pytest.raises(OverflowError):
            identity_lhs_with_error(ProblemInstance(f, f.lo, f.hi, xs[0], alpha, 1.0))

    def test_shifted_interval(self):
        f = parse_function("1*(u--1)^2 + 2*(u-0)^1 on [1,3]")
        inst = ProblemInstance(f, 1.0, 3.0, 1.8, 0.75, 1.0)
        lhs, _ = identity_lhs_with_error(inst)
        rhs, _ = identity_rhs_with_error(inst)
        assert abs(lhs - rhs) <= 1e-9 * (1.0 + abs(lhs))


class TestBoundsFrozen:
    def test_t21(self, u2_half):
        inst = ProblemInstance(u2_half, 0.0, 1.0, 0.5, 1.0, 1.0)
        r = bound_t21(inst, samples=2000)
        assert r.lhs == pytest.approx(1.0 / 12.0, rel=1e-9)
        assert r.rhs == pytest.approx(0.125, rel=1e-12)
        assert r.certification.verdict
        assert r.margin == r.rhs - r.lhs
        assert r.ratio == r.lhs / r.rhs
        assert r.theorem_id is TheoremId.T21

    def test_t22(self, u2_half):
        inst = ProblemInstance(u2_half, 0.0, 1.0, 0.5, 1.0, 1.0, q=2.0)
        r = bound_t22(inst, samples=2000)
        assert r.rhs == pytest.approx(T22_RHS, rel=1e-12)
        assert r.certification.verdict
        assert r.margin > 0.0

    def test_t23(self, u2_half):
        inst = ProblemInstance(u2_half, 0.0, 1.0, 0.5, 1.0, 1.0, q=2.0)
        r = bound_t23(inst, samples=2000)
        assert r.rhs == pytest.approx(T23_RHS, rel=1e-12)
        assert r.certification.verdict
        assert r.margin > 0.0

    def test_t24(self, u15):
        # |f'|^2 = u is linear, hence 1-concave
        inst = ProblemInstance(u15, 0.0, 1.0, 0.5, 1.0, 1.0, q=2.0)
        r = bound_t24(inst, samples=2000)
        assert r.lhs == pytest.approx(1.0 / 15.0, rel=1e-7)
        assert r.rhs == pytest.approx(T24_RHS, rel=1e-12)
        assert r.certification.verdict

    def test_t22_requires_q(self, u2):
        inst = ProblemInstance(u2, 0.0, 1.0, 0.5, 1.0, 1.0)
        with pytest.raises(DomainError):
            bound_t22(inst, samples=200)


class TestRightSideQRules:
    @pytest.mark.parametrize(
        "rhs,q,message",
        [
            (rhs_t22, None, "the Holder-split bound requires the exponent q"),
            (rhs_t23, None, "the power-mean bound requires the exponent q"),
            (rhs_t24, None, "the concave midpoint bound requires the exponent q"),
            (rhs_t22, 1.0, "the Holder-split bound requires q > 1, got 1.0"),
            (rhs_t24, 1.0, "the concave midpoint bound requires q > 1, got 1.0"),
            (functools.partial(rhs, TheoremId.C14), None, "c14 requires the exponent q"),
            (functools.partial(rhs, TheoremId.C15), None, "c15 requires the exponent q"),
            (functools.partial(rhs, TheoremId.C16), None, "c16 requires the exponent q"),
            (functools.partial(rhs, TheoremId.C14), 1.0, "c14 requires q > 1, got 1.0"),
            (functools.partial(rhs, TheoremId.C16), 1.0, "c16 requires q > 1, got 1.0"),
        ],
    )
    def test_q_errors_name_the_bound(self, u2, rhs, q, message):
        inst = ProblemInstance(u2, 0.0, 1.0, 0.5, 1.0, 1.0, q=q)
        with pytest.raises(DomainError, match=re.escape(message)):
            rhs(inst)

    def test_first_power_needs_no_q_and_power_mean_takes_one(self, u2):
        no_q = ProblemInstance(u2, 0.0, 1.0, 0.5, 1.0, 1.0)
        q_one = ProblemInstance(u2, 0.0, 1.0, 0.5, 1.0, 1.0, q=1.0)
        assert rhs_t23(q_one) == rhs_t21(no_q) > 0.0


class TestBoundsHold:
    @pytest.mark.parametrize("alpha", [0.25, 0.5, 1.0, 2.0, 3.0])
    @pytest.mark.parametrize("x", [0.1, 0.5, 0.9])
    def test_first_power_and_holder_margins(self, u2, alpha, x):
        inst = ProblemInstance(u2, 0.0, 1.0, x, alpha, 0.5, q=2.0)
        for bound in (bound_t21, bound_t22, bound_t23):
            r = bound(inst, samples=2000)
            assert r.certification.verdict
            assert r.margin >= -1e-9 * (1.0 + r.rhs)

    def test_uncertified_hypothesis_is_flagged(self, u2):
        # |f'|^2 = 4u^2 is convex, so the concave-side bound must not certify
        inst = ProblemInstance(u2, 0.0, 1.0, 0.5, 1.0, 0.5, q=2.0)
        r = bound_t24(inst, samples=2000)
        assert not r.certification.verdict
        assert r.certification.worst_violation > 1e-3


class TestClassicalReduction:
    @pytest.mark.parametrize(
        "fractional,classical",
        [
            (bound_t21, TheoremId.C13),
            (bound_t22, TheoremId.C14),
            (bound_t23, TheoremId.C15),
            (bound_t24, TheoremId.C16),
        ],
    )
    @pytest.mark.parametrize(
        "spec,x,q",
        [
            ("0.5*(u-0)^2 on [0,1]", 0.5, 2.0),
            ("1*(u-0)^2 on [0,1]", 0.3, 1.5),
            ("1*(u-0)^1 + 0.25*(u-0)^2 on [0,1]", 0.7, 3.0),
        ],
    )
    def test_alpha_one_reduction(self, fractional, classical, spec, x, q):
        f = parse_function(spec)
        inst = ProblemInstance(f, 0.0, 1.0, x, 1.0, 1.0, q=q)
        frac = fractional(inst, samples=512)
        clas = bound_classical(classical, inst, samples=512)
        assert clas.rhs == pytest.approx(frac.rhs, rel=1e-12)
        assert clas.lhs == frac.lhs

    def test_requires_alpha_one(self, u2):
        inst = ProblemInstance(u2, 0.0, 1.0, 0.5, 2.0, 1.0, q=2.0)
        with pytest.raises(DomainError):
            bound_classical(TheoremId.C13, inst, samples=200)

    def test_rejects_fractional_ids(self, u2):
        inst = ProblemInstance(u2, 0.0, 1.0, 0.5, 1.0, 1.0)
        with pytest.raises(DomainError):
            bound_classical(TheoremId.T21, inst, samples=200)

    def test_classical_path_calls_no_fractional_helper(self, u2, monkeypatch):
        def forbidden(*args):
            raise AssertionError("a classical formula reached a fractional helper")

        for name in (
            "_c1", "_c2", "_log_c3", "log_gamma", "c1_c2", "c3_root",
            "bound_weights", "_deriv_table",
        ):
            monkeypatch.setattr(hh_core, name, forbidden)
        inst = ProblemInstance(u2, 0.0, 1.0, 0.3, 1.0, 0.5, q=2.0)
        for tid in (TheoremId.C13, TheoremId.C14, TheoremId.C15, TheoremId.C16):
            assert rhs(tid, inst) > 0.0


class TestOneBoundBody:
    @pytest.mark.parametrize("tid", list(BOUNDS), ids=lambda t: t.value)
    def test_bound_equals_the_named_evaluator(self, u2, tid):
        inst = ProblemInstance(u2, 0.0, 1.0, 0.3, 1.0, 0.5, q=2.0)
        named = {
            TheoremId.T21: bound_t21, TheoremId.T22: bound_t22,
            TheoremId.T23: bound_t23, TheoremId.T24: bound_t24,
        }.get(tid, functools.partial(bound_classical, tid))
        got = hh_core.bound(tid.value, inst, samples=256)
        want = named(inst, samples=256)
        assert got.theorem_id is tid
        assert (got.lhs, got.rhs, got.certification) == (want.lhs, want.rhs, want.certification)
        assert got.rhs == rhs(tid, inst)

    @pytest.mark.parametrize("tid", list(BOUNDS), ids=lambda t: t.value)
    def test_f_is_differentiated_once(self, u2, monkeypatch, tid):
        calls = []
        derivative = FunctionModel.derivative

        def counted(self):
            calls.append(self)
            return derivative(self)

        monkeypatch.setattr(FunctionModel, "derivative", counted)
        inst = ProblemInstance(u2, 0.0, 1.0, 0.3, 1.0, 0.5, q=2.0)
        hh_core.bound(tid, inst, samples=256)
        assert calls == [u2]

    def test_sandwich_id_is_not_a_bound(self, u2):
        inst = ProblemInstance(u2, 0.0, 1.0, 0.3, 1.0, 0.5)
        with pytest.raises(DomainError, match="HH11 is not a bound id"):
            hh_core.bound(TheoremId.HH11, inst)
        with pytest.raises(DomainError, match="expects one of C13..C16"):
            bound_classical(TheoremId.HH11, inst)


class TestDerivTable:
    @pytest.mark.parametrize(
        "spec, a, b",
        [
            ("1*(u-0)^2 on [0,1]", 0.0, 1.0),
            ("1*(u-0)^0.5 on [0.25,0.75]", 0.25, 0.75),
            ("1*(u-0)^1 + 2*(u-0.5)^3 on [0,2]", 0.5, 2.0),
        ],
    )
    @pytest.mark.parametrize("xs", [[0.5], [0.0, 0.5, 1.0]], ids=["one-x", "ends-and-mid"])
    def test_every_x_reads_its_five_points_in_one_evaluation(self, spec, a, b, xs, monkeypatch):
        fp = parse_function(spec).derivative()
        xs = [a + t * (b - a) for t in xs]
        calls = []
        evaluate = FunctionModel.evaluate

        def counted(self, u):
            calls.append(np.size(u))
            return evaluate(self, u)

        monkeypatch.setattr(FunctionModel, "evaluate", counted)
        table, got = hh_core._deriv_table(fp, a, b, xs)
        # the certificates' 14 points, then each x and both its midpoints
        assert calls == [14 + 3 * len(xs)] and table.values.size == calls[0]
        monkeypatch.undo()
        for x, d in zip(xs, got):
            points = (x, a, b, 0.5 * (x + a), 0.5 * (x + b))
            assert d == tuple(abs(fp.evaluate(u)) for u in points)
            assert not any(math.isnan(v) for v in d)


class TestPowerMeanDegeneracy:
    @pytest.mark.parametrize(
        "spec,alpha,x,s",
        [
            ("0.5*(u-0)^2 on [0,1]", 1.0, 0.5, 1.0),
            ("1*(u-0)^2 on [0,1]", 0.5, 0.3, 0.5),
            ("1*(u-0)^1 + 1*(u-0)^2 on [0,1]", 2.0, 0.8, 0.75),
        ],
    )
    def test_q_one_collapses_bitwise_to_first_power(self, spec, alpha, x, s):
        f = parse_function(spec)
        inst = ProblemInstance(f, 0.0, 1.0, x, alpha, s, q=1.0)
        r23 = bound_t23(inst, samples=1000)
        r21 = bound_t21(inst, samples=1000)
        assert r23.rhs == r21.rhs
        assert r23.lhs == r21.lhs


class TestSandwich:
    def test_sharpness_witness(self, sqrtu, tight_cfg):
        # f = u^s with s = 1/2: the endpoint-average side is an equality
        (left, mid, right), err = hh_sandwich_with_error(
            sqrtu, 0.0, 1.0, 0.5, tight_cfg
        )
        assert left == pytest.approx(0.5, rel=1e-12)
        assert right == pytest.approx(2.0 / 3.0, rel=1e-15)
        assert abs(mid / right - 1.0) <= 1e-10
        assert err <= 1e-10

    def test_classical_convex_case(self, u2):
        (left, mid, right), _ = hh_sandwich_with_error(u2, 0.0, 1.0, 1.0)
        assert left == pytest.approx(0.25, rel=1e-15)
        assert mid == pytest.approx(1.0 / 3.0, rel=1e-10)
        assert right == pytest.approx(0.5, rel=1e-15)
        assert left <= mid <= right

    @pytest.mark.parametrize("s", [0.25, 0.5, 0.75, 1.0])
    def test_holds_for_smooth_convex_families(self, u2, linear, s):
        for f in (u2, linear):
            (left, mid, right), _ = hh_sandwich_with_error(f, 0.0, 1.0, s)
            band = 1e-9 * (1.0 + abs(right))
            assert left <= mid + band
            assert mid <= right + band

    def test_validation(self, u2):
        with pytest.raises(DomainError):
            hh_sandwich_with_error(u2, 0.0, 1.0, 0.0)
        with pytest.raises(DomainError):
            hh_sandwich_with_error(u2, 0.8, 0.2, 0.5)
        with pytest.raises(DomainError):
            hh_sandwich_with_error(u2, 0.0, 1.5, 0.5)

    def test_limits_whose_sum_overflows(self):
        # the midpoint is 0.5*a + 0.5*b: 0.5*(a + b) would be inf, outside [a, b]
        f = parse_function("1*(u-0)^0 + 1e-308*(u-0)^1 on [1e308,1.7e308]")
        (left, mid, right), _ = hh_sandwich_with_error(f, 1e308, 1.7e308, 1.0)
        # f is affine, so all three are f at the midpoint 1.35e308: 2.35
        assert left == pytest.approx(2.35, rel=1e-15)
        assert mid == pytest.approx(2.35, rel=1e-12)
        assert right == pytest.approx(2.35, rel=1e-15)
