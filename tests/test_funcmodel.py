"""Function specs: grammar, evaluation, differentiation, convexity certifier."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracineq import funcmodel
from fracineq.errors import DerivativeSingularityError, DomainError, ParseError
from fracineq.funcmodel import (
    CERT_SAMPLES,
    CERT_TOL,
    CertificationReport,
    FunctionModel,
    PowerTerm,
    certify_model,
    certify_pointwise,
    parse_function,
)

SQRT2_MINUS_1 = 0.41421356237309515  # worst s = 1/2 concavity violation of g = 1


class TestParse:
    def test_single_term(self):
        f = parse_function("1*(u-0)^2 on [0,1]")
        assert f.terms == (PowerTerm(1.0, 0.0, 2.0),)
        assert (f.lo, f.hi) == (0.0, 1.0)

    def test_multi_term_and_whitespace(self):
        f = parse_function("  2.5 * ( u - 0.5 ) ^ 1  +  -1e-2*(u--3)^0 on [ 1 , 4 ] ")
        assert f.terms == (PowerTerm(2.5, 0.5, 1.0), PowerTerm(-0.01, -3.0, 0.0))
        assert (f.lo, f.hi) == (1.0, 4.0)

    def test_render_normalizes(self):
        f = parse_function("1*(u-0)^2 on [0,1]")
        assert f.render() == "1.0*(u-0.0)^2.0 on [0.0,1.0]"

    @pytest.mark.parametrize(
        "text,position",
        [
            ("", 0),
            ("x", 0),
            ("1*(v-0)^2 on [0,1]", 3),
            ("1*(u-0)^2", 9),
            ("1*(u-0)^2 on [0,1] extra", 19),
        ],
    )
    def test_errors_carry_positions(self, text, position):
        with pytest.raises(ParseError) as exc:
            parse_function(text)
        assert exc.value.position == position

    def test_negative_exponent_rejected(self):
        with pytest.raises(DomainError):
            parse_function("1*(u-0)^-2 on [0,1]")

    def test_inverted_interval_rejected(self):
        with pytest.raises(DomainError):
            parse_function("1*(u-0)^2 on [1,0]")

    def test_fractional_power_needs_shift_at_or_below_lo(self):
        with pytest.raises(DomainError):
            parse_function("1*(u-0.5)^0.5 on [0,1]")


_EXPONENTS = st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0])
_COEFFS = st.floats(
    allow_nan=False, allow_infinity=False, min_value=-1e6, max_value=1e6
)


@st.composite
def _models(draw):
    lo = draw(st.floats(min_value=-100.0, max_value=100.0, allow_nan=False))
    hi = lo + draw(st.floats(min_value=1e-3, max_value=100.0))
    n = draw(st.integers(min_value=1, max_value=4))
    terms = tuple(
        PowerTerm(
            draw(_COEFFS),
            lo - draw(st.floats(min_value=0.0, max_value=50.0, allow_nan=False)),
            draw(_EXPONENTS),
        )
        for _ in range(n)
    )
    return FunctionModel(terms, lo, hi)


class TestRoundTrip:
    @settings(max_examples=200, deadline=None)
    @given(_models())
    def test_render_then_parse_is_identity(self, f):
        assert parse_function(f.render()) == f


class TestEvaluate:
    def test_scalar_and_vector_agree(self, u2):
        us = np.linspace(0.0, 1.0, 17)
        vec = u2.evaluate(us)
        assert vec.shape == us.shape
        for u, v in zip(us, vec):
            assert u2.evaluate(float(u)) == v

    def test_scalar_input_returns_float(self, u2):
        out = u2.evaluate(0.5)
        assert isinstance(out, float)
        assert out == 0.25

    def test_outside_domain_raises(self, u2):
        with pytest.raises(DomainError):
            u2.evaluate(1.5)
        with pytest.raises(DomainError):
            u2.evaluate(np.array([0.25, -0.1]))

    def test_nan_points_raise(self, u2):
        with pytest.raises(DomainError):
            u2.evaluate(math.nan)
        with pytest.raises(DomainError):
            u2.evaluate(np.array([0.25, math.nan, 0.75]))

    def test_empty_array_evaluates(self, u2):
        out = u2.evaluate(np.array([]))
        assert isinstance(out, np.ndarray) and out.shape == (0,)

    def test_negative_exponent_terms_evaluate(self):
        # allowed when the pole sits strictly left of the domain
        f = FunctionModel((PowerTerm(1.0, -1.0, -0.5),), 0.0, 1.0)
        assert f.evaluate(0.0) == pytest.approx(1.0, rel=1e-15)
        assert f.evaluate(3.0 - 2.0) == pytest.approx(2.0**-0.5, rel=1e-15)


class TestValidation:
    def test_nan_coefficient_rejected(self):
        with pytest.raises(DomainError):
            PowerTerm(math.nan, 0.0, 1.0)

    def test_negative_exponent_needs_shift_strictly_left(self):
        with pytest.raises(DomainError):
            FunctionModel((PowerTerm(1.0, 0.0, -1.0),), 0.0, 1.0)

    def test_with_domain_checks_bounds(self, u2):
        narrowed = u2.with_domain(0.25, 0.75)
        assert (narrowed.lo, narrowed.hi) == (0.25, 0.75)
        with pytest.raises(DomainError):
            u2.with_domain(0.75, 0.25)


class TestDerivative:
    def test_power_rule(self, u2):
        fp = u2.derivative()
        assert fp.terms == (PowerTerm(2.0, 0.0, 1.0),)

    def test_constant_derivative_keeps_canonical_zero_term(self, const1):
        fp = const1.derivative()
        assert len(fp.terms) == 1
        assert fp.terms[0].coeff == 0.0
        assert fp.evaluate(0.5) == 0.0

    @pytest.mark.parametrize(
        "spec",
        [
            "1*(u-0)^2 on [0,1]",
            "1*(u-0)^0 + 1*(u-0)^1 on [0,1]",
            "2*(u--1)^2.5 + -0.5*(u--2)^3 on [0,1]",
        ],
    )
    def test_matches_central_difference(self, spec):
        f = parse_function(spec)
        fp = f.derivative()
        h = 1e-6 * (f.hi - f.lo)
        for u in np.linspace(f.lo + 0.05, f.hi - 0.05, 7):
            numeric = (f.evaluate(u + h) - f.evaluate(u - h)) / (2.0 * h)
            assert fp.evaluate(float(u)) == pytest.approx(numeric, rel=1e-7, abs=1e-9)

    def test_singular_derivative_raises(self, sqrtu):
        assert sqrtu.has_singular_derivative
        with pytest.raises(DerivativeSingularityError):
            sqrtu.derivative()

    def test_shrinking_the_domain_unlocks_differentiation(self, sqrtu):
        moved = sqrtu.with_domain(1e-9, 1.0)
        fp = moved.derivative()
        assert fp.evaluate(0.25) == pytest.approx(1.0, rel=1e-12)

    def test_smooth_families_are_not_flagged(self, u2, u15, linear):
        assert not u2.has_singular_derivative
        assert not u15.has_singular_derivative
        assert not linear.has_singular_derivative


def _lattice_worst(fn, lo, hi, s, mode, n=61):
    """Exhaustive worst violation over an n^3 lattice, the test-side oracle."""
    pts = np.linspace(lo, hi, n)
    lam = np.linspace(0.0, 1.0, n)
    x, y, w = np.meshgrid(pts, pts, lam, indexing="ij")
    mix = np.clip(w * x + (1.0 - w) * y, lo, hi)
    combo = w**s * fn(x) + (1.0 - w) ** s * fn(y)
    viol = fn(mix) - combo if mode == "convex" else combo - fn(mix)
    return float(viol.max())


def _certify_f(g, s, mode, **kw):
    return certify_model(g, "f", None, g.lo, g.hi, s, mode, **kw)


class TestCertify:
    def test_sqrt_is_half_convex(self, sqrtu):
        report = _certify_f(sqrtu, 0.5, "convex")
        assert report.verdict
        assert report.kind == "proved"

    def test_sqrt_fails_above_its_order(self, sqrtu):
        report = _certify_f(sqrtu, 0.75, "convex")
        assert not report.verdict
        assert report.kind == "refuted"
        assert report.worst_violation > 1e-3

    def test_constant_is_never_s_concave_below_one(self, const1):
        report = _certify_f(const1, 0.5, "concave")
        assert not report.verdict
        assert report.kind == "refuted"
        assert report.worst_violation == SQRT2_MINUS_1
        assert report.witness == (0.0, 0.0, 0.5)

    def test_constant_is_one_concave(self, const1):
        report = _certify_f(const1, 1.0, "concave")
        assert report.verdict
        assert report.kind == "proved"

    def test_square_is_convex_not_concave(self, u2):
        assert certify_pointwise(u2.evaluate, 0.0, 1.0, 1.0, "convex").verdict
        assert not certify_pointwise(u2.evaluate, 0.0, 1.0, 1.0, "concave").verdict

    @pytest.mark.parametrize(
        "spec,s,mode",
        [
            ("1*(u-0)^0.5 on [0,1]", 0.5, "convex"),
            ("1*(u-0)^0.5 on [0,1]", 0.75, "convex"),
            ("1*(u-0)^0 on [0,1]", 0.5, "concave"),
            ("1*(u-0)^2 on [0,1]", 1.0, "convex"),
            ("1*(u-0)^2 on [0,1]", 0.5, "concave"),
            ("1*(u-0)^0 + 1*(u-0)^1 on [0,1]", 1.0, "convex"),
        ],
    )
    def test_verdict_matches_lattice_oracle(self, spec, s, mode):
        f = parse_function(spec)
        worst = _lattice_worst(f.evaluate, f.lo, f.hi, s, mode)
        report = certify_pointwise(f.evaluate, f.lo, f.hi, s, mode)
        assert report.verdict == (worst <= CERT_TOL * 2.0)
        if not report.verdict:
            # sampled search should land close to the exhaustive maximum
            assert report.worst_violation >= 0.5 * worst

    def test_witness_reproduces_reported_violation(self, u2):
        report = certify_pointwise(u2.evaluate, 0.0, 1.0, 0.5, "concave")
        x, y, lam = report.witness
        mix = min(max(lam * x + (1.0 - lam) * y, 0.0), 1.0)
        combo = lam**0.5 * u2.evaluate(x) + (1.0 - lam) ** 0.5 * u2.evaluate(y)
        assert combo - u2.evaluate(mix) == pytest.approx(
            report.worst_violation, rel=1e-12, abs=1e-15
        )

    def test_same_seed_same_report(self, u15):
        a = certify_pointwise(u15.evaluate, 0.0, 1.0, 0.5, "convex", 4000, seed=3)
        b = certify_pointwise(u15.evaluate, 0.0, 1.0, 0.5, "convex", 4000, seed=3)
        assert a == b

    def test_invalid_mode_rejected(self, u2):
        with pytest.raises(DomainError):
            certify_pointwise(u2.evaluate, 0.0, 1.0, 0.5, "sideways")
        with pytest.raises(DomainError, match="mode"):
            _certify_f(u2, 0.5, "sideways")

    def test_invalid_s_rejected(self, u2):
        with pytest.raises(DomainError):
            certify_pointwise(u2.evaluate, 0.0, 1.0, 0.0, "convex")
        with pytest.raises(DomainError):
            certify_pointwise(u2.evaluate, 0.0, 1.0, 1.5, "convex")
        with pytest.raises(DomainError, match="s must lie"):
            _certify_f(u2, 1.5, "convex")


def _mp_g(g_source, target, q, u):
    """g at u in 50-digit arithmetic, from the model's terms."""
    with mpmath.workdps(50):
        u = mpmath.mpf(u)
        val = mpmath.fsum(
            mpmath.mpf(t.coeff) * (u - mpmath.mpf(t.shift)) ** mpmath.mpf(t.exponent)
            for t in g_source.terms
        )
        if target != "f":
            val = abs(val)
        return val ** mpmath.mpf(q) if target == "abs_deriv_pow" else val


def mp_violation(report, g_source, target, q):
    """The report's witness violation recomputed in 50-digit arithmetic."""
    x, y, lam = report.witness
    with mpmath.workdps(50):
        x, y, lam, s = (mpmath.mpf(v) for v in (x, y, lam, report.s))
        mix = lam * x + (1 - lam) * y
        combo = lam**s * _mp_g(g_source, target, q, x) + (1 - lam) ** s * _mp_g(
            g_source, target, q, y
        )
        gm = _mp_g(g_source, target, q, mix)
        return gm - combo if report.mode == "convex" else combo - gm


class TestCertifyModel:
    """Rules decide what they can, then the boundary triples, then the sampler."""

    def test_false_pass_shape_is_sampled_never_proved(self):
        # |f'| = 0.8*1.243 u^0.243 + 1.8 u^0.8 at s = 0.433, the shape of a
        # deep_quadrature family: the u^0.243 term is not 0.433-convex near 0
        f = parse_function("0.8*(u-0)^1.243 + 1*(u-0)^1.8 on [0,1]")
        fp = f.derivative()
        report = certify_model(fp, "abs_deriv", None, 0.0, 1.0, 0.433, "convex")
        assert report.kind == "sampled"
        assert report.samples == CERT_SAMPLES + 12
        # the sampler passes it, yet y = 0 with a small lambda refutes it:
        # a false pass, which only the kind keeps from reading as a proof
        assert report.verdict
        witness = CertificationReport(
            False, 0.0, (1.0, 0.0, 1e-6), 1, 0.433, "convex", 0, 0.0, "refuted"
        )
        assert mp_violation(witness, fp, "abs_deriv", None) > 1e-2

    def test_exact_boundary(self):
        f = parse_function("0.6666666666666666*(u-0)^1.5 on [0.01,1]")  # upow_s050
        fp = f.derivative()
        at = certify_model(fp, "abs_deriv", None, f.lo, f.hi, 0.5, "convex")
        assert at.kind == "proved" and at.verdict
        assert at.samples == 0 and at.witness is None
        above = np.nextafter(0.5, 1.0)
        past = certify_model(fp, "abs_deriv", None, f.lo, f.hi, above, "convex")
        assert past.kind == "sampled"

    def test_power_of_one_term_uses_the_exact_product(self):
        # r*q = 0.25*3 = 0.75 proves s = 0.75 but not the next float up
        fp = parse_function("1*(u-0)^0.25 on [0.01,1]")
        assert certify_model(fp, "abs_deriv_pow", 3.0, 0.01, 1.0, 0.75, "convex").kind == "proved"
        up = np.nextafter(0.75, 1.0)
        assert certify_model(fp, "abs_deriv_pow", 3.0, 0.01, 1.0, up, "convex").kind == "sampled"
        # the float product 0.1*3 rounds up past the exact product of the floats
        fp = parse_function("1*(u-0)^0.1 on [0.01,1]")
        rounded = 0.1 * 3.0
        assert certify_model(fp, "abs_deriv_pow", 3.0, 0.01, 1.0, rounded, "convex").kind == "sampled"
        below = np.nextafter(rounded, 0.0)
        assert certify_model(fp, "abs_deriv_pow", 3.0, 0.01, 1.0, below, "convex").kind == "proved"

    def test_convex_derivative_to_a_power_is_proved(self):
        fp = parse_function("1*(u-0)^0 + 2*(u-0)^1.5 on [0,1]")
        report = certify_model(fp, "abs_deriv_pow", 2.0, 0.0, 1.0, 0.3, "convex")
        assert report.kind == "proved"
        mixed = parse_function("1*(u-0)^0.5 + 2*(u-0)^1.5 on [0,1]")
        assert certify_model(mixed, "abs_deriv_pow", 2.0, 0.0, 1.0, 0.3, "convex").kind == "sampled"

    def test_negative_derivative_is_proved_through_its_absolute_value(self):
        fp = parse_function("-2*(u-0)^1 on [0,1]")
        assert certify_model(fp, "abs_deriv", None, 0.0, 1.0, 0.5, "convex").kind == "proved"
        # f itself is then concave, so no rule proves it convex
        assert certify_model(fp, "f", None, 0.0, 1.0, 0.5, "convex").kind == "refuted"

    def test_mixed_signs_and_high_shifts_are_sampled(self):
        mixed = parse_function("1*(u-0)^2 + -1*(u-0)^1 on [0,1]")
        assert certify_model(mixed, "abs_deriv", None, 0.0, 1.0, 1.0, "convex").kind == "refuted"
        shifted = parse_function("1*(u-0.5)^2 on [0,1]")
        assert certify_model(shifted, "f", None, 0.0, 1.0, 1.0, "convex").kind == "sampled"
        # a decreasing term: the largest endpoint value need not bound g, so
        # no rule refutes it concave; the boundary triples do
        falling = FunctionModel((PowerTerm(1.0, -1.0, -1.0),), 0.0, 1.0)
        report = certify_model(falling, "abs_deriv", None, 0.0, 1.0, 0.5, "concave")
        assert report.kind == "refuted" and not report.verdict

    def test_concave_below_one_refutes_at_the_largest_endpoint(self, u2):
        report = certify_model(u2, "f", None, 0.0, 1.0, 0.5, "concave")
        assert report.kind == "refuted" and not report.verdict
        assert report.witness == (1.0, 1.0, 0.5)
        assert report.worst_violation == SQRT2_MINUS_1
        assert report.worst_violation > report.tol

    def test_refutation_within_tolerance_is_left_to_the_sampler(self, const1):
        # (2^(1-s) - 1)*g is below CERT_TOL*(1 + g) just under s = 1
        s = np.nextafter(1.0, 0.0)
        report = certify_model(const1, "f", None, 0.0, 1.0, s, "concave")
        assert report.kind == "sampled" and report.verdict

    def test_zero_is_proved_both_ways(self, const1):
        fp = const1.derivative()
        for s in (0.25, 1.0):
            for mode in ("convex", "concave"):
                report = certify_model(fp, "abs_deriv_pow", 2.0, 0.0, 1.0, s, mode)
                assert report.kind == "proved" and report.rule == "g = 0"

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflowing_values_go_to_the_sampler(self):
        # neither the rule path nor the sampler gives a verdict on
        # non-finite values
        big = parse_function("1e300*(u-0)^2 on [0,1e10]")
        with pytest.raises(OverflowError, match="not finite"):
            certify_model(big, "f", None, 0.0, 1e10, 1.0, "convex", samples=64)
        with pytest.raises(OverflowError, match="not finite"):
            certify_pointwise(big.evaluate, 0.0, 1e10, 1.0, "convex", 64)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflow_at_an_endpoint_fails_before_sampling(self, monkeypatch):
        def no_sampling(*args, **kwargs):
            raise AssertionError("certify_pointwise was called")

        monkeypatch.setattr(funcmodel, "certify_pointwise", no_sampling)
        f = parse_function("1*(u-0)^400 on [0,10]")
        for target, g in (("f", f), ("abs_deriv", f.derivative())):
            with pytest.raises(OverflowError, match="not finite at an endpoint"):
                certify_model(g, target, None, 0.0, 10.0, 0.5, "convex")

    def test_interval_outside_the_model_is_rejected(self, u2):
        with pytest.raises(DomainError, match="outside domain"):
            certify_model(u2, "f", None, -1.0, 1.0, 0.5, "convex")

    def test_power_target_needs_q_at_least_one(self, u2):
        with pytest.raises(DomainError, match="q >= 1"):
            certify_model(u2, "abs_deriv_pow", 0.5, 0.0, 1.0, 0.5, "convex")
        with pytest.raises(DomainError, match="q >= 1"):
            certify_model(u2, "abs_deriv_pow", None, 0.0, 1.0, 0.5, "convex")

    def test_boundary_triple_refutes_before_sampling(self, sqrtu, monkeypatch):
        def no_sampling(*args, **kwargs):
            raise AssertionError("certify_pointwise was called")

        monkeypatch.setattr(funcmodel, "certify_pointwise", no_sampling)
        report = _certify_f(sqrtu, 0.75, "convex", seed=7)
        assert report.kind == "refuted" and report.rule == "boundary triple"
        assert not report.verdict
        assert report.witness == (0.0, 1.0, 0.5)
        assert (report.samples, report.seed) == (12, 7)
        # max|g| over the 12 triples' points is sqrt(1) = 1
        assert report.tol == CERT_TOL * 2.0
        assert report.worst_violation == pytest.approx(0.5**0.5 - 0.5**0.75, rel=1e-15)
        assert mp_violation(report, sqrtu, "f", None) > report.tol

    def test_boundary_pass_is_the_sampler_report(self):
        # |f'| = u^0.25 passes the boundary triples at s = 1/2 and no rule
        # decides it, so certify_model returns certify_pointwise's report
        fp = parse_function("1*(u-0)^0.25 on [0.01,1]")
        report = certify_model(fp, "abs_deriv", None, 0.01, 1.0, 0.5, "convex", 500, seed=3)
        alone = certify_pointwise(g_fn(fp, "abs_deriv", None), 0.01, 1.0, 0.5, "convex", 500, 3)
        assert report == alone
        assert report.kind == "sampled" and report.verdict and report.samples == 512

    def test_sampled_failure_is_refuted_with_its_count_and_seed(self):
        # concave on [0, 1/2] and symmetric about its inflection at 1/2: every
        # boundary triple passes, and only a drawn triple fails
        g = parse_function("1*(u-0)^3 + -1.5*(u-0)^2 on [0,1]")
        report = certify_model(g, "f", None, 0.0, 1.0, 1.0, "convex", 500, seed=3)
        assert report.kind == "refuted" and report.rule is None
        assert not report.verdict
        assert (report.samples, report.seed) == (512, 3)
        assert mp_violation(report, g, "f", None) > report.tol


@st.composite
def _sign_definite(draw):
    """A nonnegative (or, for |g|, nonpositive) power sum anchored at or below lo."""
    lo = draw(st.sampled_from([0.0, 0.01, 0.5]))
    hi = lo + draw(st.sampled_from([0.5, 1.0, 3.0]))
    sign = draw(st.sampled_from([1.0, -1.0]))
    exps = draw(
        st.lists(
            st.one_of(
                st.just(0.0),
                st.floats(0.05, 1.0),
                st.floats(1.0, 3.0),
            ),
            min_size=1,
            max_size=3,
        )
    )
    terms = tuple(
        PowerTerm(
            sign * draw(st.floats(0.1, 3.0)),
            lo - draw(st.sampled_from([0.0, 0.0, 0.25])),
            r,
        )
        for r in exps
    )
    target = draw(st.sampled_from(["f", "abs_deriv", "abs_deriv_pow"]))
    q = draw(st.sampled_from([1.0, 1.5, 2.0, 3.0]))
    # s on the exponents themselves, and the next float either side
    s = draw(
        st.one_of(
            st.floats(0.05, 1.0),
            st.just(1.0),
            st.sampled_from([r for r in exps if 0.0 < r <= 1.0] or [1.0]),
        )
    )
    s = min(1.0, float(np.nextafter(s, draw(st.sampled_from([0.0, s, 2.0])))))
    mode = draw(st.sampled_from(["convex", "concave"]))
    return FunctionModel(terms, lo, hi), target, q, s, mode


def g_fn(g, target, q):
    """g as the tests build it, apart from the certifier's own code."""
    if target == "f":
        return g.evaluate
    if target == "abs_deriv":
        return lambda u: np.abs(g.evaluate(u))
    return lambda u: np.abs(g.evaluate(u)) ** q


@settings(derandomize=True, max_examples=200, deadline=None)
@given(_sign_definite())
def test_proved_implies_the_sampler_passes(case):
    g, target, q, s, mode = case
    report = certify_model(g, target, q, g.lo, g.hi, s, mode, samples=2000)
    sampled = certify_pointwise(g_fn(g, target, q), g.lo, g.hi, s, mode, 2000, seed=1)
    if report.kind == "proved":
        assert sampled.verdict
    elif report.kind == "refuted":
        assert not sampled.verdict


@st.composite
def _power_sums(draw):
    """A power sum of either sign anchored at or below lo, and what to certify."""
    lo = draw(st.sampled_from([0.0, 0.01, 0.5]))
    hi = lo + draw(st.sampled_from([0.5, 1.0, 3.0]))
    terms = tuple(
        PowerTerm(
            draw(st.floats(-3.0, 3.0)),
            lo - draw(st.sampled_from([0.0, 0.25])),
            draw(st.one_of(st.sampled_from([0.0, 1.0, 2.0, 3.0]), st.floats(0.05, 3.0))),
        )
        for _ in range(draw(st.integers(1, 3)))
    )
    target = draw(st.sampled_from(["f", "abs_deriv", "abs_deriv_pow"]))
    q = draw(st.sampled_from([1.0, 1.5, 2.0, 3.0]))
    s = draw(st.one_of(st.floats(0.05, 1.0), st.just(1.0)))
    mode = draw(st.sampled_from(["convex", "concave"]))
    return FunctionModel(terms, lo, hi), target, q, s, mode


_any_case = st.one_of(_power_sums(), _sign_definite())


@settings(derandomize=True, max_examples=200, deadline=None)
@given(_any_case)
def test_only_a_refuted_report_fails(case):
    # so a sampled report is always a pass
    g, target, q, s, mode = case
    report = certify_model(g, target, q, g.lo, g.hi, s, mode, samples=500, seed=2)
    assert report.kind in ("proved", "refuted", "sampled")
    assert report.verdict == (report.kind != "refuted")


@settings(derandomize=True, max_examples=200, deadline=None)
@given(_any_case, st.integers(0, 2**32 - 1))
def test_a_boundary_refutation_is_also_a_sampler_refutation(case, seed):
    g, target, q, s, mode = case
    report = certify_model(g, target, q, g.lo, g.hi, s, mode, seed=seed)
    if report.rule == "boundary triple":
        full = certify_pointwise(g_fn(g, target, q), g.lo, g.hi, s, mode, CERT_SAMPLES, seed)
        assert not full.verdict
        # the boundary triples are the sampler's first 12
        assert full.worst_violation >= report.worst_violation
        assert full.tol >= report.tol
