"""Function specs: grammar, evaluation, differentiation, convexity certifier."""

import math
from collections import Counter
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from fracineq import funcmodel
from fracineq.errors import DerivativeSingularityError, DomainError, ParseError
from fracineq.funcmodel import (
    CERT_SAMPLES,
    CERT_TOL,
    MAX_CERT_SAMPLES,
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

    # an exponent in [-1, 0) too, on a term the model itself would accept
    @pytest.mark.parametrize("spec", ["1*(u-0)^-2 on [0,1]", "1*(u--1)^-0.5 on [0,1]"])
    def test_negative_exponent_rejected(self, spec):
        with pytest.raises(DomainError, match="exponent must be >= 0 in a function spec"):
            parse_function(spec)

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

    @pytest.mark.parametrize(
        "u",
        [
            math.nextafter(1.0, 2.0),
            math.nextafter(0.0, -1.0),
            math.nan,
            np.array([[0.5, 0.25], [0.75, math.nextafter(1.0, 2.0)]]),
            np.array([[0.5, math.nan], [0.75, 1.0]]),
        ],
    )
    def test_every_public_call_keeps_the_domain_scan(self, u):
        # only the quadrature integrands, whose nodes are clipped into the
        # domain, skip the scan; evaluate and its __call__ alias keep it
        f = parse_function("2*(u-0)^1.5 + -1*(u-0)^2 on [0,1]")
        for call in (f.evaluate, f):
            with pytest.raises(DomainError, match="outside domain"):
                call(u)


def _parent_values(f, arr):
    """The sum of f's terms as evaluate wrote it before _values: a zero array
    plus each term in turn, every shift subtracted."""
    out = np.zeros_like(arr)
    for t in f.terms:
        if t.coeff == 0.0:
            continue
        out = out + t.coeff * np.power(arr - t.shift, t.exponent)
    return out


@st.composite
def _kernel_cases(draw):
    """A model and a C-ordered array of points in its domain: zero and
    negative coefficients, shifts of 0, of lo and below lo, integer,
    fractional and negative exponents, and points at lo and hi, where a
    term anchored there is a zero power (a -0.0 term if its coefficient is
    negative)."""
    lo = draw(st.one_of(st.just(0.0), st.floats(-20.0, 20.0)))
    hi = lo + draw(st.floats(1e-3, 20.0))
    terms = []
    for _ in range(draw(st.integers(1, 4))):
        e = draw(st.one_of(st.integers(0, 4).map(float), st.floats(-2.0, 4.0)))
        # a negative exponent needs shift < lo, a fractional one shift <= lo
        shifts = [lo - draw(st.floats(1e-3, 50.0))]
        if e >= 0.0:
            shifts.append(lo)
        if e < 0.0 and lo > 0.0 or e >= 0.0 and (e.is_integer() or lo >= 0.0):
            shifts.append(0.0)
        coeff = draw(st.one_of(st.sampled_from([0.0, -1.5, 2.0]), st.floats(-100.0, 100.0)))
        terms.append(PowerTerm(coeff, draw(st.sampled_from(shifts)), e))
    f = FunctionModel(tuple(terms), lo, hi)
    shape = draw(st.sampled_from([(), (1,), (7,), (3, 5), (2, 45)]))
    points = st.one_of(st.sampled_from([lo, hi]), st.floats(lo, hi))
    return f, draw(arrays(np.float64, shape, elements=points))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(_kernel_cases())
@example((parse_function("-2*(u-0)^1.5 on [0,1]"), np.array([0.0, 1.0])))
def test_the_kernel_keeps_the_bits_of_the_zero_start_sum(case):
    f, arr = case
    assert arr.flags.c_contiguous
    want = np.asarray(_parent_values(f, arr))
    got = np.asarray(f._values(arr))
    assert got.shape == want.shape == arr.shape
    assert (got.view(np.int64) == want.view(np.int64)).all()
    # the public call returns the same bits, as a float for a 0-d input
    public = f.evaluate(arr)
    assert isinstance(public, float) if arr.ndim == 0 else public.shape == arr.shape
    assert (np.asarray(public).view(np.int64) == want.view(np.int64)).all()


def test_a_negative_zero_term_comes_out_as_positive_zero():
    # -2 * 0^1.5 is -0.0; the sum starts from 0.0, and 0.0 + -0.0 is +0.0
    f = parse_function("-2*(u-0)^1.5 on [0,1]")
    got = f._values(np.array([0.0, 0.0]))
    assert not np.signbit(got).any()
    assert math.copysign(1.0, f.evaluate(0.0)) == 1.0


def test_the_kernel_leaves_its_input_alone():
    f = parse_function("3*(u-0)^1 on [0,1]")
    arr = np.array([0.25, 0.5])
    f._values(arr)
    assert arr.tolist() == [0.25, 0.5]


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

    def test_a_negative_exponent_is_proved_through_convexity(self):
        # |f'| = 0.5 u^-0.5 of u^0.5 on the domain shrunk off 0: positive and
        # convex, so s-convex for every s, under a label that names the case
        fp = parse_function("1*(u-0)^0.5 on [1e-09,1]").derivative()
        label = "nonnegative power sum with a negative exponent, each exponent <= 0, >= 1 or in [s, 1]"
        for target, q in (("abs_deriv", None), ("abs_deriv_pow", 1.5)):
            for s in (0.05, 0.5, 1.0):
                report = certify_model(fp, target, q, 1e-09, 1.0, s, "convex")
                assert (report.kind, report.rule, report.samples) == ("proved", label, 0)
        # beside u^1.5, a power q >= 1 of the sum is convex too
        fp = parse_function("1*(u-0)^0.5 + 1*(u-0)^2.5 on [1e-09,1]").derivative()
        report = certify_model(fp, "abs_deriv_pow", 2.0, 1e-09, 1.0, 0.5, "convex")
        assert (report.kind, report.rule) == (
            "proved", "|f'| is a nonnegative convex power sum with a negative exponent and q >= 1"
        )

    def test_a_negative_exponent_proves_nothing_beside_an_exponent_below_s(self):
        # |f'| = 0.5 u^-0.5 + 0.75 u^0.25: the u^0.25 term decides, at s <= 0.25
        fp = parse_function("1*(u-0)^0.5 + 0.6*(u-0)^1.25 on [0.01,1]").derivative()
        assert certify_model(fp, "abs_deriv", None, 0.01, 1.0, 0.25, "convex").kind == "proved"
        up = np.nextafter(0.25, 1.0)
        assert certify_model(fp, "abs_deriv", None, 0.01, 1.0, up, "convex").kind == "sampled"
        # the power of the sum is proved only when every exponent is <= 0 or >= 1
        report = certify_model(fp, "abs_deriv_pow", 2.0, 0.01, 1.0, 0.25, "convex")
        assert report.kind == "sampled"
        # a decreasing g is not s-concave either: no rule proves it
        report = certify_model(fp, "abs_deriv", None, 0.01, 1.0, 1.0, "concave")
        assert report.kind == "refuted"

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

    # the certifier refuses a g that is not finite with no warning first
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_values_go_to_the_sampler(self):
        # neither the rule path nor the sampler gives a verdict on
        # non-finite values
        big = parse_function("1e300*(u-0)^2 on [0,1e10]")
        with pytest.raises(OverflowError, match="not finite"):
            certify_model(big, "f", None, 0.0, 1e10, 1.0, "convex", samples=64)
        with pytest.raises(OverflowError, match="not finite"):
            certify_pointwise(big.evaluate, 0.0, 1e10, 1.0, "convex", 64)

    # the certifier refuses a g that is not finite with no warning first
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflow_at_an_endpoint_fails_before_sampling(self, monkeypatch):
        def no_sampling(*args, **kwargs):
            raise AssertionError("certify_pointwise was called")

        monkeypatch.setattr(funcmodel, "certify_pointwise", no_sampling)
        f = parse_function("1*(u-0)^400 on [0,10]")
        for target, g in (("f", f), ("abs_deriv", f.derivative())):
            with pytest.raises(OverflowError, match="not finite at an endpoint"):
                certify_model(g, target, None, 0.0, 10.0, 0.5, "convex")

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_a_finite_g_near_the_float_range_has_a_finite_violation(self):
        # at (x, x, 1/2) the weighted sum 2 * 0.5^0.5 * 1.7e308 passes the
        # float range; the violation (sqrt 2 - 1) * 1.7e308 does not
        g = parse_function("1.7e308*(u-0)^0 on [0,1]")
        for report in (
            certify_model(g, "f", None, 0.0, 1.0, 0.5, "concave", samples=10),
            certify_pointwise(g.evaluate, 0.0, 1.0, 0.5, "concave", 10),
        ):
            assert report.kind == "refuted"
            assert report.worst_violation == pytest.approx(SQRT2_MINUS_1 * 1.7e308, rel=1e-12)

    def test_interval_outside_the_model_is_rejected(self, u2):
        # the instance's interval check and message
        with pytest.raises(DomainError, match=r"^\[a, b\] = \[-1\.0, 1\.0\] exceeds the model domain"):
            certify_model(u2, "f", None, -1.0, 1.0, 0.5, "convex")

    @pytest.mark.parametrize(
        "samples,seed,needle",
        [
            (CERT_SAMPLES, -1, "seed must be >= 0, got -1"),
            (-1, 0, "samples must lie in"),
            (MAX_CERT_SAMPLES + 1, 0, f"samples must lie in \\[0, {MAX_CERT_SAMPLES}\\]"),
            # 2^62 triples would need exabytes; the check refuses them first
            (2**62, 0, "samples must lie in"),
        ],
        ids=["seed-minus-1", "samples-minus-1", "samples-max-plus-1", "samples-2^62"],
    )
    def test_seed_and_sample_count_are_checked_first(self, samples, seed, needle):
        # u^2 is proved by a rule, which draws nothing; u^0.25 on [0.01, 1]
        # is decided by the sampler, where numpy raised ValueError for a
        # negative seed and an array too big for 2^62
        for spec in ("1*(u-0)^2 on [0,1]", "1*(u-0)^0.25 on [0.01,1]"):
            f = parse_function(spec)
            with pytest.raises(DomainError, match=needle):
                certify_model(f, "f", None, f.lo, f.hi, 0.5, "convex", samples, seed)
            with pytest.raises(DomainError, match=needle):
                certify_pointwise(f.evaluate, f.lo, f.hi, 0.5, "convex", samples, seed)

    def test_seed_zero_and_the_most_samples_are_accepted(self, u2):
        # a rule decides u^2, so MAX_CERT_SAMPLES triples are never drawn
        got = certify_model(u2, "f", None, 0.0, 1.0, 1.0, "convex", MAX_CERT_SAMPLES, 0)
        assert got.kind == "proved"
        assert MAX_CERT_SAMPLES == 50 * CERT_SAMPLES

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


class TestCertTolerance:
    """A witness fails when its violation exceeds 1e-10 * (1 + max|g|), the
    documented CERT_TOL scale, with max|g| over the points it read."""

    TOL_SCALE = 1e-10  # written out: a test that read CERT_TOL would follow a change

    @pytest.mark.parametrize("factor", [0.5, 2.0])
    def test_rule_witness(self, const1, factor):
        # g = 1 is s-concave only at s = 1: its witness (0, 0, 1/2) violates
        # by 2^(1-s) - 1, here factor times the tolerance 1e-10 * (1 + 1)
        tol = self.TOL_SCALE * 2.0
        s = 1.0 - math.log2(1.0 + factor * tol)
        assert 2.0 * 0.5**s - 1.0 == pytest.approx(factor * tol, rel=1e-5)
        report = certify_model(const1, "f", None, 0.0, 1.0, s, "concave", samples=0)
        if factor > 1.0:
            assert report.kind == "refuted"
            assert report.rule == "a nonnegative s-concave g with s < 1 is 0"
            assert report.witness == (0.0, 0.0, 0.5) and report.tol == tol
        else:
            # neither the witness nor any boundary triple fails
            assert (report.kind, report.verdict, report.samples) == ("sampled", True, 12)

    @pytest.mark.parametrize("factor", [0.5, 2.0])
    def test_boundary_triple(self, sqrtu, factor):
        # sqrt is s-convex only for s <= 1/2; just above, its worst boundary
        # triple (0, 1, 1/2) violates by sqrt(1/2) - 2^-s, and max|g| = 1
        tol = self.TOL_SCALE * 2.0
        s = -math.log2(math.sqrt(0.5) - factor * tol)
        assert math.sqrt(0.5) - 0.5**s == pytest.approx(factor * tol, rel=1e-5)
        report = certify_model(sqrtu, "f", None, 0.0, 1.0, s, "convex", samples=0)
        if factor > 1.0:
            assert (report.kind, report.rule) == ("refuted", "boundary triple")
            assert report.witness == (0.0, 1.0, 0.5) and report.tol == tol
        else:
            assert (report.kind, report.verdict, report.samples) == ("sampled", True, 12)


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


@st.composite
def _root_type_derivatives(draw):
    """f' of a power sum with terms of exponent e in (0, 1), so that f' has
    exponents e - 1 in (-1, 0), and what to certify of it. The terms are
    anchored below lo, or at lo with the domain shrunk as the sweep shrinks
    it. Exponents in (1, 2) give f' exponents in (0, 1) beside them."""
    lo = draw(st.sampled_from([0.0, 0.01, 0.5]))
    hi = lo + draw(st.sampled_from([0.5, 1.0, 3.0]))
    shrunk = draw(st.booleans())
    sign = draw(st.sampled_from([1.0, -1.0]))
    terms = tuple(
        PowerTerm(
            sign * draw(st.floats(0.1, 3.0)),
            lo if shrunk else lo - draw(st.sampled_from([0.01, 0.25])),
            draw(
                st.one_of(
                    st.floats(0.05, 0.95), st.floats(1.05, 1.95), st.sampled_from([1.0, 2.0, 3.0])
                )
            ),
        )
        for _ in range(draw(st.integers(1, 3)))
    )
    f = FunctionModel(terms, lo, hi)
    if shrunk:
        f = f.with_domain(lo + 1e-9 * (hi - lo), hi)
    target = draw(st.sampled_from(["abs_deriv", "abs_deriv_pow"]))
    q = draw(st.sampled_from([1.0, 1.5, 2.0, 3.0]))
    s = draw(st.one_of(st.floats(0.05, 1.0), st.just(1.0)))
    return f.derivative(), target, q, s


@settings(derandomize=True, max_examples=150, deadline=None)
@given(_root_type_derivatives(), st.integers(0, 2**32 - 1))
def test_a_proved_root_type_derivative_passes_the_full_sampler(case, seed):
    fp, target, q, s = case
    report = certify_model(fp, target, q, fp.lo, fp.hi, s, "convex", samples=0)
    # g's exponents: those of f', or r*q for the power of one term
    power = Fraction(q) if target == "abs_deriv_pow" and len(fp.terms) == 1 else 1
    if any(0 < Fraction(t.exponent) * power < Fraction(s) for t in fp.terms):
        assert report.kind != "proved"
    if report.kind == "proved":
        full = certify_pointwise(g_fn(fp, target, q), fp.lo, fp.hi, s, "convex", CERT_SAMPLES, seed)
        assert full.verdict, (full.worst_violation, full.tol, full.witness)


# -- the per-key path, kept as the oracle of the shared tables ---------------


def _ref_worst_violation(fn, lo, hi, s, mode, lam, xs, ys):
    mix = np.clip(lam * xs + (1.0 - lam) * ys, lo, hi)

    def _vals(pts):
        return np.broadcast_to(np.asarray(fn(pts), dtype=float), pts.shape)

    gx, gy, gm = _vals(xs), _vals(ys), _vals(mix)
    if not all(np.isfinite(g).all() for g in (gx, gy, gm)):
        raise OverflowError("the hypothesis function is not finite at a sampled point")
    combo = np.power(lam, s) * gx + np.power(1.0 - lam, s) * gy
    viol = gm - combo if mode == "convex" else combo - gm
    worst = int(np.argmax(viol))
    scale = max(np.abs(gx).max(), np.abs(gy).max(), np.abs(gm).max())
    return worst, float(viol[worst]), CERT_TOL * (1.0 + float(scale))


def _ref_boundary_triples(lo, hi):
    ends = np.array([lo, hi])
    xb, yb = np.repeat(ends, 2), np.tile(ends, 2)
    return np.repeat([0.0, 0.5, 1.0], 4), np.tile(xb, 3), np.tile(yb, 3)


def _ref_report(fn, lo, hi, s, mode, seed, lam, xs, ys, kind, rule):
    worst, viol, tol = _ref_worst_violation(fn, lo, hi, s, mode, lam, xs, ys)
    verdict = viol <= tol
    return CertificationReport(
        verdict=verdict, worst_violation=viol,
        witness=(float(xs[worst]), float(ys[worst]), float(lam[worst])),
        samples=int(lam.size), s=float(s), mode=mode, seed=int(seed), tol=tol,
        kind=kind if kind != "sampled" or verdict else "refuted", rule=rule,
    )


def _ref_rule(g_source, target, q, a, s, mode):
    terms = [t for t in g_source.terms if t.coeff != 0.0]
    if not terms:
        return "proved", "g = 0"
    positive = {t.coeff > 0.0 for t in terms}
    if len(positive) > 1 or any(t.shift > a for t in terms):
        return None
    if target == "f" and positive == {False}:
        return None
    exps = [Fraction(t.exponent) for t in terms]
    powered = target == "abs_deriv_pow" and len(exps) > 1
    if target == "abs_deriv_pow" and not powered:
        exps = [exps[0] * Fraction(q)]
    s_exact = Fraction(s)
    if mode == "convex":
        # r < 0 only in f', whose c0 < a: a positive convex term, and a
        # nonnegative convex g is s-convex for every s
        with_negative = min(exps) < 0
        if powered:
            if not all(r <= 0 or r >= 1 for r in exps):
                return None
            if with_negative:
                return "proved", (
                    "|f'| is a nonnegative convex power sum with a negative exponent and q >= 1"
                )
            return "proved", "|f'| is a nonnegative convex power sum and q >= 1"
        if not all(r <= 0 or r >= 1 or (0 < r and s_exact <= r) for r in exps):
            return None
        if with_negative:
            return "proved", (
                "nonnegative power sum with a negative exponent, each exponent <= 0, >= 1 or in [s, 1]"
            )
        return "proved", "nonnegative power sum, each exponent 0, >= 1 or in [s, 1]"
    if s_exact == 1 and not powered and len(exps) == 1 and 0 <= exps[0] <= 1:
        return "proved", "one nonnegative power term with exponent in [0, 1]"
    if s_exact < 1 and all(r >= 0 for r in exps):
        return "refuted", "a nonnegative s-concave g with s < 1 is 0"
    return None


def _reference_certify(g_source, target, q, a, b, s, mode, samples=CERT_SAMPLES, seed=0):
    """certify_model as one key's numpy path: g evaluated afresh at each
    step's own points, each step with its own violation formula call."""
    funcmodel._check_certify_args(a, b, s, mode, samples, seed)
    if a < g_source.lo or b > g_source.hi:
        raise DomainError(
            f"evaluation point outside domain [{g_source.lo!r}, {g_source.hi!r}]"
        )
    if target == "abs_deriv_pow" and not (q is not None and q >= 1.0):
        raise DomainError(f"|f'|^q needs q >= 1, got {q!r}")
    if target == "f":
        fn = g_source.evaluate
    elif target == "abs_deriv":
        def fn(u):
            return np.abs(g_source.evaluate(u))
    elif target == "abs_deriv_pow":
        def fn(u):
            return np.abs(g_source.evaluate(u)) ** q
    else:
        raise DomainError(f"unknown certification target {target!r}")
    decided = _ref_rule(g_source, target, q, a, s, mode)
    if decided is not None:
        kind, rule = decided
        ends = np.array([a, b])
        g_ends = np.asarray(fn(ends), dtype=float)
        if not np.isfinite(g_ends).all():
            raise OverflowError("the hypothesis function is not finite at an endpoint")
        if kind == "proved":
            return CertificationReport(
                verdict=True, worst_violation=0.0, witness=None, samples=0,
                s=float(s), mode=mode, seed=int(seed), tol=0.0, kind=kind, rule=rule,
            )
        at = ends[[int(np.argmax(g_ends))]]
        report = _ref_report(fn, a, b, s, mode, seed, np.array([0.5]), at, at, kind, rule)
        if not report.verdict:
            return report
    lam, xs, ys = _ref_boundary_triples(a, b)
    report = _ref_report(fn, a, b, s, mode, seed, lam, xs, ys, "refuted", "boundary triple")
    if not report.verdict:
        return report
    rng = np.random.default_rng(seed)
    lam_r = rng.uniform(0.0, 1.0, samples)
    xs_r = rng.uniform(a, b, samples)
    ys_r = rng.uniform(a, b, samples)
    lam, xs, ys = (np.concatenate(p) for p in ((lam, lam_r), (xs, xs_r), (ys, ys_r)))
    return _ref_report(fn, a, b, s, mode, seed, lam, xs, ys, "sampled", None)


def _bits(report):
    """Every field of a report, with each float as its hex string."""
    def hexed(v):
        return v.hex() if isinstance(v, float) else v

    out = []
    for name in CertificationReport.__dataclass_fields__:
        v = getattr(report, name)
        out.append(tuple(map(hexed, v)) if isinstance(v, tuple) else hexed(v))
    return tuple(out)


def _outcome(certify, *args):
    try:
        return _bits(certify(*args))
    except (OverflowError, DomainError) as exc:
        return type(exc), str(exc)


def _shipped_keys():
    """(g_source, target, q, a, b, s, mode, seed) of each shipped certificate key."""
    from fracineq.hh_core import FRACTIONAL_BOUNDS
    from fracineq.sweep import _derive_seed, apply_derivative_shrink, standard_grid

    grid, _ = apply_derivative_shrink(standard_grid())
    pairs = {(spec.target, spec.mode) for spec in FRACTIONAL_BOUNDS.values()}
    keys = []
    for fid, f in grid.families:
        fp = f.derivative()
        for s in grid.svals:
            todo = [("f", "convex", None)] + [
                (target, mode, q)
                for target, mode in sorted(pairs)
                for q in (grid.qvals if target == "abs_deriv_pow" else (None,))
            ]
            for target, mode, q in todo:
                seed = _derive_seed(0, fid, s, target, mode, q)
                g = f if target == "f" else fp
                keys.append((g, target, q, f.lo, f.hi, s, mode, seed))
    return keys


class TestTablesAgainstThePerKeyPath:
    """A table evaluates g once for every certificate that reads it; each
    report must be the per-key path's, every float to the bit."""

    def test_every_shipped_key(self):
        keys = _shipped_keys()
        assert len(keys) == 288
        kinds = Counter()
        for g, target, q, a, b, s, mode, seed in keys:
            want = _bits(_reference_certify(g, target, q, a, b, s, mode, CERT_SAMPLES, seed))
            got = certify_model(g, target, q, a, b, s, mode, CERT_SAMPLES, seed)
            assert _bits(got) == want
            kinds[got.kind, got.rule == "boundary triple"] += 1
        assert kinds == {
            ("proved", False): 186, ("refuted", False): 72,
            ("refuted", True): 28, ("sampled", False): 2,
        }

    def test_the_sweeps_shared_tables(self, monkeypatch):
        # each family's one table per model serves all of its keys
        from fracineq import sweep as sweep_module

        seen = []
        certify = sweep_module._certify

        def spy(table, target, q, s, mode, samples, seed):
            report = certify(table, target, q, s, mode, samples, seed)
            args = (table.model, target, q, table.a, table.b, s, mode, samples, seed)
            seen.append((args, report))
            return report

        monkeypatch.setattr(sweep_module, "_certify", spy)
        grid, _ = sweep_module.apply_derivative_shrink(sweep_module.standard_grid())
        for _ in sweep_module._sweep_rows(grid):
            pass
        assert len(seen) == 288
        for args, report in seen:
            assert _bits(report) == _bits(_reference_certify(*args))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(_any_case, st.integers(0, 2**32 - 1))
    @example((FunctionModel((PowerTerm(0.0, 0.0, 0.0),), 0.0, 1.0), "f", 1.0, 0.5, "concave"), 0)
    @example(
        (parse_function("1*(u-0)^2 + -1*(u-0)^1 on [0,1]"), "abs_deriv", 2.0, 1.0, "convex"), 1
    )
    @example((parse_function("1*(u-0)^400 on [0,10]"), "abs_deriv_pow", 2.0, 0.5, "convex"), 2)
    @example(
        (parse_function("1*(u-0)^0.5 on [1e-09,1]").derivative(), "abs_deriv", 1.0, 0.5, "convex"), 5
    )
    @example(
        (
            parse_function("1*(u-0)^0.5 + 1*(u-0)^2.5 on [1e-09,1]").derivative(),
            "abs_deriv_pow", 2.0, 0.3, "convex",
        ),
        6,
    )
    @example((parse_function("1e200*(u-0)^2 on [0,1]"), "abs_deriv_pow", 3.0, 1.0, "convex"), 3)
    @example(
        (parse_function("1e300*(u-0)^2 + -1*(u-0)^1 on [0,1e10]"), "f", 1.0, 1.0, "convex"), 4
    )
    def test_drawn_power_sums(self, case, seed):
        g, target, q, s, mode = case
        args = (g, target, q, g.lo, g.hi, s, mode, 200, seed)
        assert _outcome(certify_model, *args) == _outcome(_reference_certify, *args)
