"""The identity's left side against its closed form for power sums.

For f = sum of c (u - c0)^r with every c0 <= a, each of the identity's two
integrals I_e = int |t - e|^(alpha - 1) f(t) dt, over [min(e, x), max(e, x)]
for the end e in {a, b}, has a closed form per term. With h = |x - e| and
E = e - c0:

    h^(alpha + r) / (alpha + r)                               when E = 0,
    E^r h^alpha / alpha * 2F1(-r, alpha; alpha + 1; -+h/E)     otherwise,

with -h/E when x > e. The left side is then

    [(x - a)^alpha f(a) + (b - x)^alpha f(b)] / (b - a) - alpha (I_a + I_b) / (b - a)

as Gamma(alpha + 1) J = alpha I. Here it is computed with mpmath.hyp2f1 at
40 digits from the very floats the quadrature sees, and shares no code with
rlint or hh_core. mpmath.quad is no reference here: on kinked power sums it
strays further from the closed form than the quadrature under test.

Each computed lhs must lie within its own error estimate plus 16 u S of the
exact value, u = 2^-53 and S = |boundary| + alpha (|I_a| + |I_b|) / (b - a)
the size of the sum it is formed from, for rounding. It must also lie
within 1e-11 of it relative to 1 + |exact|.
"""

import functools
import math
import random

import mpmath
import pytest

from fracineq.funcmodel import FunctionModel, PowerTerm
from fracineq.hh_core import _identity_lhs_rows
from fracineq.rlint import DEFAULT_CONFIG
from fracineq.sweep import standard_grid

U = 2.0**-53
ROUNDING = 16.0
RELATIVE = 1e-11


def _term_integral(r, c0, e, x, alpha):
    """int |t - e|^(alpha - 1) (t - c0)^r dt between e and x, c0 <= min(e, x)."""
    h = abs(mpmath.mpf(x) - mpmath.mpf(e))
    if h == 0:
        return mpmath.mpf(0)
    big_e = mpmath.mpf(e) - mpmath.mpf(c0)
    if big_e == 0:
        return h ** (alpha + r) / (alpha + r)
    z = -h / big_e if x > e else h / big_e
    return big_e**r * h**alpha / alpha * mpmath.hyp2f1(-r, alpha, alpha + 1, z)


def _exact(f, a, b, alpha, x):
    """(exact lhs, S) at one point, as floats."""
    with mpmath.workdps(40):
        al = mpmath.mpf(alpha)
        terms = [(mpmath.mpf(t.coeff), mpmath.mpf(t.shift), mpmath.mpf(t.exponent))
                 for t in f.terms]

        def value(u):
            return sum(c * (mpmath.mpf(u) - c0) ** r for c, c0, r in terms)

        def integral(e):
            return sum(c * _term_integral(r, c0, e, x, al) for c, c0, r in terms)

        span = mpmath.mpf(b) - mpmath.mpf(a)
        xm = mpmath.mpf(x)
        boundary = ((xm - a) ** al * value(a) + (b - xm) ** al * value(b)) / span
        ia, ib = integral(a), integral(b)
        lhs = boundary - al * (ia + ib) / span
        size = abs(boundary) + al * (abs(ia) + abs(ib)) / span
        return float(lhs), float(size)


def _errors(f, alphas, xs):
    """(point, |lhs - exact|, estimate, S, |exact|) at every (alpha, x) of f
    on its domain."""
    a, b = f.lo, f.hi
    rows = _identity_lhs_rows(f, a, b, alphas, xs, DEFAULT_CONFIG)
    out = []
    for alpha in alphas:
        for x, entry in zip(xs, rows[alpha]):
            assert isinstance(entry, tuple), (f, alpha, x, entry)
            lhs, est = entry
            exact, size = _exact(f, a, b, alpha, x)
            out.append(((f, alpha, x, lhs, exact), abs(lhs - exact), est, size, abs(exact)))
    return out


def _shipped():
    grid = standard_grid()
    return [(f, grid.alphas, [f.lo + frac * (f.hi - f.lo) for frac in grid.xfracs])
            for _, f in grid.families]


def _drawn():
    """24 power sums of one to three terms with c0 <= a, each at four alphas
    and five x, both ends included. A third of the terms are anchored at a
    itself, with an exponent in [1, 4], so that f' stays bounded on [a, b]."""
    rng = random.Random(20121)
    cases = []
    for _ in range(24):
        a = rng.uniform(-2.0, 2.0)
        b = a + rng.uniform(0.1, 3.0)
        terms = []
        for _ in range(rng.randint(1, 3)):
            if rng.random() < 1 / 3:
                c0, r = a, rng.uniform(1.0, 4.0)
            else:
                c0, r = a - rng.uniform(0.0, 1.0), rng.uniform(0.0, 4.0)
            terms.append(PowerTerm(rng.uniform(-5.0, 5.0), c0, r))
        alphas = sorted(math.exp(rng.uniform(math.log(0.1), math.log(5.0))) for _ in range(4))
        inner = sorted(rng.uniform(a, b) for _ in range(3))
        cases.append((FunctionModel(tuple(terms), a, b), alphas, [a, *inner, b]))
    return cases


@functools.cache
def _point_set(name):
    cases = _shipped() if name == "shipped" else _drawn()
    return [point for f, alphas, xs in cases for point in _errors(f, alphas, xs)]


@pytest.mark.parametrize("name", ["shipped", "drawn"])
def test_each_lhs_is_within_its_estimate_and_rounding_of_the_closed_form(name):
    for point, err, est, size, _ in _point_set(name):
        assert err <= est + ROUNDING * U * size, point


@pytest.mark.parametrize("name, count", [("shipped", 567), ("drawn", 480)])
def test_each_lhs_is_within_1e_11_relative_of_the_closed_form(name, count):
    points = _point_set(name)
    assert len(points) == count
    assert max(err / (1.0 + exact) for _, err, _, _, exact in points) <= RELATIVE


@pytest.mark.xfail(strict=True, reason="the estimate misses the error where f' is unbounded at a")
def test_a_term_anchored_at_a_below_exponent_one():
    # (u - a)^0.034 turns from 0 almost at once: J1's estimate reads 6e-13
    # where its error is 3e-10
    f = FunctionModel(
        (PowerTerm(-0.20967108379962163, -1.3533412670096778, 0.03392728414253332),
         PowerTerm(0.6022099712980804, -1.3533412670096778, 1.9820632586750007)),
        -1.3533412670096778, -0.08086525881172713,
    )
    for point, err, est, size, _ in _errors(f, [0.5119420899874717], [f.hi]):
        assert err <= est + ROUNDING * U * size, point
