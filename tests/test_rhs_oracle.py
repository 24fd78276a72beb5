"""Each fractional right side, away from alpha = 1, against the paper's proof.

Theorems 2.1-2.4 bound the two integrals of the identity,

    (x-a)^(alpha+1)/(b-a) int_0^1 (1 - t^alpha) |f'(t x + (1-t) a)| dt
  + (b-x)^(alpha+1)/(b-a) int_0^1 (1 - t^alpha) |f'(t x + (1-t) b)| dt,

each by one inequality on |f'| along the segment, which leaves unit
integrals in t. Here those integrals come from scipy's quadrature, the four
statements are written out again, and |f'| comes from the power rule, so no
step shares code with hh_core's closed forms, weights or formulas. The
c13..c16 reductions check the same right sides at alpha = 1 only.
"""

import random

import pytest
from scipy.integrate import quad

from fracineq.funcmodel import parse_function
from fracineq.hh_core import ProblemInstance, rhs

POINTS = 60


def _unit(fn, **weight) -> float:
    """int_0^1 fn(t) dt, times (t^u (1-t)^v) with weight="alg", wvar=(u, v)."""
    value, _ = quad(fn, 0.0, 1.0, epsabs=0.0, epsrel=1e-13, limit=200, **weight)
    return value


def first_power(alpha, s):
    """(int (1-t^alpha) t^s dt, int (1-t^alpha) (1-t)^s dt): s-convexity
    splits |f'(t x + (1-t) e)| <= t^s |f'(x)| + (1-t)^s |f'(e)|."""
    gap = lambda t: 1.0 - t**alpha  # noqa: E731
    return _unit(gap, weight="alg", wvar=(s, 0.0)), _unit(gap, weight="alg", wvar=(0.0, s))


def holder(alpha, p):
    """(int (1-t^alpha)^p dt)^(1/p), Holder's factor for the kernel."""
    return _unit(lambda t: (1.0 - t**alpha) ** p) ** (1.0 / p)


def kappa(alpha):
    """int (1-t^alpha) dt, the power mean's weight."""
    return _unit(lambda t: 1.0 - t**alpha)


def theorem_21(wa, wb, d, alpha, s, q):
    # |f'| s-convex: each side is k1 |f'(x)| + k2 |f'(endpoint)|
    k1, k2 = first_power(alpha, s)
    return wa * (k1 * d["x"] + k2 * d["a"]) + wb * (k1 * d["x"] + k2 * d["b"])


def theorem_22(wa, wb, d, alpha, s, q):
    # |f'|^q s-convex, Holder: int |f'|^q <= (|f'(x)|^q + |f'(e)|^q) int t^s,
    # and int_0^1 t^s dt = 1/(s+1)
    p = q / (q - 1.0)
    side = lambda e: ((d["x"] ** q + d[e] ** q) / (s + 1.0)) ** (1.0 / q)  # noqa: E731
    return holder(alpha, p) * (wa * side("a") + wb * side("b"))


def theorem_23(wa, wb, d, alpha, s, q):
    # |f'|^q s-convex, power mean with the weight 1 - t^alpha
    k1, k2 = first_power(alpha, s)
    side = lambda e: (k1 * d["x"] ** q + k2 * d[e] ** q) ** (1.0 / q)  # noqa: E731
    return kappa(alpha) ** (1.0 - 1.0 / q) * (wa * side("a") + wb * side("b"))


def theorem_24(wa, wb, d, alpha, s, q):
    # |f'|^q s-concave, Holder, then int g(t x + (1-t) e) dt <= 2^(s-1)
    # g((x+e)/2) for the s-concave g = |f'|^q
    p = q / (q - 1.0)
    pref = holder(alpha, p) * 2.0 ** ((s - 1.0) / q)
    return pref * (wa * d["mid_a"] + wb * d["mid_b"])


THEOREMS = {"t21": theorem_21, "t22": theorem_22, "t23": theorem_23, "t24": theorem_24}


def _draws(seed):
    """Seeded (f, |f'| by the power rule, a, b, x, alpha, s, q) with alpha in
    [0.1, 5], never 1."""
    rnd = random.Random(seed)
    for _ in range(POINTS):
        a = rnd.uniform(-2.0, 2.0)
        b = a + rnd.uniform(0.1, 3.0)
        c, shift, r = rnd.uniform(-2.0, 2.0), a - rnd.uniform(0.05, 1.0), rnd.uniform(0.3, 3.5)
        f = parse_function(f"{c!r}*(u-{shift!r})^{r!r} on [{a!r},{b!r}]")

        def fprime(u, c=c, shift=shift, r=r):
            return abs(c * r * (u - shift) ** (r - 1.0))

        alpha = 1.0
        while alpha == 1.0:
            alpha = rnd.uniform(0.1, 5.0)
        x = a + rnd.uniform(0.0, 1.0) * (b - a)
        yield f, fprime, a, b, x, alpha, rnd.uniform(0.05, 1.0), rnd.uniform(1.05, 4.0)


@pytest.mark.parametrize("thm", sorted(THEOREMS))
def test_right_side_equals_the_proofs_unit_integrals(thm):
    checked = 0
    for f, fprime, a, b, x, alpha, s, q in _draws(sum(map(ord, thm))):
        d = {
            "x": fprime(x), "a": fprime(a), "b": fprime(b),
            "mid_a": fprime(0.5 * (x + a)), "mid_b": fprime(0.5 * (x + b)),
        }
        wa, wb = (x - a) ** (alpha + 1.0) / (b - a), (b - x) ** (alpha + 1.0) / (b - a)
        want = THEOREMS[thm](wa, wb, d, alpha, s, q)
        got = rhs(thm.upper(), ProblemInstance(f, a, b, x, alpha, s, q=q))
        assert got == pytest.approx(want, rel=1e-12, abs=0.0), (alpha, s, x, q)
        checked += 1
    assert checked >= 50
