"""Power-sum function models: parsing, evaluation, differentiation, certification.

A model is a finite sum of shifted power terms

    f(u) = sum_i  coeff_i * (u - shift_i)^exponent_i

restricted to a closed domain [lo, hi]. This family is closed under
differentiation away from singular edges, admits exact power-rule oracles for
fractional integrals, and covers every test function the bound evaluators
need (monomials, affine functions, constants, fractional powers).

The text form accepted by :func:`parse_function` is

    FLOAT "*(u-" FLOAT ")^" FLOAT   terms joined by "+",  suffix  "on [FLOAT,FLOAT]"

e.g. ``1*(u-0)^2 + -0.5*(u-0)^1 on [0,2]``. Whitespace is insignificant
between tokens. ``render`` emits this same form with shortest round-trip
float literals, so ``parse_function(m.render()) == m``.

Certification decides the defining inequality of s-convexity in the
second sense,

    g(lam*x + (1-lam)*y) <= lam^s g(x) + (1-lam)^s g(y),

(or its reverse for s-concavity). The evidence is tried in a fixed order,
and the first step that decides gives the report's ``kind``:

1. a rule on the power-sum terms of g. Nonnegative s-convex functions form a
   convex cone, and c*(u-c0)^r with c >= 0 and c0 at or below the
   interval's left end is s-convex for every s <= r when 0 < r <= 1, and for
   every s when r = 0 or r >= 1 (Hudzik & Maligranda 1994, Aequationes Math.
   48:100-111). Exponents are compared exactly, as fractions of the floats.
   Such a report is ``proved``. A rule may also name a witness: a
   nonnegative s-concave g with s < 1 is identically 0 (take x = y), so
   (e, e, 1/2) at an endpoint e refutes it, and the report is ``refuted``
   once the violation formula below confirms it;
2. the boundary triples, lam in {0, 1/2, 1} against every endpoint pair. A
   violation above its tolerance there makes the report ``refuted``;
3. seeded random triples, drawn after those same boundary triples. A
   violation above tolerance is ``refuted``; otherwise the report is
   ``sampled``, a pass that is probable, not proved.

A witness's violation is compared against CERT_TOL * (1 + max|g|), with
max|g| taken over the points the deciding step read: one triple for a
rule's witness, 12 for the boundary triples, all of them for the sampler.
The boundary triples are the sampler's first 12, so the sampler sees every
violation they show; a boundary refutation can differ from the sampler's
verdict only when that violation lies between the two tolerances. All
three steps apply one violation rule to g values they are handed.

g is evaluated once per table, not once per certificate. A table holds a
model's values at a, b and the boundary triples' mix points, from one
evaluation; each (target, q)'s g is derived from them once, and serves
every s and mode. certify_model builds a table for its one query; a sweep
builds one per family and model, and the bounds read |f'| at their own
points from the same evaluation. Only the sampler evaluates g afresh, at its
drawn points. Every power stays in numpy on float64 arrays, where a value's
bits do not depend on the array it sits in, so a shared table reproduces a
per-query evaluation to the bit.

A failed certificate is a result, not an error.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import DerivativeSingularityError, DomainError, ParseError

__all__ = [
    "PowerTerm",
    "FunctionModel",
    "parse_function",
    "CertificationReport",
    "certify_model",
    "certify_pointwise",
]

# Scale factor for the certification tolerance: tol = CERT_TOL * (1 + max|g|).
CERT_TOL = 1e-10

# Default number of random triples per certification run, and the most a
# run may draw (50x the default)
CERT_SAMPLES = 20_000
MAX_CERT_SAMPLES = 10**6

# How a certificate was decided; see the module docstring.
CERT_KINDS = ("proved", "refuted", "sampled")

# g and its weighted sums may overflow on their way to the check that refuses
# a non-finite g with OverflowError; numpy's warnings would only precede it
_OVERFLOW_REFUSED = dict(over="ignore", invalid="ignore")

# The one check of s, of an interval and of q and p (alpha's is in hh_core),
# for every entry point; a sweep grid passes its field's name for messages.


def _check_finite(value: float, name: str) -> None:
    if not math.isfinite(value):
        raise DomainError(f"{name} must be finite, got {value!r}")


def _check_s(s: float, name: str = "s") -> None:
    if not 0.0 < s <= 1.0:
        raise DomainError(f"{name} must lie in (0, 1], got {s!r}")


def _check_interval(a: float, b: float, domain=None, x=None, name: str = "x") -> None:
    """a < b with b - a finite (so both are), [a, b] inside a model's
    domain (lo, hi) and x in [a, b], each where given."""
    if not (a < b and b - a < math.inf):
        raise DomainError(f"requires a < b, b - a finite, got a={a!r}, b={b!r}")
    if domain is not None and not (domain[0] <= a and b <= domain[1]):
        lo, hi = domain
        raise DomainError(f"[a, b] = [{a!r}, {b!r}] exceeds the model domain [{lo!r}, {hi!r}]")
    if x is not None and not a <= x <= b:
        raise DomainError(f"{name} must lie in [{a!r}, {b!r}], got {x!r}")


def _check_p(p: float) -> float:
    _check_finite(p, "p")
    if not p > 1.0:
        raise DomainError(f"p must satisfy p > 1, got {p!r}")
    return p


def _check_q(q: float | None) -> float | None:
    """q's conjugate p = q/(q - 1), the only way a p is made, or None for q
    None or 1: q finite and >= 1, and p > 1 (a huge q rounds p down to 1)."""
    if q is None:
        return None
    _check_finite(q, "q")
    if not q >= 1.0:
        raise DomainError(f"q must satisfy q >= 1, got {q!r}")
    return _check_p(q / (q - 1.0)) if q > 1.0 else None


@dataclass(frozen=True)
class PowerTerm:
    """One term coeff * (u - shift)^exponent.

    Parsed terms always carry exponent >= 0; negative exponents appear only
    in derivative outputs, where the owning model guarantees shift < lo so
    the term stays bounded on the domain.
    """

    coeff: float
    shift: float
    exponent: float

    def __post_init__(self) -> None:
        for name in ("coeff", "shift", "exponent"):
            _check_finite(getattr(self, name), f"PowerTerm.{name}")


@dataclass(frozen=True)
class FunctionModel:
    """A power-sum function on a closed domain [lo, hi]."""

    terms: tuple[PowerTerm, ...]
    lo: float
    hi: float

    def __post_init__(self) -> None:
        if not isinstance(self.terms, tuple):
            object.__setattr__(self, "terms", tuple(self.terms))
        if not self.terms:
            raise DomainError("FunctionModel requires at least one term")
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise DomainError("domain endpoints must be finite")
        if not self.lo < self.hi:
            raise DomainError(f"domain requires lo < hi, got [{self.lo!r}, {self.hi!r}]")
        for t in self.terms:
            fractional = not float(t.exponent).is_integer()
            if t.exponent < 0.0 and not t.shift < self.lo:
                raise DomainError(
                    f"term (u-{t.shift!r})^{t.exponent!r} is unbounded at "
                    f"u={t.shift!r} inside [{self.lo!r}, {self.hi!r}]"
                )
            if t.exponent >= 0.0 and fractional and not t.shift <= self.lo:
                raise DomainError(
                    f"term (u-{t.shift!r})^{t.exponent!r} is undefined below "
                    f"u={t.shift!r}; fractional exponents need shift <= lo"
                )

    @property
    def domain(self) -> tuple[float, float]:
        return (self.lo, self.hi)

    def _singular_term(self) -> PowerTerm | None:
        """The first term whose derivative blows up at the left domain edge."""
        for t in self.terms:
            if 0.0 < t.exponent < 1.0 and t.shift >= self.lo and t.coeff != 0.0:
                return t
        return None

    @property
    def has_singular_derivative(self) -> bool:
        """True when differentiation would blow up at the left domain edge."""
        return self._singular_term() is not None

    def evaluate(self, u):
        """Evaluate at a scalar or ndarray of points inside [lo, hi].

        Raises DomainError when a point lies outside [lo, hi] or is NaN, then
        returns _values. Only the quadrature integrands call _values directly:
        their nodes are clipped into the domain, so this scan would find nothing.
        """
        arr = np.asarray(u, dtype=float)
        # written so that a NaN point fails too: it compares false both ways
        if arr.size and not (arr.min() >= self.lo and arr.max() <= self.hi):
            raise DomainError(
                f"evaluation point outside domain [{self.lo!r}, {self.hi!r}]"
            )
        out = self._values(arr)
        return float(out) if arr.ndim == 0 else out

    def _values(self, arr: np.ndarray):
        """The sum of coeff * (arr - shift)^exponent over the nonzero terms,
        as a new array, for a C-ordered float array inside [lo, hi].

        Its bits are those of 0.0 + the terms added in order: the first term
        gets += 0.0, which turns a -0.0 into +0.0, and a zero shift is not
        subtracted, since x - 0.0 is x for every float x.
        """
        out = None
        for t in self.terms:
            if t.coeff == 0.0:
                continue
            term = np.power(arr - t.shift if t.shift != 0.0 else arr, t.exponent)
            term *= t.coeff
            if out is None:
                out = term
                out += 0.0
            else:
                out += term
        return np.zeros_like(arr) if out is None else out

    __call__ = evaluate

    def derivative(self) -> FunctionModel:
        """Term-wise power rule; constants vanish.

        Raises DerivativeSingularityError when a term with 0 < e < 1 is
        anchored at (or above) the left edge: its derivative would be
        unbounded there, so the caller must shrink the domain first.
        """
        t = self._singular_term()
        if t is not None:
            raise DerivativeSingularityError(
                f"derivative of (u-{t.shift!r})^{t.exponent!r} is unbounded "
                f"at the left edge of [{self.lo!r}, {self.hi!r}]; "
                "shrink the domain away from the singular point"
            )
        terms = []
        for t in self.terms:
            c = t.coeff * t.exponent
            if c == 0.0:
                continue
            terms.append(PowerTerm(c, t.shift, t.exponent - 1.0))
        if not terms:
            # canonical zero model so the result still renders and re-parses
            terms = [PowerTerm(0.0, self.lo, 0.0)]
        return FunctionModel(tuple(terms), self.lo, self.hi)

    def with_domain(self, lo: float, hi: float) -> FunctionModel:
        return FunctionModel(self.terms, lo, hi)

    def render(self) -> str:
        """Emit the grammar form; parse_function(render()) reproduces self."""
        body = " + ".join(
            f"{t.coeff!r}*(u-{t.shift!r})^{t.exponent!r}" for t in self.terms
        )
        return f"{body} on [{self.lo!r},{self.hi!r}]"

    def __str__(self) -> str:
        return self.render()


_FLOAT_RE = re.compile(r"[+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?")


class _Cursor:
    """Whitespace-skipping scanner that reports 0-based input positions."""

    def __init__(self, text: str) -> None:
        self.text = text
        self.pos = 0

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def at_end(self) -> bool:
        self.skip_ws()
        return self.pos >= len(self.text)

    def peek(self, literal: str) -> bool:
        self.skip_ws()
        return self.text.startswith(literal, self.pos)

    def expect(self, literal: str) -> None:
        self.skip_ws()
        if not self.text.startswith(literal, self.pos):
            raise ParseError(f"expected {literal!r}", self.pos)
        self.pos += len(literal)

    def expect_float(self, what: str) -> float:
        self.skip_ws()
        m = _FLOAT_RE.match(self.text, self.pos)
        if m is None:
            raise ParseError(f"expected {what}", self.pos)
        self.pos = m.end()
        return float(m.group())


def parse_function(spec: str) -> FunctionModel:
    """Parse the mini-grammar into a FunctionModel.

    Syntax violations raise ParseError with the offending position; terms
    that are undefined on the stated domain (negative exponents, fractional
    exponents anchored above lo) raise DomainError.
    """
    cur = _Cursor(spec)
    raw_terms: list[tuple[float, float, float, int]] = []
    while True:
        cpos = cur.pos
        coeff = cur.expect_float("a coefficient")
        cur.expect("*")
        cur.expect("(")
        cur.expect("u")
        cur.expect("-")
        shift = cur.expect_float("a shift")
        cur.expect(")")
        cur.expect("^")
        epos = cur.pos
        exponent = cur.expect_float("an exponent")
        raw_terms.append((coeff, shift, exponent, epos))
        if cur.peek("on"):
            break
        if cur.peek("+"):
            cur.expect("+")
            continue
        cur.skip_ws()
        raise ParseError("expected '+' or 'on'", cur.pos)
    cur.expect("on")
    cur.expect("[")
    lo = cur.expect_float("the domain lower bound")
    cur.expect(",")
    hi = cur.expect_float("the domain upper bound")
    cur.expect("]")
    if not cur.at_end():
        raise ParseError("unexpected trailing input", cur.pos)

    terms = []
    for coeff, shift, exponent, epos in raw_terms:
        if exponent < 0.0:
            raise DomainError(
                f"exponent must be >= 0 in a function spec, got {exponent!r} "
                f"(position {epos})"
            )
        terms.append(PowerTerm(coeff, shift, exponent))
    return FunctionModel(tuple(terms), lo, hi)


@dataclass(frozen=True)
class CertificationReport:
    """Outcome of an s-convexity or s-concavity check.

    ``kind`` is "proved", "refuted" or "sampled" (see the module docstring);
    ``rule`` names the rule, or "boundary triple", behind a proved or refuted
    report and is None when the sampler decided. ``worst_violation`` is the
    signed maximum of (violated side minus satisfied side) over the checked
    triples; positive means the defining inequality failed by that amount.
    ``witness`` is the (x, y, lambda) triple attaining it. ``verdict`` is
    True iff worst_violation <= tol. A proved report checked no triple: it
    carries samples = 0, worst_violation = tol = 0 (the exact supremum,
    reached at lambda = 0) and no witness. A refuted report carries the
    number of triples it checked: 1 for a rule's witness, 12 for a boundary
    triple, and the sampler's count (with its seed) otherwise. A sampled
    report always has verdict True.
    """

    verdict: bool
    worst_violation: float
    witness: tuple[float, float, float] | None
    samples: int
    s: float
    mode: str
    seed: int
    tol: float
    kind: str
    rule: str | None = None


def _check_certify_args(lo: float, hi: float, s: float, mode: str, samples: int, seed: int) -> None:
    if mode not in ("convex", "concave"):
        raise DomainError(f"mode must be 'convex' or 'concave', got {mode!r}")
    _check_s(s)
    _check_interval(lo, hi)
    if not 0 <= samples <= MAX_CERT_SAMPLES:
        raise DomainError(f"samples must lie in [0, {MAX_CERT_SAMPLES}], got {samples!r}")
    if seed < 0:
        raise DomainError(f"seed must be >= 0, got {seed!r}")


# The 12 boundary triples: lam in {0, 1/2, 1} against every endpoint pair
# (x, y), with x and y as indices 0 (a) and 1 (b) into a table's points, and
# their mix points as indices 2..13. _WITNESS[i] selects the triple (e, e,
# 1/2) at endpoint i, and _ALL every triple.
_LAM = np.repeat([0.0, 0.5, 1.0], 4)
_X_AT = np.tile([0, 0, 1, 1], 3)
_Y_AT = np.tile([0, 1, 0, 1], 3)
_MIX_AT = np.arange(2, 14)
_WITNESS = (np.array([4]), np.array([7]))
_ALL = np.arange(12)
_CERT_POINTS = 14


def _violation(wx, wy, gx, gy, gm, scale: float, mode: str) -> tuple[int, float, float]:
    """Index of the worst triple, its signed violation and the tolerance.

    The one violation rule of every deciding step. It reads each triple's
    weights lam^s and (1-lam)^s, with 0^s = 0, g at its x, its y and its mix
    point clip(lam*x + (1-lam)*y), and scale = max|g| over those values; the
    tolerance is CERT_TOL * (1 + scale). A scale that is not finite (so some
    g value is not) raises OverflowError: no verdict rests on it.
    """
    if not math.isfinite(scale):
        raise OverflowError("the hypothesis function is not finite at a sampled point")
    combo = wx * gx + wy * gy
    unit = 1.0
    if not np.isfinite(combo).all():
        # a finite g near the float range can overflow the sum; in max|g| units it cannot
        unit = scale
        gm, combo = gm / unit, wx * (gx / unit) + wy * (gy / unit)
    viol = gm - combo if mode == "convex" else combo - gm
    worst = int(np.argmax(viol))
    return worst, float(viol[worst]) * unit, CERT_TOL * (1.0 + scale)


def _max_abs(*values: np.ndarray) -> float:
    """max|g| over arrays of g values; inf if any value is not finite."""
    # one array at a time: a joined copy of the sampler's arrays costs 10x more
    maxes = [float(np.abs(v).max()) for v in values]
    return max(maxes) if all(map(math.isfinite, maxes)) else math.inf


def _boundary_triples(lo: float, hi: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(lam, x, y) for lam in {0, 1/2, 1} against every endpoint pair: 12 triples."""
    ends = np.array([lo, hi], dtype=float)
    return _LAM, ends[_X_AT], ends[_Y_AT]


def _mix_points(lam, xs, ys, lo: float, hi: float) -> np.ndarray:
    """clip(lam*x + (1-lam)*y, lo, hi) of each triple, where g is compared."""
    return np.clip(lam * xs + (1.0 - lam) * ys, lo, hi)


def _target_values(values, target: str, q: float | None):
    """The hypothesis function g (f, |f'| or |f'|^q) from its source's values."""
    if target == "f":
        return values
    if target == "abs_deriv":
        return np.abs(values)
    if target == "abs_deriv_pow":
        return np.abs(values) ** q
    raise DomainError(f"unknown certification target {target!r}")


class _PointTable:
    """One model evaluated once at every fixed point its certificates read.

    The points are a, b, then the mix points of the 12 boundary triples (a,
    b and clip(0.5*a + 0.5*b) in all but edge cases), then any extra points
    the caller reads itself, in ``values[14:]``. Each (target, q)'s g is
    derived from the first 14 values on its first use. A table lives for one
    sweep of a family, or one certify or bound call.
    """

    __slots__ = ("model", "a", "b", "xs", "ys", "values", "_hypotheses")

    def __init__(self, model: FunctionModel, a: float, b: float, extra=()) -> None:
        lam, xs, ys = _boundary_triples(a, b)
        self.model, self.a, self.b, self.xs, self.ys = model, a, b, xs, ys
        points = [(a, b), _mix_points(lam, xs, ys, a, b), extra]
        self.values = model.evaluate(np.concatenate(points))
        self._hypotheses: dict = {}

    def hypothesis(self, target: str, q: float | None) -> tuple[np.ndarray, tuple | None]:
        """g at the certificate points, and _rule_terms of g: computed on the
        first call per (target, q)."""
        got = self._hypotheses.get((target, q))
        if got is None:
            got = self._hypotheses[target, q] = (
                _target_values(self.values[:_CERT_POINTS], target, q),
                _rule_terms(self.model, target, q, self.a),
            )
        return got

    def ends_and_mid(self) -> tuple[float, float, float]:
        """The model at a, at b and at the mix point clip(0.5*a + 0.5*b)."""
        # point 7 is the mix point of the triple (a, b, 1/2)
        fa, fb, fm = self.values[[0, 1, 7]].tolist()
        return fa, fb, fm


@np.errstate(**_OVERFLOW_REFUSED)
def certify_pointwise(
    fn,
    lo: float,
    hi: float,
    s: float,
    mode: str,
    samples: int = CERT_SAMPLES,
    seed: int = 0,
) -> CertificationReport:
    """Sample-certify a vectorized callable on [lo, hi] in the second sense.

    mode "convex" checks g(lam x + (1-lam) y) <= lam^s g(x) + (1-lam)^s g(y);
    mode "concave" checks the reversed inequality. The weights lam^s use the
    continuous extension 0^s = 0 at lam in {0, 1}. Sampling is a seeded
    uniform draw over [lo, hi]^2 x [0, 1] after the 12 boundary triples
    (lam in {0, 1/2, 1} against all endpoint pairs). The report is "sampled"
    when it passes and "refuted" when its worst triple fails. Raises
    OverflowError when g is not finite at a sampled point.
    """
    _check_certify_args(lo, hi, s, mode, samples, seed)

    lam_b, xs_b, ys_b = _boundary_triples(lo, hi)
    rng = np.random.default_rng(seed)
    lam_r = rng.uniform(0.0, 1.0, samples)
    xs_r = rng.uniform(lo, hi, samples)
    ys_r = rng.uniform(lo, hi, samples)

    lam = np.concatenate([lam_b, lam_r])
    xs = np.concatenate([xs_b, xs_r])
    ys = np.concatenate([ys_b, ys_r])
    gx, gy, gm = (
        np.broadcast_to(np.asarray(fn(pts), dtype=float), pts.shape)
        for pts in (xs, ys, _mix_points(lam, xs, ys, lo, hi))
    )
    worst, worst_violation, tol = _violation(
        np.power(lam, s), np.power(1.0 - lam, s), gx, gy, gm, _max_abs(gx, gy, gm), mode
    )
    verdict = worst_violation <= tol
    return CertificationReport(
        verdict=verdict,
        worst_violation=worst_violation,
        witness=(float(xs[worst]), float(ys[worst]), float(lam[worst])),
        samples=int(lam.size),
        s=float(s),
        mode=mode,
        seed=int(seed),
        tol=tol,
        kind="sampled" if verdict else "refuted",
    )


def _refutation(table, g, at, s, mode, seed, rule) -> CertificationReport | None:
    """The refuted report of the worst of the boundary triples ``at`` (_ALL
    or a _WITNESS), from g at the table's points, or None if none fails."""
    # lam^s and (1-lam)^s of the 12 boundary triples
    wx, wy = np.power(_LAM, s), np.power(1.0 - _LAM, s)
    lam, xi, yi = _LAM[at], _X_AT[at], _Y_AT[at]
    gx, gy, gm = g[xi], g[yi], g[_MIX_AT[at]]
    worst, viol, tol = _violation(wx[at], wy[at], gx, gy, gm, _max_abs(gx, gy, gm), mode)
    if viol <= tol:
        return None
    return CertificationReport(
        verdict=False, worst_violation=viol,
        witness=(float(table.xs[at][worst]), float(table.ys[at][worst]), float(lam[worst])),
        samples=int(lam.size), s=float(s), mode=mode, seed=int(seed), tol=tol,
        kind="refuted", rule=rule,
    )


def _rule_terms(
    g_source: FunctionModel, target: str, q: float | None, a: float
) -> tuple[list[Fraction], bool] | None:
    """What the rules read of g's terms on [a, b]: the exact exponents of a
    nonnegative power sum (none when g = 0), and whether g is a power q of
    one; None when no rule applies."""
    terms = [t for t in g_source.terms if t.coeff != 0.0]
    if not terms:
        return [], False
    positive = {t.coeff > 0.0 for t in terms}
    if len(positive) > 1 or any(t.shift > a for t in terms):
        return None
    if target == "f" and positive == {False}:
        return None
    # g is now a sum of c*(u-c0)^r with c > 0 and c0 <= a (|f'| is -f' when
    # every term of f' is negative): each term is >= 0 on [a, b]
    exps = [Fraction(t.exponent) for t in terms]
    powered = target == "abs_deriv_pow" and len(exps) > 1  # g = (sum)^q
    if target == "abs_deriv_pow" and not powered:
        exps = [exps[0] * Fraction(q)]  # (c*(u-c0)^r)^q = c^q*(u-c0)^(r*q)
    return exps, powered


def _rule(
    terms: tuple[list[Fraction], bool] | None, s: float, mode: str
) -> tuple[str, str] | None:
    """("proved", rule) or ("refuted", rule) from _rule_terms of g, else None.

    A "refuted" answer is only a candidate: certify_model still has to
    confirm its witness numerically.
    """
    if terms is None:
        return None
    exps, powered = terms
    if not exps:
        return "proved", "g = 0"
    s_exact = Fraction(s)
    if mode == "convex":
        if powered:
            if all(r == 0 or r >= 1 for r in exps):
                return "proved", "|f'| is a nonnegative convex power sum and q >= 1"
            return None
        if all(r == 0 or r >= 1 or (0 < r and s_exact <= r) for r in exps):
            return "proved", "nonnegative power sum, each exponent 0, >= 1 or in [s, 1]"
        return None
    if s_exact == 1 and not powered and len(exps) == 1 and 0 <= exps[0] <= 1:
        return "proved", "one nonnegative power term with exponent in [0, 1]"
    if s_exact < 1 and all(r >= 0 for r in exps):
        # g >= 0 is nondecreasing, so its largest endpoint value is max g
        return "refuted", "a nonnegative s-concave g with s < 1 is 0"
    return None


def certify_model(
    g_source: FunctionModel,
    target: str,
    q: float | None,
    a: float,
    b: float,
    s: float,
    mode: str,
    samples: int = CERT_SAMPLES,
    seed: int = 0,
) -> CertificationReport:
    """Decide whether g is s-convex (mode "convex") or s-concave on [a, b].

    target "f" takes g = g_source; "abs_deriv" takes g = |g_source| and
    "abs_deriv_pow" g = |g_source|^q, where g_source is f' (q >= 1). A rule
    on the power-sum terms proves the hypothesis, or names a witness that
    the sampler's violation formula and tolerance confirm. Otherwise the 12
    boundary triples may refute it, and if they do not, certify_pointwise
    samples it with the given count and seed. Raises OverflowError where g
    is not finite: at a or b when a rule decides, else at a checked point.
    """
    table = _model_table(g_source, a, b, s, mode, samples, seed)
    return _certify(table, target, q, s, mode, samples, seed)


@np.errstate(**_OVERFLOW_REFUSED)
def _model_table(
    g_source: FunctionModel, a: float, b: float, s: float, mode: str, samples: int, seed: int
) -> _PointTable:
    """certify_model's argument checks, then the table of g_source over [a, b]."""
    _check_certify_args(a, b, s, mode, samples, seed)
    _check_interval(a, b, g_source.domain)
    return _PointTable(g_source, a, b)


@np.errstate(**_OVERFLOW_REFUSED)
def _certify(
    table: _PointTable,
    target: str,
    q: float | None,
    s: float,
    mode: str,
    samples: int = CERT_SAMPLES,
    seed: int = 0,
) -> CertificationReport:
    """certify_model on the table of g_source over [a, b]."""
    a, b = table.a, table.b
    _check_certify_args(a, b, s, mode, samples, seed)
    if target == "abs_deriv_pow":
        if q is None:
            raise DomainError("|f'|^q needs q >= 1, got None")
        _check_q(q)
    g, terms = table.hypothesis(target, q)
    decided = _rule(terms, s, mode)
    if decided is not None:
        kind, rule = decided
        # a rule reasons about real numbers; where g overflows in floats (it
        # is nondecreasing, so the endpoints show it) no verdict is given, and
        # the sampler, whose points include both endpoints, would only say so
        # after evaluating all of them
        if not np.isfinite(g[:2]).all():
            raise OverflowError("the hypothesis function is not finite at an endpoint")
        if kind == "proved":
            return CertificationReport(
                verdict=True, worst_violation=0.0, witness=None, samples=0,
                s=float(s), mode=mode, seed=int(seed), tol=0.0, kind=kind, rule=rule,
            )
        # the triple (e, e, 1/2) at the first endpoint of largest g: a on a tie
        at = _WITNESS[int(np.argmax(g[:2]))]
        if (refuted := _refutation(table, g, at, s, mode, seed, rule)):
            return refuted
    # the sampler's first 12 triples: most failures show here, before any draw
    if (refuted := _refutation(table, g, _ALL, s, mode, seed, "boundary triple")):
        return refuted
    model = table.model
    return certify_pointwise(
        lambda u: _target_values(model.evaluate(u), target, q), a, b, s, mode, samples, seed
    )
