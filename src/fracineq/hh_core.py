"""Hermite-Hadamard type bounds for Riemann-Liouville integrals of s-convex maps.

Everything here revolves around one algebraic identity for f in C^1(a, b) and
x in [a, b]:

    [(x-a)^alpha f(a) + (b-x)^alpha f(b)]/(b-a)
        - Gamma(alpha+1)/(b-a) * [ J1 + J2 ]
    = (x-a)^(alpha+1)/(b-a) * int_0^1 (t^alpha - 1) f'(t x + (1-t) a) dt
      + (b-x)^(alpha+1)/(b-a) * int_0^1 (1 - t^alpha) f'(t x + (1-t) b) dt

where J1 = (1/Gamma(alpha)) int_a^x (t-a)^(alpha-1) f(t) dt and
J2 = (1/Gamma(alpha)) int_x^b (b-t)^(alpha-1) f(t) dt. In terms of the
operators in :mod:`fracineq.rlint`, J1 is the right integral with terminal x
evaluated at a and J2 is the left integral with origin x evaluated at b.
One helper computes the left side: _identity_lhs_rows integrates J1 and J2
at every (alpha, x) of a function in one quadrature batch and maps each
alpha to its row of entries, or to the overflow that fails that alpha. A
sweep calls it once per family; identity_lhs_with_error calls it at one
alpha and one x.

Four closed-form upper bounds for |identity| are provided (ids t21..t24),
each valid under a certified convexity hypothesis on |f'| or |f'|^q:

    t21: |f'| s-convex, first-power bound via the constants c1, c2;
    t22: |f'|^q s-convex, Holder split with the constant c3(alpha, p)^(1/p);
    t23: |f'|^q s-convex, power-mean split; degenerates to t21 at q = 1;
    t24: |f'|^q s-concave, reverse endpoint-average bound at midpoints.

Their alpha = 1 specializations (ids c13..c16) are coded as an independent
arithmetic path for reduction checks. BOUNDS is the one table of all eight
ids: hypothesis, q rule, formula, and the note the CLI prints (t22 and
c14: each endpoint bracket averages |f'(x)|^q with that endpoint's |f'|^q;
c16: its weights carry exponent 2). rhs and bound serve every id through
one body. The t21..t24 rows (FRACTIONAL_BOUNDS) take precomputed floats,
so sweeps compute |f'|, weights and constants once; _deriv_table reads
|f'| at x, a, b and both midpoints in one evaluation.

hh_sandwich_with_error evaluates the two-sided endpoint-average inequality
for s-convex f >= 0 itself:

    2^(s-1) f((a+b)/2)  <=  (1/(b-a)) int_a^b f  <=  (f(a)+f(b))/(s+1)

whose right constant is attained by f(u) = u^s on [0, 1]. A caller that
holds a point table of f, as the sweep and the CLI do, calls _sandwich.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Callable
from dataclasses import dataclass, field
from enum import Enum
from typing import NamedTuple

import numpy as np

from .errors import DomainError, QuadratureToleranceError
from .funcmodel import (
    CERT_SAMPLES,
    CertificationReport,
    FunctionModel,
    _certify,
    _check_finite,
    _check_interval,
    _check_p,
    _check_q,
    _check_s,
    _PointTable,
)
from .rlint import (
    DEFAULT_CONFIG,
    QuadratureConfig,
    integrate_adaptive,
    rl_batch_with_error,
)
from .specfun import log_gamma

__all__ = [
    "TheoremId",
    "ProblemInstance",
    "BoundReport",
    "proof_constants",
    "identity_lhs_with_error",
    "identity_rhs_with_error",
    "bound",
    "bound_t21",
    "bound_t22",
    "bound_t23",
    "bound_t24",
    "bound_classical",
    "hh_sandwich_with_error",
]

# The smallest order the closed forms of c2 and c3 hold to. Below it c2's
# 1/(s+1) - B(alpha+1, s+1) and c3's log-Gamma difference at 1/alpha cancel:
# against mpmath they lose about 1e-11 relative at 1e-4, 1e-3 at 1e-12, and
# by 1e-17 c2 can come out <= 0.
ALPHA_MIN = 1e-4


class TheoremId(str, Enum):
    """Identifiers for the bound evaluators and the endpoint sandwich."""

    T21 = "T21"
    T22 = "T22"
    T23 = "T23"
    T24 = "T24"
    C13 = "C13"
    C14 = "C14"
    C15 = "C15"
    C16 = "C16"
    HH11 = "HH11"


def _check_alpha(alpha: float, name: str = "alpha") -> None:
    """The one rule for every alpha: finite and at least ALPHA_MIN (NaN fails)."""
    if not alpha >= ALPHA_MIN:
        raise DomainError(f"{name} must be at least {ALPHA_MIN:g}, got {alpha!r}")
    _check_finite(alpha, name)


@dataclass(frozen=True)
class ProblemInstance:
    """One bound evaluation: a model, an interval, the split point and orders.

    Each parameter passes its one check: [a, b] and x against f's domain
    (an x of None fails too), alpha, s, then q. p is not an argument: it is
    q's conjugate q/(q - 1), and None where q is None or 1 (only the
    power-mean bound accepts q = 1, and the formula needs no p there).
    """

    f: FunctionModel
    a: float
    b: float
    x: float
    alpha: float
    s: float
    q: float | None = None
    p: float | None = field(init=False)

    def __post_init__(self) -> None:
        _check_interval(self.a, self.b, self.f.domain, self.x)
        if self.x is None:  # which _check_interval reads as "no x"
            raise DomainError(f"x must lie in [{self.a!r}, {self.b!r}], got None")
        _check_alpha(self.alpha)
        _check_s(self.s)
        object.__setattr__(self, "p", _check_q(self.q))


@dataclass(frozen=True)
class BoundReport:
    """Evaluated bound with its tightness diagnostics.

    margin = rhs - lhs exactly as computed; ratio = lhs/rhs with the 0/0
    case reported as 0. A failed hypothesis certificate never blocks the
    evaluation; certification.verdict records it.
    """

    theorem_id: TheoremId
    lhs: float
    rhs: float
    margin: float
    ratio: float
    certification: CertificationReport
    quad_error_est: float = 0.0


class ProofConstants(NamedTuple):
    """The three closed-form unit integrals behind the bounds."""

    c1: float  # int_0^1 (1 - t^alpha) t^s dt
    c2: float  # int_0^1 (1 - t^alpha) (1 - t)^s dt
    c3: float  # int_0^1 (1 - t^alpha)^p dt


class HHSandwich(NamedTuple):
    left: float
    mid: float
    right: float

    @property
    def margin(self) -> float:
        """The smaller of the two slacks, so one rule decides both inequalities."""
        return min(self.right - self.mid, self.mid - self.left)


def _ratio(lhs: float, rhs: float) -> float:
    if rhs == 0.0:
        return 0.0 if lhs == 0.0 else math.inf
    return lhs / rhs


def _c1(alpha: float, s: float) -> float:
    # past 1e300 the product can overflow, and c1 is 1/(s + 1) to the last bit
    return alpha / ((s + 1.0) * (alpha + s + 1.0)) if alpha < 1e300 else 1.0 / (s + 1.0)


def _c2(alpha: float, s: float) -> float:
    if alpha > 1e8:
        # log_gamma(alpha + 1) has lost the digits of the difference; to
        # O(1/alpha) it is -(s + 1) log(alpha + 1), and B < 1e-8 here
        ratio = math.exp(log_gamma(s + 1.0) - (s + 1.0) * math.log(alpha + 1.0))
    else:
        ratio = math.exp(
            log_gamma(alpha + 1.0) + log_gamma(s + 1.0) - log_gamma(alpha + s + 2.0)
        )
    return 1.0 / (s + 1.0) - ratio


# From this p on, _log_c3 takes log Gamma(z + h) - log Gamma(z), z = 1 + p,
# from Stirling's series: the difference of two log-Gammas of about p log p
# keeps only their last digits (c3 was 2.2e-7 off at p = 1e8, and 1.0 for
# 1/(1 + p) at 1e17). Every p of the shipped and deep grids is below it.
_C3_STIRLING_P = 1e3


def _log_c3(alpha: float, p: float) -> float:
    inv = 1.0 / alpha
    if p < _C3_STIRLING_P:
        return log_gamma(1.0 + p) + log_gamma(1.0 + inv) - log_gamma(1.0 + p + inv)
    # log Gamma(w) = (w - 1/2) log w - w + log(2 pi)/2 + mu(w), with
    # mu(w) = 1/(12 w) - 1/(360 w^3) + O(w^-5), taken at w = z + h and w = z
    z = 1.0 + p

    def mu(w: float) -> float:
        return (1.0 - 1.0 / (30.0 * w * w)) / (12.0 * w)

    shift = (z - 0.5) * math.log1p(inv / z) + inv * (math.log(z + inv) - 1.0)
    return log_gamma(1.0 + inv) - (shift + (mu(z + inv) - mu(z)))


def proof_constants(alpha: float, s: float, p: float) -> ProofConstants:
    """Closed forms of the three unit integrals for alpha >= ALPHA_MIN, s in
    (0, 1], p > 1."""
    _check_alpha(alpha)
    _check_s(s)
    _check_p(p)
    return ProofConstants(_c1(alpha, s), _c2(alpha, s), math.exp(_log_c3(alpha, p)))


def identity_lhs_with_error(
    inst: ProblemInstance, cfg: QuadratureConfig = DEFAULT_CONFIG
) -> tuple[float, float]:
    """Signed left side of the identity and its quadrature error estimate:
    _identity_lhs_rows at the instance's one alpha and one x, which raises
    the alpha's OverflowError, else the point's QuadratureToleranceError."""
    row = _identity_lhs_rows(inst.f, inst.a, inst.b, [inst.alpha], [inst.x], cfg)[inst.alpha]
    if isinstance(row, OverflowError):
        raise row
    if isinstance(row[0], QuadratureToleranceError):
        raise row[0]
    return row[0]


def _identity_lhs_rows(
    f: FunctionModel, a: float, b: float, alphas, xs, cfg: QuadratureConfig
) -> dict:
    """The identity's signed left side at every (alpha, x), each of which
    would make a valid ProblemInstance on f over [a, b], alpha by alpha.

    J1 and J2 of every (alpha, x) are rows of one quadrature batch, whatever
    their alpha. Each alpha maps to the entry of each x: (lhs,
    error_estimate), or J1's QuadratureToleranceError if J1 fails, else
    J2's. An alpha whose boundary terms, J scales or Gamma factor overflow
    maps instead to the first such OverflowError, in that order, which fails
    it as a whole.
    """
    fa, fb = f.evaluate([a, b]).tolist()
    rows: dict = {}  # alpha -> each x's boundary term, then its entry; or the overflow
    for alpha in dict.fromkeys(alphas):
        try:
            rows[alpha] = [((x - a) ** alpha * fa + (b - x) ** alpha * fb) / (b - a) for x in xs]
        except OverflowError as exc:
            rows[alpha] = exc
    live = [alpha for alpha, row in rows.items() if isinstance(row, list)]
    js = iter(rl_batch_with_error(
        f, [(alpha, x, end) for alpha in live for x in xs for end in (a, b)], cfg
    ))
    for alpha in live:
        pairs = [(next(js), next(js)) for _ in xs]
        overflows = [j for pair in pairs for j in pair if isinstance(j, OverflowError)]
        try:
            g = math.exp(log_gamma(alpha + 1.0)) / (b - a)
        except OverflowError as exc:
            overflows.append(exc)
        if overflows:
            rows[alpha] = overflows[0]
            continue
        entries = []
        for boundary, (j1, j2) in zip(rows[alpha], pairs):
            failures = [j for j in (j1, j2) if isinstance(j, QuadratureToleranceError)]
            entries.append(
                failures[0] if failures
                else (boundary - g * (j1[0] + j2[0]), g * (j1[1] + j2[1]))
            )
        rows[alpha] = entries
    return rows


def identity_rhs_with_error(
    inst: ProblemInstance, cfg: QuadratureConfig = DEFAULT_CONFIG
) -> tuple[float, float]:
    """Signed right side of the identity (the two weighted f' integrals).

    Both integrals, each of which has a nonzero weight, are rows of one
    quadrature batch; a failure raises the a side's error first.
    """
    f, a, b, x, alpha = inst.f, inst.a, inst.b, inst.x, inst.alpha
    fp = f.derivative()
    # per side with a nonzero weight: the weight, and the integrand's end,
    # sign and clip bounds; the b side's kernel (1 - t^alpha) is
    # -(t^alpha - 1), exactly in IEEE
    weights, table = [], []
    wa, wb = bound_weights(a, b, x, alpha)
    for w, end, sign in ((wa, a, 1.0), (wb, b, -1.0)):
        if w != 0.0:
            weights.append(w)
            table.append((end, sign, min(x, end), max(x, end)))
    if not weights:
        return 0.0, 0.0
    table = np.array(table)
    columns = table.T[:, :, None]

    def integrand(v):
        every = len(v.rows) == len(weights)
        e, sg, lo, hi = columns if every else table[v.rows].T[:, :, None]
        # C order, as in rlint's integrands
        t = np.ascontiguousarray(v)
        u = np.clip(t * x + (1.0 - t) * e, lo, hi)
        # u lies in [a, b], inside fp's domain: no scan needed
        return sg * (np.power(t, alpha) - 1.0) * fp._values(u)

    total, err = 0.0, 0.0
    tols = [cfg.abs_tol] * len(weights)
    for w, got in zip(weights, integrate_adaptive(integrand, 0.0, 1.0, cfg, tols)):
        if isinstance(got, QuadratureToleranceError):
            raise got
        total += w * got[0]
        err += w * got[1]
    return total, err


def bound_weights(a: float, b: float, x: float, alpha: float) -> tuple[float, float]:
    """Endpoint weights (x-a)^(alpha+1)/(b-a) and (b-x)^(alpha+1)/(b-a)."""
    return (
        (x - a) ** (alpha + 1.0) / (b - a),
        (b - x) ** (alpha + 1.0) / (b - a),
    )


def c1_c2(alpha: float, s: float) -> tuple[float, float]:
    """The constants c1, c2 of the t21 and t23 right sides."""
    return _c1(alpha, s), _c2(alpha, s)


def c3_root(alpha: float, p: float) -> float:
    """c3(alpha, p)^(1/p), the Holder constant of the t22 and t24 right sides;
    from log c3 where c3 is below the normal floats (small alpha, large p)."""
    c3 = math.exp(_log_c3(alpha, p))
    return c3 ** (1.0 / p) if c3 >= sys.float_info.min else math.exp(_log_c3(alpha, p) / p)


class DerivValues(NamedTuple):
    """|f'| at the five points the bounds t21..t24 read."""

    x: float
    a: float
    b: float
    mid_a: float  # at (x + a)/2
    mid_b: float  # at (x + b)/2


# One right-side formula per fractional bound, on |f'| values, the weights,
# and c1, c2 from c1_c2 or c3p from c3_root; rhs and the sweep both apply it.


def _formula_t21(d, wa, wb, alpha, s, q, c1, c2, c3p):
    return wa * (c1 * d.x + c2 * d.a) + wb * (c1 * d.x + c2 * d.b)


def _formula_t22(d, wa, wb, alpha, s, q, c1, c2, c3p):
    inner_a = ((d.x**q + d.a**q) / (s + 1.0)) ** (1.0 / q)
    inner_b = ((d.x**q + d.b**q) / (s + 1.0)) ** (1.0 / q)
    return c3p * (wa * inner_a + wb * inner_b)


def _formula_t23(d, wa, wb, alpha, s, q, c1, c2, c3p):
    kappa = alpha / (alpha + 1.0)
    pref = kappa ** (1.0 - 1.0 / q)
    inner_a = (c1 * d.x**q + c2 * d.a**q) ** (1.0 / q)
    inner_b = (c1 * d.x**q + c2 * d.b**q) ** (1.0 / q)
    return pref * (wa * inner_a + wb * inner_b)


def _formula_t24(d, wa, wb, alpha, s, q, c1, c2, c3p):
    pref = c3p * 2.0 ** ((s - 1.0) / q)
    return pref * (wa * d.mid_a + wb * d.mid_b)


# The alpha = 1 forms c13..c16 read |f'| and their (x-a)^2/(b-a) weights
# themselves and never call the Gamma machinery: they are the independent
# arithmetic the alpha -> 1 reductions of t21..t24 are checked against.


def _classical_reads(inst: ProblemInstance, fp: FunctionModel) -> tuple[float, ...]:
    """|f'| at x, a and b, then the weights (x-a)^2/(b-a) and (b-x)^2/(b-a)."""
    a, b, x = inst.a, inst.b, inst.x
    fx, fa, fb = (abs(fp.evaluate(u)) for u in (x, a, b))
    return fx, fa, fb, (x - a) ** 2 / (b - a), (b - x) ** 2 / (b - a)


def _formula_c13(inst, fp, q):
    fx, fa, fb, va, vb = _classical_reads(inst, fp)
    a, b, x, s = inst.a, inst.b, inst.x, inst.s
    total = fx / ((s + 1.0) * (s + 2.0)) * (((x - a) ** 2 + (b - x) ** 2) / (b - a))
    return total + (va * fa + vb * fb) / (s + 2.0)


def _formula_c14(inst, fp, q):
    fx, fa, fb, va, vb = _classical_reads(inst, fp)
    s, p = inst.s, inst.p
    pref = (1.0 / (p + 1.0)) ** (1.0 / p)
    total = va * pref * ((fx**q + fa**q) / (s + 1.0)) ** (1.0 / q)
    return total + vb * pref * ((fx**q + fb**q) / (s + 1.0)) ** (1.0 / q)


def _formula_c15(inst, fp, q):
    fx, fa, fb, va, vb = _classical_reads(inst, fp)
    s = inst.s
    pref = 0.5 ** (1.0 - 1.0 / q)
    inner = fx**q / ((s + 1.0) * (s + 2.0))
    total = va * pref * (inner + fa**q / (s + 2.0)) ** (1.0 / q)
    return total + vb * pref * (inner + fb**q / (s + 2.0)) ** (1.0 / q)


def _formula_c16(inst, fp, q):
    # weight exponent 2, the alpha = 1 reading of the bound
    a, b, x, s, p = inst.a, inst.b, inst.x, inst.s, inst.p
    fma = abs(fp.evaluate(0.5 * (x + a)))
    fmb = abs(fp.evaluate(0.5 * (x + b)))
    return (
        2.0 ** ((s - 1.0) / q)
        / ((1.0 + p) ** (1.0 / p) * (b - a))
        * ((x - a) ** 2 * fma + (b - x) ** 2 * fmb)
    )


class BoundSpec(NamedTuple):
    """How one bound is certified, evaluated and explained."""

    target: str  # hypothesis function: "abs_deriv" is |f'|, "abs_deriv_pow" |f'|^q
    mode: str  # "convex" or "concave"
    q_name: str | None  # the bound's name in q errors; None when q is unused
    holder: bool  # needs q > 1; the fractional ones use c3^(1/p), not c1, c2
    # fractional: (d, wa, wb, alpha, s, q, c1, c2, c3p) as above; classical: (inst, f', q)
    formula: Callable[..., float]
    note: str | None = None  # the convention line the CLI prints with the bound


_BRACKET_NOTE = "note: each endpoint bracket averages |f'(x)|^q with that endpoint's |f'|^q"

FRACTIONAL_BOUNDS = {
    TheoremId.T21: BoundSpec("abs_deriv", "convex", None, False, _formula_t21),
    TheoremId.T22: BoundSpec(
        "abs_deriv_pow", "convex", "the Holder-split bound", True, _formula_t22, _BRACKET_NOTE
    ),
    TheoremId.T23: BoundSpec(
        "abs_deriv_pow", "convex", "the power-mean bound", False, _formula_t23
    ),
    TheoremId.T24: BoundSpec(
        "abs_deriv_pow", "concave", "the concave midpoint bound", True, _formula_t24
    ),
}

# every bound id: the fractional ones, then their alpha = 1 forms
BOUNDS = {
    **FRACTIONAL_BOUNDS,
    TheoremId.C13: BoundSpec("abs_deriv", "convex", None, False, _formula_c13),
    TheoremId.C14: BoundSpec("abs_deriv_pow", "convex", "c14", True, _formula_c14, _BRACKET_NOTE),
    TheoremId.C15: BoundSpec("abs_deriv_pow", "convex", "c15", False, _formula_c15),
    TheoremId.C16: BoundSpec(
        "abs_deriv_pow", "concave", "c16", True, _formula_c16,
        "note: endpoint derivative weights are (x-a)^2 and (b-x)^2 over (b-a)",
    ),
}


def _deriv_table(
    fp: FunctionModel, a: float, b: float, xs: list[float]
) -> tuple[_PointTable, list[DerivValues]]:
    """f' on [a, b] in one evaluation, and |f'| at each x's points.

    The table holds f' at the points the certificates read, then at each x
    and at the midpoints (x+a)/2 and (x+b)/2; |f'(a)| and |f'(b)| are the
    certificates' own a and b.
    """
    n = len(xs)
    extra = xs + [0.5 * (x + a) for x in xs] + [0.5 * (x + b) for x in xs]
    table = _PointTable(fp, a, b, extra)
    # Python floats, so each formula's arithmetic stays its own
    absvals = np.abs(table.values).tolist()
    rest = absvals[len(absvals) - len(extra):]
    fa, fb = absvals[:2]
    points = zip(rest[:n], rest[n : 2 * n], rest[2 * n :])  # x and its two midpoints
    return table, [DerivValues(fx, fa, fb, fma, fmb) for fx, fma, fmb in points]


def rhs(theorem_id: TheoremId | str, inst: ProblemInstance) -> float:
    """Right side of any bound id in BOUNDS for one instance.

    Checks what the id's row asks of the instance first: alpha = 1 exactly
    for the classical ids, q for a bound with a q name, and q > 1 for a
    Holder one.
    """
    return _rhs_and_table(TheoremId(theorem_id), inst)[0]


def _rhs_and_table(tid: TheoremId, inst: ProblemInstance) -> tuple[float, _PointTable]:
    """rhs(tid, inst) and the table of f' it read, which bound's certificate
    reads too."""
    if tid not in BOUNDS:
        raise DomainError(f"{tid.value} is not a bound id")
    spec = BOUNDS[tid]
    if tid not in FRACTIONAL_BOUNDS and inst.alpha != 1.0:
        raise DomainError(
            f"classical bounds require alpha = 1, got alpha={inst.alpha!r}"
        )
    q = None
    if spec.q_name is not None:
        q = inst.q
        if q is None:
            raise DomainError(f"{spec.q_name} requires the exponent q")
        if spec.holder and not q > 1.0:
            raise DomainError(f"{spec.q_name} requires q > 1, got {q!r}")
    fp = inst.f.derivative()
    if tid not in FRACTIONAL_BOUNDS:
        return spec.formula(inst, fp, q), _PointTable(fp, inst.a, inst.b)
    table, (d,) = _deriv_table(fp, inst.a, inst.b, [inst.x])
    wa, wb = bound_weights(inst.a, inst.b, inst.x, inst.alpha)
    c1 = c2 = c3p = math.nan
    if spec.holder:
        c3p = c3_root(inst.alpha, inst.p)
    else:
        c1, c2 = c1_c2(inst.alpha, inst.s)
    return spec.formula(d, wa, wb, inst.alpha, inst.s, q, c1, c2, c3p), table


def rhs_t21(inst: ProblemInstance) -> float:
    """First-power bound right side; no q involved."""
    return rhs(TheoremId.T21, inst)


def rhs_t22(inst: ProblemInstance) -> float:
    """Holder-split bound right side; needs a conjugate pair with q > 1."""
    return rhs(TheoremId.T22, inst)


def rhs_t23(inst: ProblemInstance) -> float:
    """Power-mean bound right side; q = 1 reproduces rhs_t21 exactly.

    The second bracket pairs with |f'(b)|^q (right endpoint), matching the
    first bracket's pairing with |f'(a)|^q.
    """
    return rhs(TheoremId.T23, inst)


def rhs_t24(inst: ProblemInstance) -> float:
    """Reverse endpoint-average bound right side (s-concave |f'|^q)."""
    return rhs(TheoremId.T24, inst)


def bound(
    theorem_id: TheoremId | str,
    inst: ProblemInstance,
    cfg: QuadratureConfig = DEFAULT_CONFIG,
    samples: int = CERT_SAMPLES,
    seed: int = 0,
) -> BoundReport:
    """Evaluate any bound id in BOUNDS: |identity| against its right side.

    The right side runs the row's checks first; then the row's hypothesis is
    certified on [a, b] and the identity's left side integrated. A failed
    certificate never blocks the evaluation.
    """
    tid = TheoremId(theorem_id)
    r, table = _rhs_and_table(tid, inst)
    spec = BOUNDS[tid]
    cert = _certify(table, spec.target, inst.q, inst.s, spec.mode, samples, seed)
    lhs, qerr = identity_lhs_with_error(inst, cfg)
    lhs = abs(lhs)
    return BoundReport(
        theorem_id=tid,
        lhs=lhs,
        rhs=r,
        margin=r - lhs,
        ratio=_ratio(lhs, r),
        certification=cert,
        quad_error_est=qerr,
    )


def bound_t21(
    inst: ProblemInstance,
    cfg: QuadratureConfig = DEFAULT_CONFIG,
    samples: int = CERT_SAMPLES,
    seed: int = 0,
) -> BoundReport:
    """First-power bound: |identity| vs c1/c2-weighted endpoint derivatives."""
    return bound(TheoremId.T21, inst, cfg, samples, seed)


def bound_t22(
    inst: ProblemInstance,
    cfg: QuadratureConfig = DEFAULT_CONFIG,
    samples: int = CERT_SAMPLES,
    seed: int = 0,
) -> BoundReport:
    """Holder-split bound under s-convex |f'|^q."""
    return bound(TheoremId.T22, inst, cfg, samples, seed)


def bound_t23(
    inst: ProblemInstance,
    cfg: QuadratureConfig = DEFAULT_CONFIG,
    samples: int = CERT_SAMPLES,
    seed: int = 0,
) -> BoundReport:
    """Power-mean bound under s-convex |f'|^q; q = 1 collapses to bound_t21."""
    return bound(TheoremId.T23, inst, cfg, samples, seed)


def bound_t24(
    inst: ProblemInstance,
    cfg: QuadratureConfig = DEFAULT_CONFIG,
    samples: int = CERT_SAMPLES,
    seed: int = 0,
) -> BoundReport:
    """Reverse endpoint-average bound under s-concave |f'|^q."""
    return bound(TheoremId.T24, inst, cfg, samples, seed)


def bound_classical(
    theorem_id: TheoremId | str,
    inst: ProblemInstance,
    cfg: QuadratureConfig = DEFAULT_CONFIG,
    samples: int = CERT_SAMPLES,
    seed: int = 0,
) -> BoundReport:
    """Classical (alpha = 1) bounds c13..c16 on an independent arithmetic path.

    These never call the Gamma machinery; they exist so the alpha -> 1
    reductions of the fractional bounds can be checked against separately
    coded formulas. Requires inst.alpha == 1 exactly.
    """
    tid = TheoremId(theorem_id)
    if tid not in BOUNDS or tid in FRACTIONAL_BOUNDS:
        raise DomainError(f"bound_classical expects one of C13..C16, got {tid.value}")
    return bound(tid, inst, cfg, samples, seed)


def hh_sandwich_with_error(
    f: FunctionModel,
    a: float,
    b: float,
    s: float,
    cfg: QuadratureConfig = DEFAULT_CONFIG,
) -> tuple[HHSandwich, float]:
    """Endpoint-average sandwich values plus the mean-integral error estimate."""
    _check_s(s)
    _check_interval(a, b, f.domain)
    integral = integrate_adaptive(f.evaluate, a, b, cfg)
    return _sandwich(_PointTable(f, a, b).ends_and_mid(), a, b, s, integral)


def _sandwich(
    ends_and_mid: tuple[float, float, float],
    a: float,
    b: float,
    s: float,
    integral: tuple[float, float],
) -> tuple[HHSandwich, float]:
    """The sandwich at s from f at a, b and clip(0.5*a + 0.5*b) and the
    (value, error_estimate) of int_a^b f; none of them depends on s, so a
    sweep reads them once per family."""
    fa, fb, fm = ends_and_mid
    value, err = integral
    left = 2.0 ** (s - 1.0) * fm
    right = (fa + fb) / (s + 1.0)
    return HHSandwich(left, value / (b - a), right), err / (b - a)

