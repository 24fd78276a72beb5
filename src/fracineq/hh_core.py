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

Four closed-form upper bounds for |identity| are provided (ids t21..t24),
each valid under a certified convexity hypothesis on |f'| or |f'|^q:

    t21: |f'| s-convex, first-power bound via the constants c1, c2;
    t22: |f'|^q s-convex, Holder split with the constant c3(alpha, p)^(1/p);
    t23: |f'|^q s-convex, power-mean split; degenerates to t21 at q = 1;
    t24: |f'|^q s-concave, reverse endpoint-average bound at midpoints.

Their alpha = 1 specializations (ids c13..c16) are coded as an independent
arithmetic path for reduction checks. Two conventions here are deliberate
and surfaced in CLI output: the second bracket of t23 pairs with the right
endpoint derivative |f'(b)|^q, and the weights of c16 carry exponent 2.

Each t21..t24 right side is one formula on precomputed floats (rhs_from_values,
dispatched by the FRACTIONAL_BOUNDS table, which also names each bound's
hypothesis). rhs_t21..rhs_t24 evaluate |f'|, the weights and the constants
for one instance and apply it; sweeps compute those inputs once and reuse
them across records.

hh_sandwich evaluates the two-sided endpoint-average inequality for s-convex
f >= 0 itself:

    2^(s-1) f((a+b)/2)  <=  (1/(b-a)) int_a^b f  <=  (f(a)+f(b))/(s+1)

whose right constant is attained by f(u) = u^s on [0, 1].
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterable
from dataclasses import dataclass, field
from enum import Enum
from typing import NamedTuple

import numpy as np

from .errors import DomainError
from .funcmodel import (
    CERT_SAMPLES,
    CertificationReport,
    FunctionModel,
    certify_model,
)
from .rlint import (
    DEFAULT_CONFIG,
    QuadratureConfig,
    integrate_adaptive,
    rl_left_with_error,
    rl_right_with_error,
)
from .specfun import log_gamma

__all__ = [
    "TheoremId",
    "BoundSpec",
    "FRACTIONAL_BOUNDS",
    "ProblemInstance",
    "BoundReport",
    "ProofConstants",
    "HHSandwich",
    "identity_lhs",
    "identity_rhs",
    "identity_lhs_with_error",
    "identity_rhs_with_error",
    "bound_t21",
    "bound_t22",
    "bound_t23",
    "bound_t24",
    "bound_classical",
    "rhs_t21",
    "rhs_t22",
    "rhs_t23",
    "rhs_t24",
    "DerivValues",
    "abs_deriv_values",
    "bound_weights",
    "c1_c2",
    "c3_root",
    "rhs_from_values",
    "hh_sandwich",
    "hh_sandwich_with_error",
    "proof_constants",
    "conjugate_exponent",
]

# |1/p + 1/q - 1| must stay below this for a conjugate pair.
CONJUGACY_TOL = 1e-12


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


def conjugate_exponent(q: float) -> float:
    """p with 1/p + 1/q = 1 for q > 1."""
    if not q > 1.0:
        raise DomainError(f"conjugate exponent needs q > 1, got {q!r}")
    return q / (q - 1.0)


@dataclass(frozen=True)
class ProblemInstance:
    """One bound evaluation: a model, an interval, the split point and orders.

    p is derived from q when only q is supplied; when both are given they
    must be conjugate to within CONJUGACY_TOL. q = 1 leaves p unset (only the
    power-mean bound accepts it, and the formula needs no p there).
    """

    f: FunctionModel
    a: float
    b: float
    x: float
    alpha: float
    s: float
    p: float | None = None
    q: float | None = None

    def __post_init__(self) -> None:
        for name in ("a", "b", "x", "alpha", "s", "p", "q"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise DomainError(f"{name} must be finite")
        if not self.a < self.b:
            raise DomainError(f"requires a < b, got a={self.a!r}, b={self.b!r}")
        if not (self.f.lo <= self.a and self.b <= self.f.hi):
            raise DomainError(
                f"[a, b] = [{self.a!r}, {self.b!r}] exceeds the model domain "
                f"[{self.f.lo!r}, {self.f.hi!r}]"
            )
        if not self.a <= self.x <= self.b:
            raise DomainError(f"x must lie in [a, b], got x={self.x!r}")
        if not self.alpha > 0.0:
            raise DomainError(f"alpha must be positive, got {self.alpha!r}")
        if not 0.0 < self.s <= 1.0:
            raise DomainError(f"s must lie in (0, 1], got {self.s!r}")
        if self.q is not None and not self.q >= 1.0:
            raise DomainError(f"q must satisfy q >= 1, got {self.q!r}")
        if self.p is not None and not self.p > 1.0:
            raise DomainError(f"p must satisfy p > 1, got {self.p!r}")
        if self.p is None and self.q is not None and self.q > 1.0:
            object.__setattr__(self, "p", conjugate_exponent(self.q))
        if self.p is not None and self.q is not None:
            defect = abs(1.0 / self.p + 1.0 / self.q - 1.0)
            if defect > CONJUGACY_TOL:
                raise DomainError(
                    f"p={self.p!r} and q={self.q!r} are not conjugate "
                    f"(|1/p + 1/q - 1| = {defect:.3e})"
                )


@dataclass(frozen=True)
class BoundReport:
    """Evaluated bound with its tightness diagnostics.

    margin = rhs - lhs exactly as computed; ratio = lhs/rhs with the 0/0
    case reported as 0. A failed hypothesis certificate never blocks the
    evaluation; it is recorded in hypothesis_certified.
    """

    theorem_id: TheoremId
    lhs: float
    rhs: float
    margin: float
    ratio: float
    params: ProblemInstance
    hypothesis_certified: bool
    certification: CertificationReport = field(repr=False)
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


def _ratio(lhs: float, rhs: float) -> float:
    if rhs == 0.0:
        return 0.0 if lhs == 0.0 else math.inf
    return lhs / rhs


def _c1(alpha: float, s: float) -> float:
    return alpha / ((s + 1.0) * (alpha + s + 1.0))


def _c2(alpha: float, s: float) -> float:
    ratio = math.exp(
        log_gamma(alpha + 1.0) + log_gamma(s + 1.0) - log_gamma(alpha + s + 2.0)
    )
    return 1.0 / (s + 1.0) - ratio


def _c3(alpha: float, p: float) -> float:
    inv = 1.0 / alpha
    return math.exp(
        log_gamma(1.0 + p) + log_gamma(1.0 + inv) - log_gamma(1.0 + p + inv)
    )


def proof_constants(alpha: float, s: float, p: float) -> ProofConstants:
    """Closed forms of the three unit integrals for alpha > 0, s in (0,1], p > 1."""
    if not alpha > 0.0:
        raise DomainError(f"alpha must be positive, got {alpha!r}")
    if not 0.0 < s <= 1.0:
        raise DomainError(f"s must lie in (0, 1], got {s!r}")
    if not p > 1.0:
        raise DomainError(f"p must satisfy p > 1, got {p!r}")
    return ProofConstants(_c1(alpha, s), _c2(alpha, s), _c3(alpha, p))


def identity_lhs_with_error(
    inst: ProblemInstance, cfg: QuadratureConfig = DEFAULT_CONFIG
) -> tuple[float, float]:
    """Signed left side of the identity and its quadrature error estimate."""
    f, a, b, x, alpha = inst.f, inst.a, inst.b, inst.x, inst.alpha
    boundary = ((x - a) ** alpha * f.evaluate(a) + (b - x) ** alpha * f.evaluate(b)) / (
        b - a
    )
    j1, e1 = rl_right_with_error(f, x, alpha, a, cfg)
    j2, e2 = rl_left_with_error(f, x, alpha, b, cfg)
    gfac = math.exp(log_gamma(alpha + 1.0)) / (b - a)
    return boundary - gfac * (j1 + j2), gfac * (e1 + e2)


def identity_lhs(inst: ProblemInstance, cfg: QuadratureConfig = DEFAULT_CONFIG) -> float:
    return identity_lhs_with_error(inst, cfg)[0]


def identity_rhs_with_error(
    inst: ProblemInstance, cfg: QuadratureConfig = DEFAULT_CONFIG
) -> tuple[float, float]:
    """Signed right side of the identity (the two weighted f' integrals)."""
    f, a, b, x, alpha = inst.f, inst.a, inst.b, inst.x, inst.alpha
    fp = f.derivative()
    w1 = (x - a) ** (alpha + 1.0) / (b - a)
    w2 = (b - x) ** (alpha + 1.0) / (b - a)
    total, err = 0.0, 0.0
    if w1 != 0.0:
        i1, e1 = integrate_adaptive(
            lambda t: (np.power(t, alpha) - 1.0)
            * fp.evaluate(np.clip(t * x + (1.0 - t) * a, a, x)),
            0.0,
            1.0,
            cfg,
        )
        total += w1 * i1
        err += w1 * e1
    if w2 != 0.0:
        i2, e2 = integrate_adaptive(
            lambda t: (1.0 - np.power(t, alpha))
            * fp.evaluate(np.clip(t * x + (1.0 - t) * b, x, b)),
            0.0,
            1.0,
            cfg,
        )
        total += w2 * i2
        err += w2 * e2
    return total, err


def identity_rhs(inst: ProblemInstance, cfg: QuadratureConfig = DEFAULT_CONFIG) -> float:
    return identity_rhs_with_error(inst, cfg)[0]


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
    """c3(alpha, p)^(1/p), the Holder constant of the t22 and t24 right sides."""
    return _c3(alpha, p) ** (1.0 / p)


def _abs_deriv_at(fp: FunctionModel, u: float) -> float:
    return abs(fp.evaluate(u))


def _require_q(inst: ProblemInstance, theorem: str, minimum: float) -> float:
    if inst.q is None:
        raise DomainError(f"{theorem} requires the exponent q")
    if inst.q < minimum:
        raise DomainError(f"{theorem} requires q >= {minimum}, got {inst.q!r}")
    return inst.q


class DerivValues(NamedTuple):
    """|f'| at the five points the bounds t21..t24 read; NaN where unread."""

    x: float
    a: float
    b: float
    mid_a: float  # at (x + a)/2
    mid_b: float  # at (x + b)/2


# One right-side formula per bound, on precomputed floats. The public
# rhs_t21..rhs_t24 and the sweep both reach them through rhs_from_values.


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


class BoundSpec(NamedTuple):
    """How one fractional bound is certified and evaluated."""

    target: str  # hypothesis function: "abs_deriv" is |f'|, "abs_deriv_pow" |f'|^q
    mode: str  # "convex" or "concave"
    q_name: str | None  # the bound's name in q errors; None when q is unused
    holder: bool  # uses c3^(1/p) instead of c1, c2, so needs q > 1
    midpoints: bool  # reads |f'| at the midpoints instead of at x, a, b
    formula: Callable[..., float]  # see rhs_from_values for its arguments


FRACTIONAL_BOUNDS = {
    TheoremId.T21: BoundSpec("abs_deriv", "convex", None, False, False, _formula_t21),
    TheoremId.T22: BoundSpec(
        "abs_deriv_pow", "convex", "the Holder-split bound", True, False, _formula_t22
    ),
    TheoremId.T23: BoundSpec(
        "abs_deriv_pow", "convex", "the power-mean bound", False, False, _formula_t23
    ),
    TheoremId.T24: BoundSpec(
        "abs_deriv_pow", "concave", "the concave midpoint bound", True, True, _formula_t24
    ),
}


def abs_deriv_values(
    fp: FunctionModel, a: float, b: float, x: float, theorems: Iterable[TheoremId]
) -> DerivValues:
    """|f'| at the points any of the given bounds reads, NaN at the others."""
    nan = math.nan
    fx = fa = fb = fma = fmb = nan
    midpoints = [FRACTIONAL_BOUNDS[t].midpoints for t in theorems]
    if not all(midpoints):
        fx, fa, fb = _abs_deriv_at(fp, x), _abs_deriv_at(fp, a), _abs_deriv_at(fp, b)
    if any(midpoints):
        fma = _abs_deriv_at(fp, 0.5 * (x + a))
        fmb = _abs_deriv_at(fp, 0.5 * (x + b))
    return DerivValues(fx, fa, fb, fma, fmb)


def rhs_from_values(
    theorem_id: TheoremId,
    d: DerivValues,
    wa: float,
    wb: float,
    alpha: float,
    s: float,
    q: float | None,
    c1: float,
    c2: float,
    c3p: float,
) -> float:
    """Right side of bound t21..t24 from |f'| values, weights and constants.

    c1, c2 come from c1_c2(alpha, s), c3p from c3_root(alpha, p); a bound
    reads only the ones it needs.
    """
    return FRACTIONAL_BOUNDS[theorem_id].formula(d, wa, wb, alpha, s, q, c1, c2, c3p)


def _rhs(theorem_id: TheoremId, inst: ProblemInstance) -> float:
    spec = FRACTIONAL_BOUNDS[theorem_id]
    q = None
    if spec.q_name is not None:
        q = _require_q(inst, spec.q_name, 1.0)
        if spec.holder and not q > 1.0:
            raise DomainError(f"{spec.q_name} requires q > 1, got {q!r}")
    d = abs_deriv_values(inst.f.derivative(), inst.a, inst.b, inst.x, (theorem_id,))
    wa, wb = bound_weights(inst.a, inst.b, inst.x, inst.alpha)
    c1 = c2 = c3p = math.nan
    if spec.holder:
        c3p = c3_root(inst.alpha, inst.p)
    else:
        c1, c2 = c1_c2(inst.alpha, inst.s)
    return rhs_from_values(theorem_id, d, wa, wb, inst.alpha, inst.s, q, c1, c2, c3p)


def rhs_t21(inst: ProblemInstance) -> float:
    """First-power bound right side; no q involved."""
    return _rhs(TheoremId.T21, inst)


def rhs_t22(inst: ProblemInstance) -> float:
    """Holder-split bound right side; needs a conjugate pair with q > 1."""
    return _rhs(TheoremId.T22, inst)


def rhs_t23(inst: ProblemInstance) -> float:
    """Power-mean bound right side; q = 1 reproduces rhs_t21 exactly.

    The second bracket pairs with |f'(b)|^q (right endpoint), matching the
    first bracket's pairing with |f'(a)|^q.
    """
    return _rhs(TheoremId.T23, inst)


def rhs_t24(inst: ProblemInstance) -> float:
    """Reverse endpoint-average bound right side (s-concave |f'|^q)."""
    return _rhs(TheoremId.T24, inst)


def _certify_hypothesis(
    inst: ProblemInstance, target: str, mode: str, samples: int, seed: int
) -> CertificationReport:
    """Certify the convexity hypothesis a bound assumes, on [a, b]."""
    return certify_model(
        inst.f.derivative(), target, inst.q, inst.a, inst.b, inst.s, mode, samples, seed
    )


def _report(
    theorem_id: TheoremId,
    lhs: float,
    rhs: float,
    inst: ProblemInstance,
    cert: CertificationReport,
    quad_err: float,
) -> BoundReport:
    return BoundReport(
        theorem_id=theorem_id,
        lhs=lhs,
        rhs=rhs,
        margin=rhs - lhs,
        ratio=_ratio(lhs, rhs),
        params=inst,
        hypothesis_certified=cert.verdict,
        certification=cert,
        quad_error_est=quad_err,
    )


def _bound(
    theorem_id: TheoremId,
    rhs: Callable[[ProblemInstance], float],
    inst: ProblemInstance,
    cfg: QuadratureConfig,
    samples: int,
    seed: int,
) -> BoundReport:
    spec = FRACTIONAL_BOUNDS[theorem_id]
    if spec.q_name is not None:
        _require_q(inst, spec.q_name, 1.0)
    cert = _certify_hypothesis(inst, spec.target, spec.mode, samples, seed)
    lhs, qerr = identity_lhs_with_error(inst, cfg)
    return _report(theorem_id, abs(lhs), rhs(inst), inst, cert, qerr)


def bound_t21(
    inst: ProblemInstance,
    cfg: QuadratureConfig = DEFAULT_CONFIG,
    samples: int = CERT_SAMPLES,
    seed: int = 0,
) -> BoundReport:
    """First-power bound: |identity| vs c1/c2-weighted endpoint derivatives."""
    return _bound(TheoremId.T21, rhs_t21, inst, cfg, samples, seed)


def bound_t22(
    inst: ProblemInstance,
    cfg: QuadratureConfig = DEFAULT_CONFIG,
    samples: int = CERT_SAMPLES,
    seed: int = 0,
) -> BoundReport:
    """Holder-split bound under s-convex |f'|^q."""
    return _bound(TheoremId.T22, rhs_t22, inst, cfg, samples, seed)


def bound_t23(
    inst: ProblemInstance,
    cfg: QuadratureConfig = DEFAULT_CONFIG,
    samples: int = CERT_SAMPLES,
    seed: int = 0,
) -> BoundReport:
    """Power-mean bound under s-convex |f'|^q; q = 1 collapses to bound_t21."""
    return _bound(TheoremId.T23, rhs_t23, inst, cfg, samples, seed)


def bound_t24(
    inst: ProblemInstance,
    cfg: QuadratureConfig = DEFAULT_CONFIG,
    samples: int = CERT_SAMPLES,
    seed: int = 0,
) -> BoundReport:
    """Reverse endpoint-average bound under s-concave |f'|^q."""
    return _bound(TheoremId.T24, rhs_t24, inst, cfg, samples, seed)


_CLASSICAL = {
    TheoremId.C13: (TheoremId.T21, "abs_deriv", "convex"),
    TheoremId.C14: (TheoremId.T22, "abs_deriv_pow", "convex"),
    TheoremId.C15: (TheoremId.T23, "abs_deriv_pow", "convex"),
    TheoremId.C16: (TheoremId.T24, "abs_deriv_pow", "concave"),
}


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
    if tid not in _CLASSICAL:
        raise DomainError(f"bound_classical expects one of C13..C16, got {tid.value}")
    if inst.alpha != 1.0:
        raise DomainError(
            f"classical bounds require alpha = 1, got alpha={inst.alpha!r}"
        )
    _, target, mode = _CLASSICAL[tid]
    a, b, x, s = inst.a, inst.b, inst.x, inst.s
    fp = inst.f.derivative()
    fx, fa, fb = (
        _abs_deriv_at(fp, x),
        _abs_deriv_at(fp, a),
        _abs_deriv_at(fp, b),
    )
    va = (x - a) ** 2 / (b - a)
    vb = (b - x) ** 2 / (b - a)

    if tid is TheoremId.C13:
        rhs = fx / ((s + 1.0) * (s + 2.0)) * (((x - a) ** 2 + (b - x) ** 2) / (b - a))
        rhs += (va * fa + vb * fb) / (s + 2.0)
    elif tid is TheoremId.C14:
        q = _require_q(inst, "c14", 1.0)
        if not q > 1.0:
            raise DomainError(f"c14 requires q > 1, got {q!r}")
        pref = (1.0 / (inst.p + 1.0)) ** (1.0 / inst.p)
        rhs = va * pref * ((fx**q + fa**q) / (s + 1.0)) ** (1.0 / q)
        rhs += vb * pref * ((fx**q + fb**q) / (s + 1.0)) ** (1.0 / q)
    elif tid is TheoremId.C15:
        q = _require_q(inst, "c15", 1.0)
        pref = 0.5 ** (1.0 - 1.0 / q)
        rhs = va * pref * (fx**q / ((s + 1.0) * (s + 2.0)) + fa**q / (s + 2.0)) ** (
            1.0 / q
        )
        rhs += vb * pref * (fx**q / ((s + 1.0) * (s + 2.0)) + fb**q / (s + 2.0)) ** (
            1.0 / q
        )
    else:  # C16; weight exponent 2, the alpha = 1 reading of the bound
        q = _require_q(inst, "c16", 1.0)
        if not q > 1.0:
            raise DomainError(f"c16 requires q > 1, got {q!r}")
        fma = _abs_deriv_at(fp, 0.5 * (x + a))
        fmb = _abs_deriv_at(fp, 0.5 * (x + b))
        rhs = (
            2.0 ** ((s - 1.0) / q)
            / ((1.0 + inst.p) ** (1.0 / inst.p) * (b - a))
            * ((x - a) ** 2 * fma + (b - x) ** 2 * fmb)
        )

    cert = _certify_hypothesis(inst, target, mode, samples, seed)
    lhs, qerr = identity_lhs_with_error(inst, cfg)
    return _report(tid, abs(lhs), rhs, inst, cert, qerr)


def hh_sandwich_with_error(
    f: FunctionModel,
    a: float,
    b: float,
    s: float,
    cfg: QuadratureConfig = DEFAULT_CONFIG,
) -> tuple[HHSandwich, float]:
    """Endpoint-average sandwich values plus the mean-integral error estimate."""
    if not 0.0 < s <= 1.0:
        raise DomainError(f"s must lie in (0, 1], got {s!r}")
    if not (f.lo <= a < b <= f.hi):
        raise DomainError(
            f"requires lo <= a < b <= hi, got [{a!r}, {b!r}] on [{f.lo!r}, {f.hi!r}]"
        )
    left = 2.0 ** (s - 1.0) * f.evaluate(0.5 * (a + b))
    integral, err = integrate_adaptive(f.evaluate, a, b, cfg)
    mid = integral / (b - a)
    right = (f.evaluate(a) + f.evaluate(b)) / (s + 1.0)
    return HHSandwich(left, mid, right), err / (b - a)


def hh_sandwich(
    f: FunctionModel,
    a: float,
    b: float,
    s: float,
    cfg: QuadratureConfig = DEFAULT_CONFIG,
) -> HHSandwich:
    """(left, mid, right) of the endpoint-average sandwich for s-convex f."""
    return hh_sandwich_with_error(f, a, b, s, cfg)[0]
