"""Riemann-Liouville fractional integrals with singularity-aware quadrature.

The left and right operators of order alpha > 0 on [a, b] are

    J_{a+}^alpha f(x) = (1/Gamma(alpha)) * int_a^x (x-t)^(alpha-1) f(t) dt
    J_{b-}^alpha f(x) = (1/Gamma(alpha)) * int_x^b (t-x)^(alpha-1) f(t) dt

The kernel substitution v = ((x-t)/(x-a))^alpha removes the endpoint
singularity exactly:

    J_{a+}^alpha f(x) = ((x-a)^alpha / Gamma(alpha+1)) *
                        int_0^1 f(x - (x-a) v^(1/alpha)) dv

so one adaptive Gauss-Legendre scheme covers alpha < 1, = 1 and > 1
uniformly. Panels are refined by halving, with the panel error estimated as
the difference between the one-panel rule and the sum of its two halves;
refinement stops when the summed estimate meets max(abs_tol, rel_tol*|I|)
and fails loudly (QuadratureToleranceError) when the subdivision budget runs
out or the integrand turns non-finite. Each panel keeps its two half values,
which are its children's one-panel values, so a split evaluates only the
four new quarter panels, in one call of the integrand. alpha = 1 reduces to
the classical integral; alpha = 0 is rejected.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .errors import DomainError, QuadratureToleranceError
from .funcmodel import FunctionModel, PowerTerm
from .specfun import log_gamma

__all__ = [
    "QuadratureConfig",
    "integrate_adaptive",
    "rl_left",
    "rl_right",
    "rl_left_with_error",
    "rl_right_with_error",
    "rl_power_rule_oracle",
]


@dataclass(frozen=True)
class QuadratureConfig:
    """Tolerances and budget for the adaptive panel scheme."""

    rel_tol: float = 1e-10
    abs_tol: float = 1e-12
    max_subdivisions: int = 2000
    nodes_per_panel: int = 15

    def __post_init__(self) -> None:
        if not (self.rel_tol > 0.0 and self.abs_tol > 0.0):
            raise DomainError("tolerances must be positive")
        if self.max_subdivisions < 1:
            raise DomainError("max_subdivisions must be >= 1")
        if self.nodes_per_panel < 2:
            raise DomainError("nodes_per_panel must be >= 2")


DEFAULT_CONFIG = QuadratureConfig()


@lru_cache(maxsize=16)
def _leggauss(n: int) -> tuple[np.ndarray, np.ndarray]:
    nodes, weights = np.polynomial.legendre.leggauss(n)
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


def _panels(fn, panels, nodes, weights) -> list[float]:
    """Gauss-Legendre values on each (lo, hi) of ``panels``, from one call of fn."""
    half = np.array([0.5 * (hi - lo) for lo, hi in panels])
    mid = np.array([0.5 * (lo + hi) for lo, hi in panels])
    vals = fn((mid[:, None] + half[:, None] * nodes).ravel()).reshape(len(panels), -1)
    return [h * float(np.dot(weights, v)) for h, v in zip(half.tolist(), vals)]


def integrate_adaptive(
    fn, lo: float, hi: float, cfg: QuadratureConfig = DEFAULT_CONFIG
) -> tuple[float, float]:
    """Integrate a vectorized callable over [lo, hi].

    Returns (value, error_estimate) with the estimate driven below
    max(abs_tol, rel_tol * |value|). Raises QuadratureToleranceError when
    max_subdivisions panel splits cannot reach the tolerance, or at once when
    the running value or estimate turns non-finite; the exception carries the
    best value and its achieved estimate.
    """
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise DomainError("integration limits must be finite")
    if lo > hi:
        raise DomainError(f"integration requires lo <= hi, got [{lo!r}, {hi!r}]")
    if lo == hi:
        return 0.0, 0.0

    nodes, weights = _leggauss(cfg.nodes_per_panel)
    mid = 0.5 * (lo + hi)
    coarse, left, right = _panels(fn, ((lo, hi), (lo, mid), (mid, hi)), nodes, weights)
    # a panel's value is the sum of its halves, its error their gap to the
    # one-panel rule; heap of (-error, tiebreak, lo, hi, value, error, halves)
    value = left + right
    err = abs(value - coarse)
    heap = [(-err, 0, lo, hi, value, err, left, right)]
    total, total_err = value, err
    seq = 1
    for splits in range(cfg.max_subdivisions + 1):
        tol = max(cfg.abs_tol, cfg.rel_tol * abs(total))
        if not (math.isfinite(total) and math.isfinite(total_err)):
            raise QuadratureToleranceError(
                total, total_err, tol,
                "the integrand returned a non-finite value, or its panel sums overflowed",
            )
        if total_err <= tol:
            return total, total_err
        if splits == cfg.max_subdivisions:
            raise QuadratureToleranceError(total, total_err, tol)
        _, _, plo, phi, pval, perr, pleft, pright = heapq.heappop(heap)
        mid = 0.5 * (plo + phi)
        if not plo < mid < phi:
            # panel at floating-point resolution; nothing left to refine
            raise QuadratureToleranceError(total, total_err, tol)
        lmid = 0.5 * (plo + mid)
        rmid = 0.5 * (mid + phi)
        q1, q2, q3, q4 = _panels(
            fn, ((plo, lmid), (lmid, mid), (mid, rmid), (rmid, phi)), nodes, weights
        )
        lval, rval = q1 + q2, q3 + q4
        lerr, rerr = abs(lval - pleft), abs(rval - pright)
        total += lval + rval - pval
        total_err = max(total_err + lerr + rerr - perr, 0.0)
        heapq.heappush(heap, (-lerr, seq, plo, mid, lval, lerr, q1, q2))
        heapq.heappush(heap, (-rerr, seq + 1, mid, phi, rval, rerr, q3, q4))
        seq += 2


def _check_order(alpha: float) -> None:
    if not (math.isfinite(alpha) and alpha > 0.0):
        raise DomainError(f"fractional order must satisfy alpha > 0, got {alpha!r}")


def _scaled_config(cfg: QuadratureConfig, scale: float) -> QuadratureConfig:
    # tighten abs_tol so the rescaled result still meets the caller's budget
    if scale <= 1.0:
        return cfg
    return replace(cfg, abs_tol=cfg.abs_tol / scale)


def rl_left_with_error(
    f: FunctionModel,
    a: float,
    alpha: float,
    x: float,
    cfg: QuadratureConfig = DEFAULT_CONFIG,
) -> tuple[float, float]:
    """J_{a+}^alpha f(x) along with its quadrature error estimate."""
    _check_order(alpha)
    if not (f.lo <= a <= x <= f.hi):
        raise DomainError(
            f"rl_left requires lo <= a <= x <= hi, got a={a!r}, x={x!r} "
            f"on [{f.lo!r}, {f.hi!r}]"
        )
    if x == a:
        return 0.0, 0.0
    span = x - a
    scale = math.exp(alpha * math.log(span) - log_gamma(alpha + 1.0))
    inv_alpha = 1.0 / alpha

    def integrand(v: np.ndarray) -> np.ndarray:
        t = x - span * np.power(v, inv_alpha)
        return f.evaluate(np.clip(t, a, x))

    value, err = integrate_adaptive(integrand, 0.0, 1.0, _scaled_config(cfg, scale))
    return scale * value, scale * err


def rl_right_with_error(
    f: FunctionModel,
    b: float,
    alpha: float,
    x: float,
    cfg: QuadratureConfig = DEFAULT_CONFIG,
) -> tuple[float, float]:
    """J_{b-}^alpha f(x) along with its quadrature error estimate."""
    _check_order(alpha)
    if not (f.lo <= x <= b <= f.hi):
        raise DomainError(
            f"rl_right requires lo <= x <= b <= hi, got x={x!r}, b={b!r} "
            f"on [{f.lo!r}, {f.hi!r}]"
        )
    if x == b:
        return 0.0, 0.0
    span = b - x
    scale = math.exp(alpha * math.log(span) - log_gamma(alpha + 1.0))
    inv_alpha = 1.0 / alpha

    def integrand(v: np.ndarray) -> np.ndarray:
        t = x + span * np.power(v, inv_alpha)
        return f.evaluate(np.clip(t, x, b))

    value, err = integrate_adaptive(integrand, 0.0, 1.0, _scaled_config(cfg, scale))
    return scale * value, scale * err


def rl_left(
    f: FunctionModel,
    a: float,
    alpha: float,
    x: float,
    cfg: QuadratureConfig = DEFAULT_CONFIG,
) -> float:
    """Left Riemann-Liouville integral J_{a+}^alpha f evaluated at x."""
    return rl_left_with_error(f, a, alpha, x, cfg)[0]


def rl_right(
    f: FunctionModel,
    b: float,
    alpha: float,
    x: float,
    cfg: QuadratureConfig = DEFAULT_CONFIG,
) -> float:
    """Right Riemann-Liouville integral J_{b-}^alpha f evaluated at x."""
    return rl_right_with_error(f, b, alpha, x, cfg)[0]


def rl_power_rule_oracle(term: PowerTerm, a: float, alpha: float, x: float) -> float:
    """Closed form J_{a+}^alpha [c*(t-a)^e](x) for a term anchored at a.

        = c * Gamma(e+1)/Gamma(e+alpha+1) * (x-a)^(e+alpha)

    The Gamma ratio is formed in log space. Requires term.shift == a exactly
    and term.exponent >= 0.
    """
    _check_order(alpha)
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
