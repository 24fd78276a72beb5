"""Riemann-Liouville fractional integrals with singularity-aware quadrature.

The left and right operators of order alpha > 0 on [a, b] are

    J_{a+}^alpha f(x) = (1/Gamma(alpha)) * int_a^x (x-t)^(alpha-1) f(t) dt
    J_{b-}^alpha f(x) = (1/Gamma(alpha)) * int_x^b (t-x)^(alpha-1) f(t) dt

The kernel substitution v = (|x-t|/|x-o|)^alpha, o the origin a or b,
removes the endpoint singularity exactly. With the signed span d = x - o:

    J^alpha f(x) = (|d|^alpha / Gamma(alpha+1)) * int_0^1 f(x - d v^(1/alpha)) dv

so one formula serves both operators and one adaptive Gauss-Legendre scheme
covers alpha < 1, = 1 and > 1 uniformly. Panels are refined by halving, with
the panel error estimated as the difference between the one-panel rule and
the sum of its two halves; refinement stops when the summed estimate meets
max(abs_tol, rel_tol*|I|) and fails loudly (QuadratureToleranceError) when
the subdivision budget runs out or the integrand turns non-finite. Each
panel keeps its two half values, which are its children's one-panel values,
so a split evaluates only the four new quarter panels.

A round's panel sums come from one np.dot of its rows x panels x nodes
values with the weights, not one np.dot per panel. For a 3-D array and a
1-D one numpy runs the same per-vector dot kernel as for two 1-D arrays, so
every sum keeps its bits. ``@``, einsum or a 2-D reshape, which goes
through gemv, add the products in another order and change the last bits.

Integrals over the same [lo, hi] run as one batch: the integrand returns a
row of values per integral, and each refinement round evaluates the quarter
panels of every unfinished row in one call. Rows keep their own panels,
tolerance and budget, so each result equals the one-integral result bit for
bit. A sweep integrates both sides of the identity at every x of one
(family, alpha) as one batch. alpha = 1 reduces to the classical integral;
alpha = 0 is rejected.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .errors import DomainError, QuadratureToleranceError
from .funcmodel import FunctionModel
from .specfun import log_gamma

__all__ = [
    "QuadratureConfig",
    "integrate_adaptive",
    "rl_left",
    "rl_right",
    "rl_left_with_error",
    "rl_right_with_error",
    "rl_batch_with_error",
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


def _evaluate(fn, panels, nodes, weights, rows: int) -> tuple[list[float], list]:
    """Half-widths of ``panels`` and the Gauss sums of fn's values on their
    nodes from one call, as nested lists rows x panels."""
    half = np.array([0.5 * (hi - lo) for lo, hi in panels])
    mid = np.array([0.5 * (lo + hi) for lo, hi in panels])
    vals = fn((mid[:, None] + half[:, None] * nodes).ravel())
    # 3-D, not reshaped to 2-D: only then does each sum equal the per-panel
    # np.dot to the bit (see the module docstring)
    sums = np.dot(np.asarray(vals).reshape(rows, len(panels), len(nodes)), weights)
    return half.tolist(), sums.tolist()


def integrate_adaptive(fn, lo: float, hi: float, cfg=DEFAULT_CONFIG):
    """Integrate a vectorized callable over [lo, hi], alone or in a batch.

    With one QuadratureConfig, fn maps a node array to values of the same
    length and the call returns (value, error_estimate) with the estimate
    driven below max(abs_tol, rel_tol * |value|). It raises
    QuadratureToleranceError when max_subdivisions panel splits cannot reach
    the tolerance, or at once when the running value or estimate turns
    non-finite; the exception carries the best value and its achieved
    estimate.

    With a sequence of configs, which share nodes_per_panel, fn returns one
    row of values per config, as scipy's quad_vec does, and the call returns
    a list with each row's (value, error_estimate), or the exception that
    row would raise alone.
    """
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise DomainError("integration limits must be finite")
    if lo > hi:
        raise DomainError(f"integration requires lo <= hi, got [{lo!r}, {hi!r}]")
    single = isinstance(cfg, QuadratureConfig)
    cfgs = [cfg] if single else list(cfg)
    if any(c.nodes_per_panel != cfgs[0].nodes_per_panel for c in cfgs):
        raise DomainError("a batch shares one nodes_per_panel")
    if lo == hi:
        return (0.0, 0.0) if single else [(0.0, 0.0)] * len(cfgs)

    nodes, weights = _leggauss(cfgs[0].nodes_per_panel)
    mid = 0.5 * (lo + hi)
    half, sums = _evaluate(fn, ((lo, hi), (lo, mid), (mid, hi)), nodes, weights, len(cfgs))
    # a panel's value is the sum of its halves, its error their gap to the
    # one-panel rule; per row a heap of (-error, tiebreak, lo, hi, value,
    # error, halves)
    heaps, totals, errs = [], [], []
    for row in sums:
        coarse, left, right = (h * v for h, v in zip(half, row))
        value = left + right
        err = abs(value - coarse)
        heaps.append([(-err, 0, lo, hi, value, err, left, right)])
        totals.append(value)
        errs.append(err)
    results: list = [None] * len(cfgs)
    active = range(len(cfgs))
    splits = 0
    while active:
        panels: dict = {}  # quarter panel -> its index in this round's call
        split = []  # (row, popped heap entry, indices of its four quarters)
        for r in active:
            c, total, total_err = cfgs[r], totals[r], errs[r]
            tol = max(c.abs_tol, c.rel_tol * abs(total))
            if not (math.isfinite(total) and math.isfinite(total_err)):
                results[r] = QuadratureToleranceError(
                    total, total_err, tol,
                    "the integrand returned a non-finite value, or its panel sums overflowed",
                )
            elif total_err <= tol:
                results[r] = (total, total_err)
            elif splits == c.max_subdivisions:
                results[r] = QuadratureToleranceError(total, total_err, tol)
            else:
                top = heapq.heappop(heaps[r])
                plo, phi = top[2], top[3]
                pmid = 0.5 * (plo + phi)
                if not plo < pmid < phi:
                    # panel at floating-point resolution; nothing left to refine
                    results[r] = QuadratureToleranceError(total, total_err, tol)
                    continue
                lmid, rmid = 0.5 * (plo + pmid), 0.5 * (pmid + phi)
                quarters = ((plo, lmid), (lmid, pmid), (pmid, rmid), (rmid, phi))
                split.append((r, top, [panels.setdefault(q, len(panels)) for q in quarters]))
        if not split:
            break
        half, sums = _evaluate(fn, panels, nodes, weights, len(cfgs))
        seq = 2 * splits + 1
        for r, (_, _, plo, phi, pval, perr, pleft, pright), (k1, k2, k3, k4) in split:
            row = sums[r]
            q1, q2, q3, q4 = (
                half[k1] * row[k1], half[k2] * row[k2], half[k3] * row[k3], half[k4] * row[k4]
            )
            lval, rval = q1 + q2, q3 + q4
            lerr, rerr = abs(lval - pleft), abs(rval - pright)
            totals[r] += lval + rval - pval
            errs[r] = max(errs[r] + lerr + rerr - perr, 0.0)
            pmid = 0.5 * (plo + phi)
            heapq.heappush(heaps[r], (-lerr, seq, plo, pmid, lval, lerr, q1, q2))
            heapq.heappush(heaps[r], (-rerr, seq + 1, pmid, phi, rval, rerr, q3, q4))
        active = [r for r, _, _ in split]
        splits += 1
    if not single:
        return results
    if isinstance(results[0], QuadratureToleranceError):
        raise results[0]
    return results[0]


def _check_order(alpha: float) -> None:
    if not (math.isfinite(alpha) and alpha > 0.0):
        raise DomainError(f"fractional order must satisfy alpha > 0, got {alpha!r}")


def _scaled_config(cfg: QuadratureConfig, scale: float) -> QuadratureConfig:
    # tighten abs_tol so the rescaled result still meets the caller's budget
    if scale <= 1.0:
        return cfg
    return replace(cfg, abs_tol=cfg.abs_tol / scale)


def rl_batch_with_error(
    f: FunctionModel,
    alpha: float,
    pairs: list[tuple[float, float]],
    cfg: QuadratureConfig = DEFAULT_CONFIG,
) -> list:
    """J^alpha f with origin o, evaluated at x, for each (o, x) of ``pairs``.

    o < x is the left integral J_{o+}^alpha f(x), o > x the right one
    J_{o-}^alpha f(x); all are rows of one batch. Each entry is (value,
    error_estimate), or the QuadratureToleranceError that integral raises
    alone (its value and estimate unscaled); o == x gives (0.0, 0.0). The
    caller checks that alpha > 0 and that every o and x lie in f's domain.
    """
    out: list = [(0.0, 0.0)] * len(pairs)
    rows = [i for i, (o, x) in enumerate(pairs) if o != x]
    if not rows:
        return out
    origin = np.array([pairs[i][0] for i in rows])[:, None]
    at = np.array([pairs[i][1] for i in rows])[:, None]
    span = at - origin
    lo, hi = np.minimum(origin, at), np.maximum(origin, at)
    inv_alpha = 1.0 / alpha
    lg = log_gamma(alpha + 1.0)
    scales = [math.exp(alpha * math.log(abs(d)) - lg) for d in span[:, 0].tolist()]

    def integrand(v: np.ndarray) -> np.ndarray:
        return f.evaluate(np.clip(at - span * np.power(v, inv_alpha), lo, hi))

    cfgs = [_scaled_config(cfg, k) for k in scales]
    for i, k, got in zip(rows, scales, integrate_adaptive(integrand, 0.0, 1.0, cfgs)):
        out[i] = got if isinstance(got, QuadratureToleranceError) else (k * got[0], k * got[1])
    return out


def _one(f: FunctionModel, alpha: float, origin: float, x: float, cfg) -> tuple[float, float]:
    got = rl_batch_with_error(f, alpha, [(origin, x)], cfg)[0]
    if isinstance(got, QuadratureToleranceError):
        raise got
    return got


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
    return _one(f, alpha, a, x, cfg)


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
    return _one(f, alpha, b, x, cfg)


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
