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

Integrals over the same [lo, hi] run as one batch, as in scipy's quad_vec.
Each refinement round calls the integrand once, with a RowNodes array that
holds, for each row that splits, that row's own four quarter panels; it
returns a row of values per row. Rows keep their own panels, tolerance and
budget, so each result equals the one-integral result bit for bit, and a
batch takes as many rounds as its slowest row. A sweep integrates both
sides of the identity at every (alpha, x) of a family as one batch.

Two loops refine a batch, chosen by its row count. A single integral or a
batch of fewer than TABLE_ROWS rows keeps a heap of panels per row and
walks the rows in Python. A wider batch keeps every row's panels in one
table, a row per integral and a slot per panel, and runs each round as a
few whole-array steps: test every row, pop each row's worst panel with one
argmax, build the quarters, update the sums, write the children. The
table's rounds cost a fixed ~50 us and the heaps' 3-7 us per split, and
rows leave a batch as they converge, so a whole batch runs faster on the
table from about 128 rows (0.7x the heaps' time at 440) and about 2.5x
slower at 1 or 2. Three rules keep the table's bits the heaps':

- a panel's slot is its heap sequence number (round k's children at 2k + 1
  and 2k + 2, a popped slot's error set to -inf and never reused), so
  argmax's first maximum is the heap's (-error, seq) order;
- Python's max(a, b) is b only if b > a: with a NaN b it is a, and
  max(-0.0, 0.0) is -0.0, which np.maximum need not give; the table keeps
  an error sum at max(e, 0.0) with np.where(0.0 > e, 0.0, e), and a row
  that stops takes its verdict and tolerance from the heap loop's own
  Python tests;
- sums keep the heap loop's order of operations, total + ((lval + rval) -
  pval) and ((err + lerr) + rerr) - perr, and its order of verdicts:
  non-finite, converged, out of budget, panel at floating-point resolution.

The table drops its finished rows once half have left, so one row that
spends its budget does not hold every row's slots, and does its
arithmetic under np.errstate, as the heaps' Python floats warn of nothing.

Two rules keep a batch integrand's bits those of the one-integral one.
np.power gets each alpha's exponent 1/alpha as a Python float, once per
block of rows with that alpha: numpy computes a scalar 2.0 or 0.5 as a
square or a square root, but an array of exponents with pow, and the last
bits differ. And every array is C-ordered (np.ascontiguousarray, np.empty
of a shape): np.empty_like or np.array of a broadcast view give F order,
which changes the loops numpy runs and the last bits of np.power after
them. alpha = 1 reduces to the classical integral; alpha = 0 is rejected.
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
    "RowNodes",
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

# a batch of at least this many rows refines as one table (_refine_table), a
# narrower one row by row with heaps: the two loops' times cross near here
TABLE_ROWS = 128

_NON_FINITE = "the integrand returned a non-finite value, or its panel sums overflowed"


@lru_cache(maxsize=16)
def _leggauss(n: int) -> tuple[np.ndarray, np.ndarray]:
    nodes, weights = np.polynomial.legendre.leggauss(n)
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


class RowNodes(np.ndarray):
    """The nodes of one batch round: row i holds integral ``rows[i]``'s panels.

    A batch integrand receives one, C-contiguous and of shape (len(rows),
    panels x nodes), as its only argument, so a wrapper that passes one
    array through still works; it returns values of that shape.
    """

    __slots__ = ("rows",)


def _panel_values(fn, rows, width, half, mid, nodes, weights) -> np.ndarray:
    """Each row's one-panel Gauss values on its ``width`` panels, shape
    (rows, width), from one call of fn. half and mid list the panels'
    half-widths and midpoints row after row; rows is None for a single
    integral."""
    half, mid = np.array(half), np.array(mid)
    x = (mid[:, None] + half[:, None] * nodes).reshape(-1, width * len(nodes))
    if rows is None:
        vals = fn(x[0])
        rows = (0,)
    else:
        v = x.view(RowNodes)
        v.rows = rows
        vals = fn(v)
    # 3-D, not reshaped to 2-D: only then does each sum equal the per-panel
    # np.dot to the bit (see the module docstring)
    sums = np.dot(np.asarray(vals).reshape(len(rows), width, len(nodes)), weights)
    return half.reshape(-1, width) * sums


def integrate_adaptive(fn, lo: float, hi: float, cfg=DEFAULT_CONFIG):
    """Integrate a vectorized callable over [lo, hi], alone or in a batch.

    With one QuadratureConfig, fn maps a node array to values of the same
    length and the call returns (value, error_estimate) with the estimate
    driven below max(abs_tol, rel_tol * |value|). It raises
    QuadratureToleranceError when max_subdivisions panel splits cannot reach
    the tolerance, or at once when the running value or estimate turns
    non-finite; the exception carries the best value and its achieved
    estimate.

    With a sequence of configs, which share nodes_per_panel, fn receives a
    RowNodes v with a row of nodes for each integral in v.rows and returns a
    row of values for each, as scipy's quad_vec does; each round passes only
    the rows that split. The call returns a list with each row's (value,
    error_estimate), or the exception that row would raise alone.
    """
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise DomainError("integration limits must be finite")
    if lo > hi:
        raise DomainError(f"integration requires lo <= hi, got [{lo!r}, {hi!r}]")
    single = isinstance(cfg, QuadratureConfig)
    cfgs = [cfg] if single else list(cfg)
    if not cfgs:
        return []
    if any(c.nodes_per_panel != cfgs[0].nodes_per_panel for c in cfgs):
        raise DomainError("a batch shares one nodes_per_panel")
    if lo == hi:
        return (0.0, 0.0) if single else [(0.0, 0.0)] * len(cfgs)

    nodes, weights = _leggauss(cfgs[0].nodes_per_panel)
    mid = 0.5 * (lo + hi)
    active = list(range(len(cfgs)))
    # every row's first three panels: [lo, hi] and its halves
    first = _panel_values(
        fn, None if single else active, 3,
        (0.5 * (hi - lo), 0.5 * (mid - lo), 0.5 * (hi - mid)) * len(cfgs),
        (0.5 * (lo + hi), 0.5 * (lo + mid), 0.5 * (mid + hi)) * len(cfgs),
        nodes, weights,
    )
    if len(cfgs) >= TABLE_ROWS:
        return _refine_table(fn, lo, hi, cfgs, first, nodes, weights)
    # a panel's value is the sum of its halves, its error their gap to the
    # one-panel rule; per row a heap of (-error, tiebreak, lo, hi, value,
    # error, halves)
    heaps, totals, errs = [], [], []
    for coarse, left, right in first.tolist():
        value = left + right
        err = abs(value - coarse)
        heaps.append([(-err, 0, lo, hi, value, err, left, right)])
        totals.append(value)
        errs.append(err)
    results: list = [None] * len(cfgs)
    splits = 0
    while active:
        split = []  # (row, popped heap entry)
        halves, mids = [], []  # of each split panel's four quarters
        for r in active:
            c, total, total_err = cfgs[r], totals[r], errs[r]
            tol = max(c.abs_tol, c.rel_tol * abs(total))
            if not (math.isfinite(total) and math.isfinite(total_err)):
                results[r] = QuadratureToleranceError(total, total_err, tol, _NON_FINITE)
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
                split.append((r, top))
                lmid, rmid = 0.5 * (plo + pmid), 0.5 * (pmid + phi)
                halves += (
                    0.5 * (lmid - plo), 0.5 * (pmid - lmid),
                    0.5 * (rmid - pmid), 0.5 * (phi - rmid),
                )
                mids += (
                    0.5 * (plo + lmid), 0.5 * (lmid + pmid),
                    0.5 * (pmid + rmid), 0.5 * (rmid + phi),
                )
        if not split:
            break
        active = [r for r, _ in split]
        quarters = _panel_values(
            fn, None if single else active, 4, halves, mids, nodes, weights
        ).tolist()
        seq = 2 * splits + 1
        for (r, (_, _, plo, phi, pval, perr, pleft, pright)), (q1, q2, q3, q4) in zip(
            split, quarters
        ):
            lval, rval = q1 + q2, q3 + q4
            lerr, rerr = abs(lval - pleft), abs(rval - pright)
            totals[r] += lval + rval - pval
            errs[r] = max(errs[r] + lerr + rerr - perr, 0.0)
            pmid = 0.5 * (plo + phi)
            heapq.heappush(heaps[r], (-lerr, seq, plo, pmid, lval, lerr, q1, q2))
            heapq.heappush(heaps[r], (-rerr, seq + 1, pmid, phi, rval, rerr, q3, q4))
        splits += 1
    if not single:
        return results
    if isinstance(results[0], QuadratureToleranceError):
        raise results[0]
    return results[0]


def _refine_table(fn, lo, hi, cfgs, first, nodes, weights) -> list:
    """integrate_adaptive's refinement rounds for a batch of TABLE_ROWS rows
    or more, each round a few whole-array steps over one table of every
    row's panels; the module docstring gives the rules that keep each row's
    bits those of the heap loop."""
    results: list = [None] * len(cfgs)
    # the rows still refining: batch row, table row, tolerances, budget, sums
    ids = list(range(len(cfgs)))
    at = np.arange(len(cfgs))
    abs_tol = np.array([c.abs_tol for c in cfgs])
    rel_tol = np.array([c.rel_tol for c in cfgs])
    budget = np.array([c.max_subdivisions for c in cfgs])
    with np.errstate(over="ignore", invalid="ignore"):
        coarse, left, right = first.T
        totals = left + right
        errs = abs(totals - coarse)
    # per table row and slot: the panel's error, and its lo, hi, value and
    # two half values
    errors = np.full((len(cfgs), 16), -math.inf)
    errors[:, 0] = errs
    panels = np.empty((len(cfgs), 16, 5))
    panels[:, 0] = np.column_stack(np.broadcast_arrays(lo, hi, totals, left, right))
    splits = 0
    while True:
        with np.errstate(over="ignore", invalid="ignore"):
            # the heap loop splits a row whose error is finite and over
            # max(abs_tol, rel_tol * |total|), a NaN or infinite total
            # failing the comparison, and whose budget is not spent
            go = (
                (errs > np.maximum(abs_tol, rel_tol * abs(totals))) & (errs < math.inf)
                & (budget != splits)
            )
            slot = errors[:, : 2 * splits + 1].argmax(axis=1)
            if len(at) < len(errors):
                slot = slot[at]
            popped = panels[at, slot]
            pmid = 0.5 * (popped[:, 0] + popped[:, 1])
            go &= (popped[:, 0] < pmid) & (pmid < popped[:, 1])
            if not go.all():
                for k, total, total_err in zip(
                    np.flatnonzero(~go).tolist(), totals[~go].tolist(), errs[~go].tolist()
                ):
                    c = cfgs[ids[k]]
                    tol = max(c.abs_tol, c.rel_tol * abs(total))
                    if not (math.isfinite(total) and math.isfinite(total_err)):
                        got = QuadratureToleranceError(total, total_err, tol, _NON_FINITE)
                    elif total_err <= tol:
                        got = (total, total_err)
                    else:  # out of budget, or the panel is at floating-point resolution
                        got = QuadratureToleranceError(total, total_err, tol)
                    results[ids[k]] = got
                keep = np.flatnonzero(go)
                if not len(keep):
                    return results
                ids = [ids[k] for k in keep.tolist()]
                at, abs_tol, rel_tol, budget = at[keep], abs_tol[keep], rel_tol[keep], budget[keep]
                totals, errs = totals[keep], errs[keep]
                slot, popped, pmid = slot[keep], popped[keep], pmid[keep]
            perr = errors[at, slot]
            errors[at, slot] = -math.inf
            # each popped panel's quarter bounds: lo, lmid, mid, rmid, hi
            cuts = np.empty((len(at), 5))
            cuts[:, 0], cuts[:, 2], cuts[:, 4] = popped[:, 0], pmid, popped[:, 1]
            cuts[:, 1::2] = 0.5 * (cuts[:, 0:3:2] + cuts[:, 2::2])
            halves = 0.5 * (cuts[:, 1:] - cuts[:, :-1])
            mids = 0.5 * (cuts[:, :-1] + cuts[:, 1:])
        q = _panel_values(fn, ids, 4, halves.ravel(), mids.ravel(), nodes, weights)
        with np.errstate(over="ignore", invalid="ignore"):
            vals = q[:, 0::2] + q[:, 1::2]  # the two children's values
            verr = abs(vals - popped[:, 3:])
            totals = totals + ((vals[:, 0] + vals[:, 1]) - popped[:, 2])
            e = ((errs + verr[:, 0]) + verr[:, 1]) - perr
            errs = np.where(0.0 > e, 0.0, e)  # max(e, 0.0), -0.0 included
        seq = 2 * splits + 1
        if seq + 2 > errors.shape[1]:
            errors = np.concatenate((errors, np.full(errors.shape, -math.inf)), axis=1)
            panels = np.concatenate((panels, np.empty(panels.shape)), axis=1)
        children = np.empty((len(at), 2, 5))
        children[:, :, 0], children[:, :, 1] = cuts[:, 0:3:2], cuts[:, 2::2]
        children[:, :, 2], children[:, :, 3:] = vals, q.reshape(-1, 2, 2)
        errors[at, seq : seq + 2] = verr
        panels[at, seq : seq + 2] = children
        splits += 1
        if 2 * len(at) <= len(errors):
            # drop the finished rows, so that a row refining on alone does
            # not keep every row's slots
            errors, panels, at = errors[at], panels[at], np.arange(len(at))


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
    rows: list[tuple[float, float, float]],
    cfg: QuadratureConfig = DEFAULT_CONFIG,
) -> list:
    """J^alpha f with origin o, evaluated at x, for each (alpha, o, x) of ``rows``.

    o < x is the left integral J_{o+}^alpha f(x), o > x the right one
    J_{o-}^alpha f(x); all are rows of one batch, whatever their alpha. Each
    entry is (value, error_estimate), or the error that integral raises
    alone: the QuadratureToleranceError of its quadrature (value and
    estimate unscaled), or the OverflowError of a scale |x - o|^alpha /
    Gamma(alpha + 1) past the float range. o == x gives (0.0, 0.0). The
    caller checks that every alpha > 0 and that every o and x lie in f's
    domain.
    """
    out: list = [(0.0, 0.0)] * len(rows)
    groups: dict = {}  # alpha -> its rows, in order of first appearance
    for i, (alpha, o, x) in enumerate(rows):
        if o != x:
            groups.setdefault(alpha, []).append(i)
    # the batch holds each alpha's rows together: per row its index, scale
    # and (x, the signed span x - o, min(o, x), max(o, x))
    live, scales, params = [], [], []
    starts, exponents = [], []  # where each alpha's rows start, and 1/alpha
    for alpha, group in groups.items():
        lg = log_gamma(alpha + 1.0)
        starts.append(len(live))
        exponents.append(1.0 / alpha)
        for i in group:
            _, o, x = rows[i]
            try:
                scales.append(math.exp(alpha * math.log(abs(x - o)) - lg))
            except OverflowError as exc:
                out[i] = exc
                continue
            live.append(i)
            params.append((x, x - o, min(o, x), max(o, x)))
    if not live:
        return out
    table = np.array(params)
    columns = table.T[:, :, None]

    def integrand(v: RowNodes) -> np.ndarray:
        sel = v.rows
        # C order, whatever view it is given: another layout would change
        # the loops numpy runs, and with them the last bits of np.power
        v = np.ascontiguousarray(v)
        every = len(sel) == len(live)
        if every:
            x, d, l, h = columns
        elif len(sel) == 1:
            x, d, l, h = params[sel[0]]
        else:
            x, d, l, h = table[sel].T[:, :, None]
        # one np.power call per alpha with a Python float exponent: numpy
        # takes a scalar 2.0 or 0.5 as a square or a square root, an array of
        # exponents otherwise, and the last bits differ
        if len(starts) == 1:
            pw = np.power(v, exponents[0])
        else:
            cuts = starts if every else np.searchsorted(sel, starts).tolist()
            pw = np.empty(v.shape)
            for i, j, e in zip(cuts, [*cuts[1:], len(sel)], exponents):
                if i < j:
                    np.power(v[i:j], e, out=pw[i:j])
        return f.evaluate((x - d * pw).clip(l, h))

    cfgs = [_scaled_config(cfg, k) for k in scales]
    for i, k, got in zip(live, scales, integrate_adaptive(integrand, 0.0, 1.0, cfgs)):
        out[i] = got if isinstance(got, QuadratureToleranceError) else (k * got[0], k * got[1])
    return out


def _one(f: FunctionModel, alpha: float, origin: float, x: float, cfg) -> tuple[float, float]:
    got = rl_batch_with_error(f, [(alpha, origin, x)], cfg)[0]
    if isinstance(got, Exception):
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
