"""Riemann-Liouville fractional integrals with singularity-aware quadrature.

The left and right operators of order alpha > 0 on [a, b] are

    J_{a+}^alpha f(x) = (1/Gamma(alpha)) * int_a^x (x-t)^(alpha-1) f(t) dt
    J_{b-}^alpha f(x) = (1/Gamma(alpha)) * int_x^b (t-x)^(alpha-1) f(t) dt

The kernel substitution v = (|x-t|/|x-o|)^alpha, o the origin a or b,
removes the endpoint singularity exactly. With the signed span d = x - o:

    J^alpha f(x) = (|d|^alpha / Gamma(alpha+1)) * int_0^1 f(x - d v^(1/alpha)) dv

so one formula serves both operators. That leaves a kink v^(1/alpha) at
v = 0, so the average is taken in w, v = w^p, with an integer p per alpha:

    int_0^1 f(x - d v^(1/alpha)) dv = int_0^1 p w^(p-1) f(x - d w^(p/alpha)) dw

Where f is smooth at x, the integrand is w^(p-1) times a series in
w^(p/alpha), so its first term that is not a polynomial in w is of degree
p - 1 + p/alpha at least. p is the least integer that makes that at least
7, ceil(8 alpha / (1 + alpha)): 1, the average in v itself, up to alpha =
1/7, and never more than 8. A lower degree costs panels at w = 0, where
the halving estimate can also fall short of the error.

Every panel takes one fixed 15-node Gauss-Legendre rule. Panels are
refined by halving, with the panel error estimated as the difference
between the one-panel rule and the sum of its two halves; refinement
stops when the summed estimate meets max(abs_tol, rel_tol*|I|) and fails
loudly (QuadratureToleranceError) when the subdivision budget runs out, the
integrand turns non-finite or a panel is too narrow to halve, each with its
own message. Each panel keeps its two half values, which are its
children's one-panel values, so a split evaluates only the four new quarter
panels. Limits so large that a panel's lo + hi would overflow are halved
once, for fn(2u), and the result doubled: both steps are exact there, and
no split pays for the test.

A round's panel sums come from one np.dot of its rows x panels x nodes
values with the weights, not one np.dot per panel. For a 3-D array and a
1-D one numpy runs the same per-vector dot kernel as for two 1-D arrays, so
every sum keeps its bits. ``@``, einsum or a 2-D reshape, which goes
through gemv, add the products in another order and change the last bits.

Integrals over the same [lo, hi] run as one batch, as in scipy's quad_vec.
Each refinement round calls the integrand once, with a RowNodes array that
holds, for each row that splits, that row's own four quarter panels; it
returns a row of values per row. A batch shares one QuadratureConfig, and
each row has its own abs_tol. Rows keep their own panels and abs_tol, so
each result equals the one-integral result at that abs_tol bit for bit,
and a batch takes as many rounds as its slowest row. A sweep integrates
both sides of the identity at every (alpha, x) of a family as one batch.

Two loops refine a batch, chosen by its row count. A single integral or a
batch of fewer than TABLE_ROWS rows keeps a heap of panels per row and
walks the rows in Python. A wider batch keeps a table of every row's panel
errors, a row per integral and a slot per panel, beside a store with a
record (lo, mid, hi, half values) for each panel not yet split, and runs
each round as whole-array steps: update the sums, write the children,
test every row, pop each row's worst panel with one argmax, build the
quarters. A table round costs about 40 us outside the integrand, plus about
0.6 us for each row that splits; a heap split costs about 2.5-3.5 us. Rows
leave a batch as they converge, so over a whole batch the table takes about
2x the heaps' time at 1 or 2 rows, 1.2x at 64, 1.0x at 128 and 0.6x at 440
(a 2-core Xeon VM, numpy 2.4.6). Three rules keep the table's bits the
heaps':

- a panel's slot is its heap sequence number (round k's children at 2k + 1
  and 2k + 2, a popped slot's error set to -inf and never reused), so
  argmax's first maximum is the heap's (-error, seq) order;
- Python's max(a, b) is np.where(b > a, b, a): with a NaN b it is a, and
  max(-0.0, 0.0) is -0.0, which np.maximum need not give. So the table
  computes each row's tolerance max(abs_tol, rel_tol * |total|) and its
  clamped error sum max(e, 0.0) that way, decides which rows stop with the
  heap loop's tests on those arrays, and builds a result or a
  QuadratureToleranceError only for the rows that stop;
- sums keep the heap loop's order of operations, total + ((lval + rval) -
  pval) and ((err + lerr) + rerr) - perr, and its order of verdicts:
  non-finite, converged, out of budget, panel at floating-point resolution.

The table drops its finished rows once half have left, so one row that
spends its budget does not hold every row's slots, and does its
arithmetic under np.errstate, as the heaps' Python floats warn of nothing.

Two rules keep a batch integrand's bits those of the one-integral one.
np.power gets each alpha's two exponents, p/alpha for the nodes and p - 1
for the Jacobian, as Python floats, once per block of rows with that alpha:
numpy computes a scalar 2.0 or 0.5 as a square or a square root, but an
array of exponents with pow, and the last bits differ. And every array is
C-ordered (np.ascontiguousarray, np.empty of a shape): np.empty_like or
np.array of a broadcast view give F order, which changes the loops numpy
runs and the last bits of np.power after them. alpha = 1 reduces to the
classical integral; alpha = 0 is rejected.

The batch integrand forms its nodes x - d * w^(p/alpha) in place in the
power's own array (multiply, subtract, clip), the same operations in the
same order as the expression, without its temporaries. It hands them to
f's private kernel FunctionModel._values, not to evaluate: the clip puts
every node in [min(o, x), max(o, x)], and rl_batch_with_error checks once
per row that o and x lie in f's domain, so evaluate's domain scan (a min and
a max over every node) could find nothing. The kernel sums the same terms in
the same order, so the values keep their bits; evaluate keeps the scan.
Where p > 1 the values are then multiplied by p * w^(p-1).
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from functools import cache

import numpy as np

from .errors import DomainError, QuadratureToleranceError
from .funcmodel import FunctionModel
from .specfun import log_gamma

__all__ = [
    "QuadratureConfig",
    "DEFAULT_CONFIG",
    "integrate_adaptive",
    "rl_left_with_error",
    "rl_right_with_error",
]


@dataclass(frozen=True)
class QuadratureConfig:
    """Tolerances and budget for the adaptive panel scheme."""

    rel_tol: float = 1e-10
    abs_tol: float = 1e-12
    max_subdivisions: int = 2000

    def __post_init__(self) -> None:
        if not (self.rel_tol > 0.0 and self.abs_tol > 0.0):
            raise DomainError("tolerances must be positive")
        if not (isinstance(self.max_subdivisions, int) and self.max_subdivisions >= 1):
            raise DomainError("max_subdivisions must be an int >= 1")


DEFAULT_CONFIG = QuadratureConfig()

# a batch of at least this many rows refines as one table (_refine_table), a
# narrower one row by row with heaps: the two loops' times cross near here
TABLE_ROWS = 128

_NON_FINITE = "the integrand returned a non-finite value, or its panel sums overflowed"
_AT_RESOLUTION = "a panel reached floating-point resolution before the error met the tolerance"


@cache
def _rule() -> tuple[np.ndarray, np.ndarray]:
    """Every panel's 15-node Gauss-Legendre rule, read-only, built on first use:
    numpy.polynomial takes about 12 ms to import (2-core Xeon VM)."""
    nodes, weights = np.polynomial.legendre.leggauss(15)
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


def _panel_values(fn, rows, width, half, mid) -> np.ndarray:
    """Each row's one-panel Gauss values on its ``width`` panels, shape
    (rows, width), from one call of fn. half and mid hold the panels'
    half-widths and midpoints row after row, flat or a row of them per
    batch row; rows is None for a single integral."""
    nodes, weights = _rule()
    half, mid = np.asarray(half), np.asarray(mid)
    x = (mid[..., None] + half[..., None] * nodes).reshape(-1, width * len(nodes))
    if rows is None:
        vals = fn(x[0])
    else:
        v = x.view(RowNodes)
        v.rows = rows
        vals = fn(v)
    # 3-D, not reshaped to 2-D: only then does each sum equal the per-panel
    # np.dot to the bit (see the module docstring)
    sums = np.dot(np.asarray(vals).reshape(len(x), width, len(nodes)), weights)
    return half.reshape(-1, width) * sums


def integrate_adaptive(fn, lo: float, hi: float, cfg=DEFAULT_CONFIG, abs_tols=None):
    """Integrate a vectorized callable over [lo, hi], alone or in a batch.

    Without abs_tols, fn maps a node array to values of the same length and
    the call returns (value, error_estimate) with the estimate driven below
    max(abs_tol, rel_tol * |value|). It raises QuadratureToleranceError
    when max_subdivisions panel splits cannot reach the tolerance, when the
    panel to split is too narrow to halve, or at once when the running value
    or estimate turns non-finite; the exception carries the best value and
    its achieved estimate.

    With abs_tols, a list of each row's positive abs_tol in place of cfg's,
    fn receives a RowNodes v with a row of nodes for each integral in v.rows
    and returns a row of values for each, as scipy's quad_vec does; each
    round passes only the rows that split. Every row shares cfg's rel_tol
    and max_subdivisions. The call returns a list with each
    row's (value, error_estimate), or the exception that row would raise
    alone.
    """
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise DomainError("integration limits must be finite")
    if lo > hi:
        raise DomainError(f"integration requires lo <= hi, got [{lo!r}, {hi!r}]")
    single = abs_tols is None
    tols = [cfg.abs_tol] if single else list(abs_tols)
    if not all(t > 0.0 for t in tols):
        raise DomainError("tolerances must be positive")
    if not tols:
        return []
    if lo == hi:
        return (0.0, 0.0) if single else [(0.0, 0.0)] * len(tols)
    if math.isinf(2.0 * max(-lo, hi)):
        # a panel's lo + hi, or hi - lo, can overflow: integrate fn(2u) over
        # [lo/2, hi/2] and double. Halving and doubling are exact at this
        # size, so fn sees the very nodes of [lo, hi]'s panels. abs_tol
        # halves with the value, unless that would round it to zero.
        def at_double(u):
            v = 2.0 * u
            if isinstance(u, RowNodes):
                v.rows = u.rows
            return fn(v)

        halved = [0.5 * t or t for t in tols]
        halves = _refine(at_double, 0.5 * lo, 0.5 * hi, halved, cfg, single)
        results = [_doubled(got, t, cfg.rel_tol) for got, t in zip(halves, tols)]
    else:
        results = _refine(fn, lo, hi, tols, cfg, single)
    if not single:
        return results
    if isinstance(results[0], QuadratureToleranceError):
        raise results[0]
    return results[0]


def _refine(fn, lo, hi, abs_tols, cfg, single) -> list:
    """integrate_adaptive's refinement over [lo, hi]: each row's (value,
    error_estimate) or QuadratureToleranceError, a row per abs_tol."""
    mid = 0.5 * (lo + hi)
    active = list(range(len(abs_tols)))
    # every row's first three panels: [lo, hi] and its halves
    first = _panel_values(
        fn, None if single else active, 3,
        (0.5 * (hi - lo), 0.5 * (mid - lo), 0.5 * (hi - mid)) * len(active),
        (0.5 * (lo + hi), 0.5 * (lo + mid), 0.5 * (mid + hi)) * len(active),
    )
    if len(active) >= TABLE_ROWS:
        return _refine_table(fn, lo, hi, first, abs_tols, cfg)
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
    rel_tol, budget = cfg.rel_tol, cfg.max_subdivisions
    results: list = [None] * len(active)
    splits = 0
    while active:
        split = []  # (row, popped heap entry)
        halves, mids = [], []  # of each split panel's four quarters
        for r in active:
            total, total_err = totals[r], errs[r]
            tol = max(abs_tols[r], rel_tol * abs(total))
            if not (math.isfinite(total) and math.isfinite(total_err)):
                results[r] = QuadratureToleranceError(total, total_err, tol, _NON_FINITE)
            elif total_err <= tol:
                results[r] = (total, total_err)
            elif splits == budget:
                results[r] = QuadratureToleranceError(total, total_err, tol)
            else:
                top = heapq.heappop(heaps[r])
                plo, phi = top[2], top[3]
                pmid = 0.5 * (plo + phi)
                if not plo < pmid < phi:
                    # nothing left to refine
                    results[r] = QuadratureToleranceError(total, total_err, tol, _AT_RESOLUTION)
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
        quarters = _panel_values(fn, None if single else active, 4, halves, mids).tolist()
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
    return results


def _doubled(got, abs_tol: float, rel_tol: float):
    """A row's result on [lo/2, hi/2] as its result on [lo, hi]."""
    if isinstance(got, QuadratureToleranceError):
        return QuadratureToleranceError(
            2.0 * got.value, 2.0 * got.error_estimate, 2.0 * got.tolerance, got.reason
        )
    value, err = 2.0 * got[0], 2.0 * got[1]
    if math.isfinite(value) and math.isfinite(err):
        return value, err
    # an integral past the float range fails as a non-finite sum does
    tol = max(abs_tol, rel_tol * abs(value))
    return QuadratureToleranceError(value, err, tol, _NON_FINITE)


def _refine_table(fn, lo, hi, first, abs_tols, cfg) -> list:
    """integrate_adaptive's refinement rounds for a batch of TABLE_ROWS rows
    or more, each round a few whole-array steps over a table of every row's
    panel errors and a store of panel records; the module docstring gives
    the rules that keep each row's bits those of the heap loop."""
    n = len(first)
    results: list = [None] * n
    rel_tol, budget = cfg.rel_tol, cfg.max_subdivisions
    # a record per panel not yet split: its lo, mid and hi and its two half
    # values, whose sum is its value. A split panel's quarter cuts lmid and
    # rmid are its children's mids; its left child takes over its record,
    # which no round reads again, and its right child takes a new one.
    store = np.empty((2 * n, 5))
    store[:n, :3] = lo, 0.5 * (lo + hi), hi
    store[:n, 3:] = first[:, 1:]
    used = n
    # per table row and slot: the error of the row's panel with that heap
    # sequence number (-inf once popped, or before it exists), and the index
    # of its record in the store
    errors = np.full((n, 16), -math.inf)
    record = np.zeros((n, 16), dtype=np.intp)
    # the rows still refining (m of them): batch row, table row, abs_tol
    # and sums
    m = n
    rows = at = np.arange(n)
    record[:, 0] = rows
    ids = rows.tolist()
    atol = np.array(abs_tols, dtype=float)
    splits, q = 0, None
    while True:
        with np.errstate(over="ignore", invalid="ignore"):
            if q is None:
                totals = first[:, 1] + first[:, 2]
                errs = errors[:, 0] = abs(totals - first[:, 0])
            else:
                # the quarters' sums, in the heap loop's order of operations;
                # a panel's value is the sum of its half values, as there
                vals = q[:, 0::2] + q[:, 1::2]  # the two children's values
                verr = abs(vals - popped[:, 3:])
                totals = totals + ((vals[:, 0] + vals[:, 1]) - (popped[:, 3] + popped[:, 4]))
                e = ((errs + verr[:, 0]) + verr[:, 1]) - perr
                errs = np.where(0.0 > e, 0.0, e)  # max(e, 0.0), -0.0 included
                seq = 2 * splits + 1
                if seq + 2 > errors.shape[1]:
                    errors = np.concatenate((errors, np.full(errors.shape, -math.inf)), axis=1)
                    record = np.concatenate((record, np.zeros(record.shape, np.intp)), axis=1)
                if used + m > len(store):
                    store = np.concatenate((store, np.empty(store.shape)))
                # the children [lo, mid] and [mid, hi]
                left, right = np.empty((m, 5)), store[used : used + m]
                left[:, :3], right[:, :3] = cuts[:, :3], cuts[:, 2:]
                left[:, 3:], right[:, 3:] = q[:, :2], q[:, 2:]
                store[home] = left
                slots = (at * errors.shape[1] + seq)[:, None] + (0, 1)
                errors.ravel()[slots] = verr
                flat = record.ravel()
                flat[slots[:, 0]], flat[slots[:, 1]] = home, np.arange(used, used + m)
                used += m
                splits += 1
                if 2 * m <= len(errors):
                    # drop the finished rows, so that a row refining on
                    # alone does not keep every row's slots
                    errors, record, at = errors[at], record[at], np.arange(m)
            # the heap loop's Python tests on every row at once: tol is
            # max(abs_tol, rel_tol * |total|), abs_tol unless the other is
            # greater, and a row splits if its sums are finite, its error is
            # over tol, its budget is not spent and its worst panel halves.
            # The worst panel is the first maximum over the whole row, past
            # whose last child every slot holds -inf.
            scaled = rel_tol * abs(totals)
            tol = np.where(scaled > atol, scaled, atol)
            worst = errors.argmax(axis=1)
            if m < len(errors):
                worst = worst[at]
            worst += at * errors.shape[1]  # as an index into the flat table
            home = record.ravel().take(worst)
            popped = store.take(home, axis=0)
            go = (
                (splits != budget) & np.isfinite(totals) & (errs < math.inf) & (errs > tol)
                & (popped[:, 0] < popped[:, 1]) & (popped[:, 1] < popped[:, 2])
            )
            if not go.all():
                # the rows that stop, in the heap loop's order of verdicts:
                # non-finite, converged, out of budget, at resolution
                gone = (~go).nonzero()[0]
                for k, t, e, tl in zip(
                    gone.tolist(), totals[gone].tolist(), errs[gone].tolist(), tol[gone].tolist()
                ):
                    i = ids[k]
                    # math.isfinite of each, by comparisons
                    if not (-math.inf < t < math.inf and -math.inf < e < math.inf):
                        results[i] = QuadratureToleranceError(t, e, tl, _NON_FINITE)
                    elif e <= tl:
                        results[i] = (t, e)
                    else:
                        results[i] = QuadratureToleranceError(
                            t, e, tl, None if splits == budget else _AT_RESOLUTION
                        )
                keep = go.nonzero()[0]
                m = len(keep)
                if not m:
                    return results
                rows, at, atol = rows[keep], at[keep], atol[keep]
                worst, home, popped = worst[keep], home[keep], popped[keep]
                totals, errs = totals[keep], errs[keep]
                ids = rows.tolist()
            perr = errors.ravel().take(worst)
            errors.ravel()[worst] = -math.inf
            # each popped panel's four quarters, between its cuts lo, lmid,
            # mid, rmid and hi
            cuts = np.empty((m, 5))
            cuts[:, 0::2] = popped[:, :3]
            cuts[:, 1::2] = 0.5 * (popped[:, :2] + popped[:, 1:3])
            halves = 0.5 * (cuts[:, 1:] - cuts[:, :-1])
            mids = 0.5 * (cuts[:, :-1] + cuts[:, 1:])
        q = _panel_values(fn, ids, 4, halves, mids)


def _check_order(alpha: float) -> None:
    if not (math.isfinite(alpha) and alpha > 0.0):
        raise DomainError(f"fractional order must satisfy alpha > 0, got {alpha!r}")


def _substitution(alpha: float) -> tuple[float, float]:
    """alpha's node exponent p / alpha and Jacobian power p, for the least
    integer p with p - 1 + p / alpha >= 7 (see the module docstring)."""
    p = max(1, math.ceil(8.0 * alpha / (1.0 + alpha)))
    return p / alpha, float(p)


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
    caller checks that every alpha > 0. An o or x outside f's domain, or
    NaN, raises DomainError, as evaluate does, for the whole batch.
    """
    out: list = [(0.0, 0.0)] * len(rows)
    groups: dict = {}  # alpha -> its rows, in order of first appearance
    for i, (alpha, o, x) in enumerate(rows):
        if o != x:
            # the nodes lie between o and x, and f's values skip evaluate's scan
            if not (f.lo <= o <= f.hi and f.lo <= x <= f.hi):
                raise DomainError(f"evaluation point outside domain [{f.lo!r}, {f.hi!r}]")
            groups.setdefault(alpha, []).append(i)
    # the batch holds each alpha's rows together: per row its index, scale
    # and (x, the signed span x - o, min(o, x), max(o, x))
    live, scales, params = [], [], []
    starts, subs = [], []  # where each alpha's rows start, and its exponents
    for alpha, group in groups.items():
        lg = log_gamma(alpha + 1.0)
        starts.append(len(live))
        subs.append(_substitution(alpha))
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
        # each alpha's block of rows: np.power calls with Python float
        # exponents, as numpy takes a scalar 2.0 or 0.5 as a square or a
        # square root, an array of exponents otherwise, and the last bits differ
        cuts = starts if every or len(starts) == 1 else np.searchsorted(sel, starts).tolist()
        blocks = [
            (i, j, q, p) for i, j, (q, p) in zip(cuts, [*cuts[1:], len(sel)], subs) if i < j
        ]
        pw = np.empty(v.shape)
        for i, j, q, _ in blocks:
            np.power(v[i:j], q, out=pw[i:j])
        # x - d * w^q clipped to [l, h], in place; clipped nodes need no scan
        pw *= d
        np.subtract(x, pw, out=pw)
        np.clip(pw, l, h, out=pw)
        out = f._values(pw)
        for i, j, _, p in blocks:
            if p != 1.0:
                out[i:j] *= p * np.power(v[i:j], p - 1.0)
        return out

    # each row's abs_tol tightened so that the scaled result still meets it;
    # one that underflows to zero is floored at the smallest positive float,
    # and that row then integrates to rel_tol
    tols = [(cfg.abs_tol / k or 5e-324) if k > 1.0 else cfg.abs_tol for k in scales]
    for i, k, got in zip(live, scales, integrate_adaptive(integrand, 0.0, 1.0, cfg, tols)):
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

