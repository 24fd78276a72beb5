"""Batch verification sweeps over parameter grids, with CSV persistence.

A sweep crosses every family with every (alpha, s, x, q) tuple and evaluates
the selected bound ids, recording tightness diagnostics per grid point. The
endpoint-average sandwich (id HH11) has no alpha, x or q parameters, so it is
evaluated once per (family, s) and its rows leave those columns empty; its
``lhs`` is the mean integral, ``rhs`` the endpoint-average bound, ``ratio``
lhs/rhs (1 at the sharpness witness u^s on [0, 1]), and ``margin`` the
smaller of the two sandwich slacks so one violation threshold covers both
inequalities.

A record is a violation when it is certified, its margin is finite and it
fails _holds, the CLI's rule too: margin < -1e-9 * (1 + |rhs|), one order
looser than the quadrature tolerance driving lhs. Certifications
are cached per (family, s, target, mode, q) and decided as
funcmodel.certify_model decides them, on the family's point table: proved
or refuted by a rule on the power-sum terms where one applies, else refuted
at a boundary triple where one fails, else sampled (refuted if a drawn
triple fails). Certificate sampling seeds are
derived deterministically from the run seed and the cache key, so a sweep
is reproducible record-for-record and its CSV byte-for-byte. Each record keeps
its certificate's kind, and the summary counts records per kind and bound;
the kind is not yet a CSV column.

Each piece of a sweep's work runs at the loop level where its inputs change:

- per family: f', and one point table each of f (for the sandwich) and of
  f': each model evaluated once, at a, b and the boundary triples' mix
  points, which every certificate reads, and for f' also at the points
  t21..t24 read (x and the midpoints (x+a)/2 and (x+b)/2) for each x; each
  hypothesis g (f, |f'| or |f'|^q) derived from its table once per q; the
  weights for each (alpha, x);
- per family: the lhs of every (alpha, x), in one quadrature batch at the
  first alpha; and the sandwich's mean integral, which does not depend on s;
- per (family, s, q): each bound's certificate, at the first point whose
  lhs succeeded, so a (family, s, q) whose points all fail quadrature
  certifies nothing;
- per s the boundary triples' lam^s and (1-lam)^s; per (alpha, s) c1 and c2,
  per q its conjugate p, per (alpha, p) c3^(1/p);
- per record: only its bound's formula in hh_core.FRACTIONAL_BOUNDS, applied
  as rhs_t21..rhs_t24 apply it, so a record's rhs equals the public right
  side to the bit.

Quadrature failures at a single grid point produce error rows (NaN metrics,
certified false) rather than aborting the sweep. SweepGrid refuses a bad
value when it is built, so only an overflow, which depends on the family,
stops a sweep: an alpha's (boundary terms, scales or Gamma factor) or a
certificate's (g not finite), raised where the loop first reaches it.

A record is a SweepRecord, a named tuple of the CSV columns and then the
certificate kind; a row is a plain tuple of the same fields in the same
order. write_csv, summarize and render_svg take records and rows alike, and
unpack each once in their for target. run_sweep makes a record of each row
_sweep_rows yields; the sweep command passes the rows on as they are, since
CPython unpacks an exact tuple faster than a subclass of it, and gets a
record only for each summary argmax. write_csv formats again only the cells
whose object differs from the previous row's (by identity, never by value:
0.0 and -0.0 are equal but print differently); read_csv unpacks each row by
position and parses again only the numeric cells whose text differs from
the previous row's; summarize counts, tests for a violation and groups the
rows by id in one pass; and render_svg takes its legend from the set of
drawn ids and formats each alpha's x coordinate once.
"""

from __future__ import annotations

import csv
import io
import math
import zlib
from collections.abc import Iterator
from dataclasses import dataclass, replace
from importlib import resources
from typing import NamedTuple

from .errors import CsvSchemaError, DomainError, ParseError, QuadratureToleranceError
from .funcmodel import (
    CERT_KINDS,
    CERT_SAMPLES,
    FunctionModel,
    _certify,
    _check_interval,
    _check_q,
    _check_s,
    _lam_weights,
    _PointTable,
    parse_function,
)
from .hh_core import (
    FRACTIONAL_BOUNDS,
    TheoremId,
    _check_alpha,
    _deriv_table,
    _identity_lhs_points,
    _ratio,
    _sandwich,
    bound_weights,
    c1_c2,
    c3_root,
    conjugate_exponent,
)
from .rlint import DEFAULT_CONFIG, QuadratureConfig, integrate_adaptive

__all__ = [
    "CSV_COLUMNS",
    "VIOLATION_TOL",
    "SweepGrid",
    "SweepRecord",
    "SweepSummary",
    "TheoremSummary",
    "run_sweep",
    "is_violation",
    "summarize",
    "format_summary",
    "write_csv",
    "read_csv",
    "render_svg",
    "grid_from_config_text",
    "apply_derivative_shrink",
    "standard_config_text",
    "standard_grid",
]

CSV_COLUMNS = (
    "theorem_id",
    "family_id",
    "alpha",
    "s",
    "x",
    "p",
    "q",
    "lhs",
    "rhs",
    "margin",
    "ratio",
    "certified",
    "quad_error_est",
)

VIOLATION_TOL = 1e-9


def _holds(margin: float, rhs: float) -> bool:
    """The one rule of every bound and sandwich verdict; NaN fails it."""
    return margin >= -VIOLATION_TOL * (1.0 + abs(rhs))


_WIDTH = len(CSV_COLUMNS)

_THEOREM_ORDER = (*FRACTIONAL_BOUNDS, TheoremId.HH11)

_SHRINK_FRACTION = 1e-9


class SweepRecord(NamedTuple):
    """One evaluated grid point; empty columns are None.

    ``certificate`` is the kind of the hypothesis certificate ("proved",
    "refuted" or "sampled"). It is not a CSV column, so records read back
    from a CSV and error rows carry None, and record equality and hash
    ignore it. A record is never equal to a plain tuple.
    """

    theorem_id: str
    family_id: str
    alpha: float | None
    s: float
    x: float | None
    p: float | None
    q: float | None
    lhs: float
    rhs: float
    margin: float
    ratio: float
    certified: bool
    quad_error_est: float
    certificate: str | None = None

    # over the CSV columns only; tuple's own __ne__ would see the certificate
    def __eq__(self, other):
        return isinstance(other, SweepRecord) and self[:_WIDTH] == other[:_WIDTH]

    def __ne__(self, other):
        return not self == other

    def __hash__(self):
        return hash(self[:_WIDTH])


@dataclass(frozen=True)
class SweepGrid:
    """A cartesian verification grid.

    xfracs are relative positions: x = a + frac * (b - a) per family, where
    [a, b] is the family's model domain. q values must exceed 1 (the
    power-mean q = 1 case is already covered by the first-power bound). Each
    value, and each family's interval and x points, passes the instance's
    check when the grid is built, so a sweep builds no ProblemInstance.
    """

    alphas: tuple[float, ...]
    svals: tuple[float, ...]
    xfracs: tuple[float, ...]
    qvals: tuple[float, ...]
    families: tuple[tuple[str, FunctionModel], ...]
    theorems: tuple[TheoremId, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "alphas", tuple(self.alphas))
        object.__setattr__(self, "svals", tuple(self.svals))
        object.__setattr__(self, "xfracs", tuple(self.xfracs))
        object.__setattr__(self, "qvals", tuple(self.qvals))
        object.__setattr__(
            self, "families", tuple((fid, f) for fid, f in self.families)
        )
        theorems = tuple(TheoremId(t) for t in self.theorems)
        object.__setattr__(
            self, "theorems", tuple(t for t in _THEOREM_ORDER if t in theorems)
        )
        for name in ("alphas", "svals", "xfracs", "qvals", "families", "theorems"):
            if not getattr(self, name):
                raise DomainError(f"grid field {name} must be non-empty")
        for alpha in self.alphas:
            _check_alpha(alpha, "alphas")
        for s in self.svals:
            _check_s(s, "svals")
        for fr in self.xfracs:
            if not 0.0 <= fr <= 1.0:
                raise DomainError(f"xfracs must lie in [0, 1], got {fr!r}")
        for q in self.qvals:
            if not q > 1.0:
                raise DomainError(f"qvals must exceed 1, got {q!r}")
            _check_q(q)
        ids = [fid for fid, _ in self.families]
        if len(set(ids)) != len(ids):
            raise DomainError("family ids must be unique")
        if any(not fid for fid in ids):
            raise DomainError("family ids must be non-empty")
        for fid, f in self.families:
            for x in _family_xs(f, self.xfracs):
                _check_interval(f.lo, f.hi, None, x, f"x of family {fid}")


def _family_xs(f: FunctionModel, xfracs) -> list[float]:
    """A family's x points, lo + frac * (hi - lo) for each frac."""
    return [f.lo + frac * (f.hi - f.lo) for frac in xfracs]


def _derive_seed(seed: int, *parts) -> int:
    key = "|".join(repr(p) for p in parts).encode()
    return ((seed & 0xFFFFFFFF) * 0x9E3779B1 + zlib.crc32(key)) % 2**32


def _error_row(
    theorem_id: TheoremId,
    family_id: str,
    alpha: float | None,
    s: float,
    x: float | None,
    p: float | None,
    q: float | None,
    err: float,
) -> tuple:
    nan = math.nan
    return (
        theorem_id.value, family_id, alpha, s, x, p, q, nan, nan, nan, nan, False, err, None
    )


def _lhs_by_alpha(f: FunctionModel, alphas, xs: list[float], cfg: QuadratureConfig) -> dict:
    """alpha -> the (|lhs|, error_estimate) or QuadratureToleranceError of
    each x, from one quadrature batch for every alpha, or the overflow that
    alpha alone raises. The grid has checked every alpha and x."""
    alphas = list(dict.fromkeys(alphas))
    points = [(alpha, x) for alpha in alphas for x in xs]
    entries = iter(_identity_lhs_points(f, f.lo, f.hi, points, cfg))
    by_alpha: dict = {}
    for alpha in alphas:
        row = [next(entries) for _ in xs]
        # an alpha that fails as a whole gives each of its x the same error
        if isinstance(row[0], Exception) and not isinstance(row[0], QuadratureToleranceError):
            by_alpha[alpha] = row[0]
        else:
            by_alpha[alpha] = [
                got if isinstance(got, QuadratureToleranceError) else (abs(got[0]), got[1])
                for got in row
            ]
    return by_alpha


def run_sweep(
    grid: SweepGrid,
    cfg: QuadratureConfig = DEFAULT_CONFIG,
    seed: int = 0,
    samples: int = CERT_SAMPLES,
) -> list[SweepRecord]:
    """Evaluate the grid, in family -> s -> alpha -> x -> q -> theorem order.

    Deterministic given (grid, cfg, seed, samples). Per-point quadrature
    failures become error rows; everything else fails loudly.
    """
    return list(map(SweepRecord._make, _sweep_rows(grid, cfg, seed, samples)))


def _sweep_rows(
    grid: SweepGrid,
    cfg: QuadratureConfig = DEFAULT_CONFIG,
    seed: int = 0,
    samples: int = CERT_SAMPLES,
) -> Iterator[tuple]:
    """run_sweep's records as rows, plain tuples in SweepRecord's field
    order, one at a time."""
    lhs_cache: dict = {}
    cert_cache: dict = {}
    bound_thms = [t for t in grid.theorems if t is not TheoremId.HH11]
    # each bound's id and table row once per sweep, not once per record
    bound_specs = [(t.value, FRACTIONAL_BOUNDS[t]) for t in bound_thms]
    # each constant once per distinct argument pair, and only if a bound reads it
    holder = [spec.holder for _, spec in bound_specs]
    c12: dict = {}
    if not all(holder):
        c12 = {(alpha, s): c1_c2(alpha, s) for alpha in grid.alphas for s in grid.svals}
    qps = [(q, conjugate_exponent(q)) for q in grid.qvals]
    c3p: dict = {}
    if any(holder):
        c3p = {(alpha, p): c3_root(alpha, p) for alpha in grid.alphas for _, p in qps}

    # lam^s and (1-lam)^s of the boundary triples, once per s
    lam_weights = {s: _lam_weights(s) for s in grid.svals}

    def cert(fid, table, s, target, mode, q):
        if target != "abs_deriv_pow":
            q = None
        key = (fid, s, target, mode, q)
        if key not in cert_cache:
            cert_cache[key] = _certify(
                table, target, q, s, mode, samples, _derive_seed(seed, *key),
                lam_weights[s],
            )
        return cert_cache[key]

    def lhs(fid, f, alpha, xs):
        # the family's first call integrates every (alpha, x) in one batch;
        # an alpha that failed raises here, where the loop first reaches it,
        # so a bad grid still ends in its first error
        if fid not in lhs_cache:
            lhs_cache[fid] = _lhs_by_alpha(f, grid.alphas, xs, cfg)
        got = lhs_cache[fid][alpha]
        if isinstance(got, Exception):
            raise got
        return got

    for fid, f in grid.families:
        a, b = f.lo, f.hi
        xs = _family_xs(f, grid.xfracs)
        # f and f' each evaluated once, at every point the family's
        # certificates, sandwich and right sides read
        f_table = _PointTable(f, a, b) if TheoremId.HH11 in grid.theorems else None
        fp_table = deriv = weights = None
        if bound_thms:  # the sandwich needs no f', which may be singular at lo
            fp_table, deriv = _deriv_table(f.derivative(), a, b, xs, bound_thms)
            weights = {
                (alpha, x): bound_weights(a, b, x, alpha)
                for alpha in grid.alphas
                for x in xs
            }
        integral = None  # int_a^b f for the sandwich, or its error
        for s in grid.svals:
            if TheoremId.HH11 in grid.theorems:
                c = cert(fid, f_table, s, "f", "convex", None)
                if integral is None:
                    try:
                        integral = integrate_adaptive(f.evaluate, a, b, cfg)
                    except QuadratureToleranceError as exc:
                        integral = exc
                if isinstance(integral, QuadratureToleranceError):
                    yield _error_row(
                        TheoremId.HH11, fid, None, s, None, None, None,
                        integral.error_estimate,
                    )
                else:
                    sandwich, err = _sandwich(f_table.ends_and_mid(), a, b, s, integral)
                    mid, right = sandwich.mid, sandwich.right
                    yield (
                        TheoremId.HH11.value, fid, None, s, None, None, None,
                        mid, right, sandwich.margin, _ratio(mid, right),
                        c.verdict, err, c.kind,
                    )
            if not bound_thms:
                continue
            # per q of this (family, s): each bound's (id, formula, verdict,
            # kind), filled at the first point whose lhs succeeded
            by_q: list = [None] * len(grid.qvals)

            def bounds_at_first_point(j, q):
                # each bound's certificate before the caller applies that
                # bound's formula, so a certificate that overflows raises
                # where a certificate per record would
                rows = []
                for tid, spec in bound_specs:
                    c = cert(fid, fp_table, s, spec.target, spec.mode, q)
                    rows.append((tid, spec.formula, c.verdict, c.kind))
                    yield rows[-1]
                by_q[j] = rows

            for alpha in grid.alphas:
                c1, c2 = c12.get((alpha, s), (math.nan, math.nan))
                qpk = [(q, p, c3p.get((alpha, p), math.nan)) for q, p in qps]
                row = lhs(fid, f, alpha, xs)
                for k, x in enumerate(xs):
                    got = row[k]
                    if isinstance(got, QuadratureToleranceError):
                        for q, p, _ in qpk:
                            for thm in bound_thms:
                                yield _error_row(
                                    thm, fid, alpha, s, x, p, q, got.error_estimate
                                )
                        continue
                    lhs_val, qerr = got
                    dv = deriv[k]
                    wa, wb = weights[alpha, x]
                    for j, (q, p, k3) in enumerate(qpk):
                        bounds = by_q[j] or bounds_at_first_point(j, q)
                        for tid, formula, verdict, kind in bounds:
                            rhs = formula(dv, wa, wb, alpha, s, q, c1, c2, k3)
                            yield (
                                tid, fid, alpha, s, x, p, q, lhs_val, rhs,
                                rhs - lhs_val, _ratio(lhs_val, rhs), verdict, qerr, kind,
                            )


def is_violation(rec: SweepRecord) -> bool:
    """Certified record whose margin undercuts the violation threshold."""
    return rec.certified and math.isfinite(rec.margin) and not _holds(rec.margin, rec.rhs)


@dataclass(frozen=True)
class TheoremSummary:
    count: int
    certified: int
    violations: int
    max_ratio: float | None
    argmax: SweepRecord | None
    mean_margin: float | None
    kinds: dict  # records per certificate kind; empty when no kind is known


@dataclass(frozen=True)
class SweepSummary:
    total: int
    certified: int
    errors: int
    violations: int
    by_theorem: dict


class _Group:
    """One id's certificate kinds in record order, its certified and
    violation counts, and the index, ratio and margin of each live row
    (certified, finite margin and ratio)."""

    __slots__ = ("kinds", "certified", "violations", "live", "ratios", "margins")

    def __init__(self) -> None:
        self.kinds, self.live, self.ratios, self.margins = [], [], [], []
        self.certified = self.violations = 0


def summarize(records: list[SweepRecord]) -> SweepSummary:
    """Violation count, per-theorem max ratio with its parameters, mean margin.

    max_ratio is taken over certified records with finite ratio; an infinite
    ratio only arises from rhs = 0 rows, whose tightness margin already says
    everything. Each argmax is the caller's own record, or the record of a
    plain row.
    """
    # one pass reads each row once: it counts errors and certified rows,
    # tests for a violation, and groups the rows by id
    groups = {tid.value: _Group() for tid in _THEOREM_ORDER}
    errors = certified = violations = 0
    tol = VIOLATION_TOL
    isfinite = math.isfinite
    i = -1
    for i, (tid, _, _, _, _, _, _, lhs, rhs, margin, ratio, cert, _, kind) in enumerate(records):
        group = groups.get(tid)
        if group is not None:
            group.kinds.append(kind)
        if not isfinite(lhs):
            errors += 1
        if not cert:
            continue
        certified += 1
        if group is not None:
            group.certified += 1
        if not isfinite(margin):
            continue
        # a copy of _holds: a call per row costs more than the test
        if not margin >= -tol * (1.0 + abs(rhs)):
            violations += 1
            if group is not None:
                group.violations += 1
        if group is not None and isfinite(ratio):
            group.live.append(i)
            group.ratios.append(ratio)
            group.margins.append(margin)
    if i < 0:
        raise DomainError("summarize requires at least one record")
    by_theorem: dict[str, TheoremSummary] = {}
    for tid, g in groups.items():
        if not g.kinds:
            continue
        argmax = max_ratio = None
        if g.ratios:
            # max and index both pick the first live row of the largest ratio
            max_ratio = max(g.ratios)
            argmax = records[g.live[g.ratios.index(max_ratio)]]
            if not isinstance(argmax, SweepRecord):
                argmax = SweepRecord._make(argmax)
        known = [kind for kind in g.kinds if kind is not None]
        by_theorem[tid] = TheoremSummary(
            count=len(g.kinds),
            certified=g.certified,
            violations=g.violations,
            max_ratio=max_ratio,
            argmax=argmax,
            mean_margin=sum(g.margins) / len(g.margins) if g.margins else None,
            kinds={k: known.count(k) for k in CERT_KINDS} if known else {},
        )
    return SweepSummary(
        total=i + 1,
        certified=certified,
        errors=errors,
        violations=violations,
        by_theorem=by_theorem,
    )


def _g12(v: float) -> str:
    return format(v, ".12g")


def format_summary(summary: SweepSummary) -> str:
    lines = [
        f"records = {summary.total}  certified = {summary.certified}  "
        f"errors = {summary.errors}  violations = {summary.violations}"
    ]
    for tid, ts in summary.by_theorem.items():
        counts = (
            f"{tid}: records={ts.count} certified={ts.certified} "
            f"violations={ts.violations}"
            + "".join(f" {kind}={n}" for kind, n in ts.kinds.items())
        )
        if ts.argmax is None:
            lines.append(f"{counts} (no certified records)")
            continue
        r = ts.argmax
        where = [f"family={r.family_id}", f"s={_g12(r.s)}"]
        if r.alpha is not None:
            where.append(f"alpha={_g12(r.alpha)}")
        if r.x is not None:
            where.append(f"x={_g12(r.x)}")
        if r.q is not None:
            where.append(f"q={_g12(r.q)}")
        lines.append(
            f"{counts} max_ratio={_g12(ts.max_ratio)} "
            f"({' '.join(where)}) mean_margin={_g12(ts.mean_margin)}"
        )
    return "\n".join(lines)


_UNSET = object()  # matches no cell object


class _Quoted(dict):
    """Each distinct string cell as csv quotes it in a row, computed once.

    A carriage return counts as a line break, as it does for csv.reader.
    """

    def __missing__(self, text: str) -> str:
        buf = io.StringIO()
        # a row of one empty field is written '""': quote inside a longer row
        csv.writer(buf, lineterminator="\r\n").writerow((text, ""))
        self[text] = cell = buf.getvalue()[:-3]
        return cell


def write_csv(records: list[SweepRecord], path) -> None:
    """Persist records (or rows), one row written at a time.

    Float cells use shortest round-trip literals, the id cells csv quoting.
    A cell that holds the same object as the previous row's is not formatted
    again: each cell of the family..q block, whose cells a grid point's
    bound rows share and most of which its next point shares, and the lhs
    and quad_error_est cells that all its rows share. The test is identity,
    never equality, so -0.0 after 0.0, and NaN, are written exactly.
    """
    quoted = _Quoted()
    # the previous row's cell objects
    fid0 = alpha0 = s0 = x0 = p0 = q0 = lhs0 = qerr0 = _UNSET
    with open(path, "w", newline="") as fh:
        write = fh.write
        write(",".join(CSV_COLUMNS) + "\n")
        for tid, fid, alpha, s, x, p, q, lhs, rhs, margin, ratio, cert, qerr, _ in records:
            if not (
                fid is fid0 and alpha is alpha0 and s is s0
                and x is x0 and p is p0 and q is q0
            ):
                # only the cells whose object changed are formatted again
                if fid is not fid0:
                    fid0, fid_cell = fid, quoted[fid]
                if alpha is not alpha0:
                    alpha0, alpha_cell = alpha, "" if alpha is None else repr(alpha)
                if s is not s0:
                    s0, s_cell = s, repr(s)
                if x is not x0:
                    x0, x_cell = x, "" if x is None else repr(x)
                if p is not p0:
                    p0, p_cell = p, "" if p is None else repr(p)
                if q is not q0:
                    q0, q_cell = q, "" if q is None else repr(q)
                block = f"{fid_cell},{alpha_cell},{s_cell},{x_cell},{p_cell},{q_cell}"
            if lhs is not lhs0:
                lhs0 = lhs
                lhs_cell = repr(lhs)
            if qerr is not qerr0:
                qerr0 = qerr
                qerr_cell = repr(qerr)
            write(
                f"{quoted[tid]},{block},{lhs_cell},{rhs!r},{margin!r},"
                f"{ratio!r},{'true' if cert else 'false'},{qerr_cell}\n"
            )


_OPTIONAL = ("alpha", "x", "p", "q")
_NUMERIC = _OPTIONAL + ("s", "lhs", "rhs", "margin", "ratio", "quad_error_est")


def _parse_float(cell: str, column: str, row: int) -> float:
    try:
        return float(cell)
    except ValueError:
        raise CsvSchemaError(
            f"row {row}: column {column!r} is not a number: {cell!r}"
        ) from None


def read_csv(path) -> list[SweepRecord]:
    """Read records back; schema violations name the offending column.

    A numeric cell whose text repeats the previous row's (the alpha..q
    block a grid point's rows share, and their lhs and quad_error_est) is
    not parsed again: the row takes the previous row's float.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise CsvSchemaError("empty file: missing header row") from None
        if tuple(header) != CSV_COLUMNS:
            missing = [c for c in CSV_COLUMNS if c not in header]
            if missing:
                raise CsvSchemaError(f"missing column(s): {', '.join(missing)}")
            raise CsvSchemaError(
                f"header mismatch: expected {','.join(CSV_COLUMNS)}, got {','.join(header)}"
            )
        records = []
        make = SweepRecord._make
        # the previous row's cell texts (None matches no cell) and their values
        alpha0 = s0 = x0 = p0 = q0 = lhs0 = qerr0 = None
        for i, row in enumerate(reader, start=1):
            if len(row) != _WIDTH:
                raise CsvSchemaError(f"row {i}: expected {_WIDTH} cells, got {len(row)}")
            tid, fid, alpha, s, x, p, q, lhs, rhs, margin, ratio, certified, qerr = row
            if certified not in ("true", "false"):
                raise CsvSchemaError(
                    f"row {i}: column 'certified' must be true/false, got {certified!r}"
                )
            try:
                if alpha != alpha0:
                    alpha_v, alpha0 = None if alpha == "" else float(alpha), alpha
                if s != s0:
                    s_v, s0 = float(s), s
                if x != x0:
                    x_v, x0 = None if x == "" else float(x), x
                if p != p0:
                    p_v, p0 = None if p == "" else float(p), p
                if q != q0:
                    q_v, q0 = None if q == "" else float(q), q
                if lhs != lhs0:
                    lhs_v, lhs0 = float(lhs), lhs
                if qerr != qerr0:
                    qerr_v, qerr0 = float(qerr), qerr
                records.append(make((
                    tid, fid, alpha_v, s_v, x_v, p_v, q_v, lhs_v,
                    float(rhs), float(margin), float(ratio), certified == "true", qerr_v, None,
                )))
            except ValueError:
                # the first bad cell in _NUMERIC order names the row's error
                cells = dict(zip(CSV_COLUMNS, row))
                for c in _NUMERIC:
                    if not (c in _OPTIONAL and cells[c] == ""):
                        _parse_float(cells[c], c, i)
                raise
    return records


_SVG_COLORS = {
    "T21": "#1f77b4",
    "T22": "#ff7f0e",
    "T23": "#2ca02c",
    "T24": "#d62728",
    "HH11": "#9467bd",
}


def render_svg(records: list[SweepRecord]) -> str:
    """Scatter of ratio against alpha per bound id, 800x600 viewBox, from
    records or rows.

    Sandwich rows carry no alpha and are omitted.
    """
    # each drawn point's (id, alpha, ratio)
    isfinite = math.isfinite
    pts = [
        (tid, alpha, ratio)
        for tid, _, alpha, _, _, _, _, _, _, _, ratio, cert, _, _ in records
        if cert and alpha is not None and isfinite(ratio)
    ]
    width, height = 800, 600
    ml, mr, mt, mb = 70, 150, 30, 50
    alphas = sorted({alpha for _, alpha, _ in pts})
    amin, amax = (alphas[0], alphas[-1]) if alphas else (0.0, 1.0)
    if amin == amax:
        lo, hi = amin - 0.5, amax + 0.5
        # from 2^52 on, +-0.5 can round back to the alpha itself
        if lo == hi:
            lo, hi = math.nextafter(amin, -math.inf), math.nextafter(amax, math.inf)
        amin, amax = lo, hi
    rmax = max((ratio for _, _, ratio in pts), default=1.0)
    ymax = max(1.0, rmax) * 1.05

    def px(alpha: float) -> float:
        return ml + (alpha - amin) / (amax - amin) * (width - ml - mr)

    def py(ratio: float) -> float:
        return height - mb - ratio / ymax * (height - mt - mb)

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{ml}" y1="{height - mb}" x2="{width - mr}" y2="{height - mb}" '
        'stroke="black"/>',
        f'<line x1="{ml}" y1="{mt}" x2="{ml}" y2="{height - mb}" stroke="black"/>',
        f'<text x="{(ml + width - mr) / 2:.1f}" y="{height - 12}" '
        'text-anchor="middle" font-size="14">alpha</text>',
        f'<text x="18" y="{(mt + height - mb) / 2:.1f}" text-anchor="middle" '
        f'font-size="14" transform="rotate(-90 18 {(mt + height - mb) / 2:.1f})">'
        "lhs / rhs</text>",
    ]
    for a in alphas[:12]:
        out.append(
            f'<line x1="{px(a):.1f}" y1="{height - mb}" x2="{px(a):.1f}" '
            f'y2="{height - mb + 5}" stroke="black"/>'
        )
        out.append(
            f'<text x="{px(a):.1f}" y="{height - mb + 20}" text-anchor="middle" '
            f'font-size="12">{a:g}</text>'
        )
    ticks = 5
    for i in range(ticks + 1):
        yv = ymax * i / ticks
        out.append(
            f'<line x1="{ml - 5}" y1="{py(yv):.1f}" x2="{ml}" y2="{py(yv):.1f}" '
            'stroke="black"/>'
        )
        out.append(
            f'<text x="{ml - 9}" y="{py(yv) + 4:.1f}" text-anchor="end" '
            f'font-size="12">{yv:.2f}</text>'
        )
    drawn = {tid for tid, _, _ in pts}
    seen = [t.value for t in FRACTIONAL_BOUNDS if t.value in drawn]
    # px once per alpha; py inline, in its own order of operations
    cx = {a: f"{px(a):.2f}" for a in alphas}
    base, span = height - mb, height - mt - mb
    colors = {tid: _SVG_COLORS.get(tid, "#7f7f7f") for tid in drawn}
    out += [
        f'<circle cx="{cx[alpha]}" cy="{base - ratio / ymax * span:.2f}" r="3" '
        f'fill="{colors[tid]}" fill-opacity="0.55"/>'
        for tid, alpha, ratio in pts
    ]
    for i, tid in enumerate(seen):
        yy = mt + 16 + 20 * i
        out.append(
            f'<circle cx="{width - mr + 18}" cy="{yy}" r="4" fill="{_SVG_COLORS[tid]}"/>'
        )
        out.append(
            f'<text x="{width - mr + 30}" y="{yy + 4}" font-size="13">{tid}</text>'
        )
    out.append("</svg>")
    return "\n".join(out)


_THEOREM_TOKENS = {t.value.lower(): t for t in FRACTIONAL_BOUNDS} | {"hh": TheoremId.HH11}

_LIST_KEYS = ("alphas", "svals", "xfracs", "qvals")


def grid_from_config_text(text: str) -> SweepGrid:
    """Parse a sweep config: 'key = value' lines with '#' comments.

    Keys: alphas, svals, xfracs, qvals (comma-separated numbers), theorems
    (comma-separated from t21, t22, t23, t24, hh) and one 'family.<id> =
    <function spec>' line per family. A key may appear once. ParseErrors name
    the 1-based line.
    """
    lists: dict[str, tuple[float, ...]] = {}
    theorems: tuple[TheoremId, ...] | None = None
    families: list[tuple[str, FunctionModel]] = []
    seen: dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParseError("expected 'key = value'", lineno, unit="line")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key in seen:
            raise ParseError(
                f"key {key!r} repeats line {seen[key]}", lineno, unit="line"
            )
        seen[key] = lineno
        if key in _LIST_KEYS:
            try:
                lists[key] = tuple(float(tok) for tok in value.split(","))
            except ValueError:
                raise ParseError(
                    f"{key} expects comma-separated numbers", lineno, unit="line"
                ) from None
        elif key == "theorems":
            toks = [t.strip().lower() for t in value.split(",")]
            unknown = [t for t in toks if t not in _THEOREM_TOKENS]
            if unknown:
                raise ParseError(
                    f"unknown theorem id(s) {', '.join(unknown)} "
                    f"(expected {', '.join(_THEOREM_TOKENS)})",
                    lineno,
                    unit="line",
                )
            theorems = tuple(_THEOREM_TOKENS[t] for t in toks)
        elif key.startswith("family."):
            fid = key[len("family.") :].strip()
            if not fid:
                raise ParseError(
                    "family key needs an id: family.<id> = <spec>", lineno, unit="line"
                )
            try:
                families.append((fid, parse_function(value)))
            except ParseError as exc:
                raise ParseError(f"{key}: {exc}", lineno, unit="line") from None
        else:
            raise ParseError(f"unknown config key {key!r}", lineno, unit="line")
    missing = [k for k in _LIST_KEYS if k not in lists]
    if theorems is None:
        missing.append("theorems")
    if missing:
        raise DomainError(f"config missing required key(s): {', '.join(missing)}")
    if not families:
        raise DomainError("config defines no families (family.<id> = <spec> lines)")
    return SweepGrid(
        alphas=lists["alphas"],
        svals=lists["svals"],
        xfracs=lists["xfracs"],
        qvals=lists["qvals"],
        families=tuple(families),
        theorems=theorems,
    )


def _derivative_domain(f: FunctionModel) -> FunctionModel:
    """f itself, or f on [lo + 1e-9*(hi-lo), hi] when f' is unbounded at lo."""
    if not f.has_singular_derivative:
        return f
    return f.with_domain(f.lo + _SHRINK_FRACTION * (f.hi - f.lo), f.hi)


def apply_derivative_shrink(grid: SweepGrid) -> tuple[SweepGrid, list[str]]:
    """Move singular-derivative families off their left edge when f' is needed.

    Bounds t21..t24 evaluate f', which blows up at the left endpoint for
    terms c*(u-lo)^e with 0 < e < 1. When the grid includes such bounds,
    affected family domains shrink to [lo + 1e-9*(hi-lo), hi]; each shrink
    is reported in the returned notes. Sandwich-only grids are untouched
    (the sandwich needs no derivative, and its sharpness witness u^s lives
    exactly at a = 0).
    """
    if not any(t in grid.theorems for t in FRACTIONAL_BOUNDS):
        return grid, []
    notes = []
    families = []
    for fid, f in grid.families:
        g = _derivative_domain(f)
        if g is not f:
            notes.append(
                f"note: family {fid}: domain shrunk to [{g.lo!r}, {g.hi!r}] "
                "(derivative singular at the left endpoint)"
            )
        families.append((fid, g))
    if not notes:
        return grid, []
    return replace(grid, families=tuple(families)), notes


def standard_config_text() -> str:
    """The shipped default sweep configuration."""
    return (
        resources.files("fracineq.data").joinpath("standard_sweep.cfg").read_text()
    )


def standard_grid() -> SweepGrid:
    """Grid parsed from the shipped default configuration."""
    return grid_from_config_text(standard_config_text())
