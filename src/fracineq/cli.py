"""Command line front end.

Four subcommands: ``identity`` checks the weighted endpoint identity at one
point, ``bound`` evaluates a single bound and verifies lhs <= rhs, ``certify``
proves, refutes or sample-certifies a convexity hypothesis on a function, and
``sweep`` crosses a parameter grid and writes a CSV of records. ``bound`` and
``certify`` print how the certificate was decided.

Exit codes: 0 success, 1 a checked inequality or residual failed, 2 usage or
input errors (inputs that overflow floating point among them), 3 quadrature
could not reach tolerance or its integrand turned non-finite. All numeric
output is printed to 12 significant digits.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from enum import IntEnum

import numpy as np

from .errors import (
    CsvSchemaError,
    DerivativeSingularityError,
    DomainError,
    ParseError,
    QuadratureToleranceError,
)
from .funcmodel import (
    CERT_SAMPLES,
    CertificationReport,
    FunctionModel,
    _certify,
    _model_table,
    certify_model,
    parse_function,
)
from .hh_core import (
    BOUNDS,
    FRACTIONAL_BOUNDS,
    ProblemInstance,
    TheoremId,
    bound,
    hh_sandwich_with_error,
    identity_lhs_with_error,
    identity_rhs_with_error,
)
from .rlint import DEFAULT_CONFIG
from .sweep import (
    _derivative_domain,
    _g12,
    _holds,
    _sweep_rows,
    apply_derivative_shrink,
    format_summary,
    grid_from_config_text,
    render_svg,
    standard_config_text,
    summarize,
    write_csv,
)

__all__ = ["ExitCode", "main"]


class ExitCode(IntEnum):
    OK = 0
    FAILURE = 1
    USAGE = 2
    QUADRATURE = 3


def _shrink_for_derivative(f: FunctionModel, a: float) -> tuple[FunctionModel, float, str | None]:
    """Nudge a off the left edge when f' is unbounded there."""
    g = _derivative_domain(f)
    if g is f:
        return f, a, None
    note = (
        f"note: f' is unbounded at {_g12(f.lo)}; "
        f"working on [{_g12(g.lo)}, {_g12(g.hi)}] instead"
    )
    return g, max(a, g.lo), note


def _kind_text(cert: CertificationReport) -> str:
    """How the certificate was decided: its rule, or its sample count and seed."""
    if cert.rule is None:
        return f"{cert.kind}: {cert.samples} triples, seed {cert.seed}"
    return f"{cert.kind}: {cert.rule}"


def _print_certification(cert: CertificationReport, subject: str) -> None:
    if cert.kind == "proved":
        print(f"hypothesis certified: yes ({_kind_text(cert)})")
        return
    x, y, lam = cert.witness
    detail = (
        f"{_kind_text(cert)}; worst violation {_g12(cert.worst_violation)} at "
        f"x={_g12(x)}, y={_g12(y)}, lam={_g12(lam)}"
    )
    if cert.verdict:
        print(f"hypothesis certified: yes ({detail})")
    else:
        print(
            f"hypothesis certified: NO ({detail}); "
            f"the {subject} is not asserted for this function"
        )


def _cmd_identity(args: argparse.Namespace) -> ExitCode:
    if not (math.isfinite(args.tol) and args.tol >= 0.0):
        raise DomainError(f"--tol must be finite and >= 0, got {args.tol!r}")
    f = parse_function(args.f)
    f, a, note = _shrink_for_derivative(f, args.a)
    if note:
        print(note)
    inst = ProblemInstance(f, a, args.b, args.x, args.alpha, 1.0)
    lhs, lerr = identity_lhs_with_error(inst, DEFAULT_CONFIG)
    rhs, rerr = identity_rhs_with_error(inst, DEFAULT_CONFIG)
    residual = abs(lhs - rhs)
    tol = args.tol * (1.0 + abs(lhs))
    print(f"lhs = {_g12(lhs)} (quadrature error est {_g12(lerr)})")
    print(f"rhs = {_g12(rhs)} (quadrature error est {_g12(rerr)})")
    print(f"residual = {_g12(residual)} (tolerance {_g12(tol)})")
    if residual <= tol:
        print("identity holds")
        return ExitCode.OK
    print("identity residual exceeds tolerance")
    return ExitCode.FAILURE


def _cmd_bound(args: argparse.Namespace) -> ExitCode:
    thm = args.thm
    if thm == "hh":
        return _cmd_bound_hh(args)
    tid = TheoremId(thm.upper())
    spec = BOUNDS[tid]
    if spec.q_name is not None and args.q is None:
        raise DomainError(f"--q is required for {thm}")
    if args.x is None:
        raise DomainError(f"--x is required for {thm}")
    if tid in FRACTIONAL_BOUNDS and args.alpha is None:
        raise DomainError(f"--alpha is required for {thm}")
    if tid not in FRACTIONAL_BOUNDS and args.alpha not in (None, 1.0):
        raise DomainError(f"{thm} is the alpha = 1 case; omit --alpha or pass 1")
    alpha = 1.0 if args.alpha is None else args.alpha
    f = parse_function(args.f)
    f, a, note = _shrink_for_derivative(f, args.a)
    if note:
        print(note)
    inst = ProblemInstance(f, a, args.b, args.x, alpha, args.s, q=args.q)
    report = bound(tid, inst, DEFAULT_CONFIG, args.samples, args.seed)
    if spec.note is not None:
        print(spec.note)
    print(f"lhs = {_g12(report.lhs)} (quadrature error est {_g12(report.quad_error_est)})")
    print(f"rhs = {_g12(report.rhs)}")
    print(f"margin = {_g12(report.margin)}")
    print(f"ratio = {_g12(report.ratio)}")
    _print_certification(report.certification, "bound")
    if _holds(report.rhs - report.lhs, report.rhs):
        print("bound holds")
        return ExitCode.OK
    print("bound VIOLATED")
    return ExitCode.FAILURE


def _cmd_bound_hh(args: argparse.Namespace) -> ExitCode:
    ignored = [
        name
        for name, val in (("--x", args.x), ("--alpha", args.alpha), ("--q", args.q))
        if val is not None
    ]
    if ignored:
        print(f"note: {', '.join(ignored)} not used by hh")
    f = parse_function(args.f)
    # certify_model's checks and table, whose points the sandwich reads too
    table = _model_table(f, args.a, args.b, args.s, "convex", args.samples, args.seed)
    cert = _certify(table, "f", None, args.s, "convex", args.samples, args.seed)
    sandwich, err = hh_sandwich_with_error(f, args.a, args.b, args.s, DEFAULT_CONFIG, table)
    left, mid, right = sandwich
    print(f"left (scaled midpoint value) = {_g12(left)}")
    print(f"mid (mean integral) = {_g12(mid)} (quadrature error est {_g12(err)})")
    print(f"right (endpoint average) = {_g12(right)}")
    print(f"slack left = {_g12(mid - left)}")
    print(f"slack right = {_g12(right - mid)}")
    _print_certification(cert, "sandwich")
    if _holds(sandwich.margin, right):
        print("sandwich holds")
        return ExitCode.OK
    print("sandwich VIOLATED")
    return ExitCode.FAILURE


def _cmd_certify(args: argparse.Namespace) -> ExitCode:
    f = parse_function(args.f)
    report = certify_model(
        f, "f", None, f.lo, f.hi, args.s, args.mode, args.samples, args.seed
    )
    kind = f"s-{args.mode}" if args.s != 1.0 else args.mode
    print(f"function: {f.render()}")
    print(f"checked {kind} with s = {_g12(args.s)} ({_kind_text(report)})")
    if report.kind != "proved":
        x, y, lam = report.witness
        print(
            f"worst violation = {_g12(report.worst_violation)} "
            f"(tolerance {_g12(report.tol)})"
        )
        print(f"worst triple: x={_g12(x)}, y={_g12(y)}, lam={_g12(lam)}")
    if report.verdict:
        print("certified")
        return ExitCode.OK
    print("NOT certified")
    return ExitCode.FAILURE


def _cmd_sweep(args: argparse.Namespace) -> ExitCode:
    if args.config is None:
        text = standard_config_text()
    else:
        with open(args.config) as fh:
            text = fh.read()
    grid, notes = apply_derivative_shrink(grid_from_config_text(text))
    for note in notes:
        print(note)
    # plain rows, not records: the outputs unpack an exact tuple fastest
    rows = list(_sweep_rows(grid, DEFAULT_CONFIG, seed=0))
    write_csv(rows, args.out)
    print(f"wrote {len(rows)} records to {args.out}")
    summary = summarize(rows)
    if args.summary:
        print(format_summary(summary))
    else:
        print(
            f"certified = {summary.certified}  errors = {summary.errors}  "
            f"violations = {summary.violations}"
        )
    if args.svg is not None:
        with open(args.svg, "w") as fh:
            fh.write(render_svg(rows))
        print(f"wrote scatter to {args.svg}")
    return ExitCode.FAILURE if summary.violations else ExitCode.OK


def _add_model_args(p: argparse.ArgumentParser, interval: bool = True) -> None:
    p.add_argument(
        "--f",
        required=True,
        metavar="SPEC",
        help="function, e.g. '1*(u-0)^2 on [0,1]'",
    )
    if interval:
        p.add_argument("--a", type=float, required=True, help="interval left endpoint")
        p.add_argument("--b", type=float, required=True, help="interval right endpoint")


class _Parser(argparse.ArgumentParser):
    """Reports malformed argv as one stderr line, like every other input error."""

    def error(self, message: str):
        self.exit(int(ExitCode.USAGE), f"error: {message}\n")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first main call and kept for the process.

    Building it costs more than parsing one short argv, so a process that
    calls main many times pays for it once; a fresh process pays as before.
    Each subcommand's set_defaults(func=...) binds its _cmd_* function at
    that first build, so tests replace what the commands call, not the
    commands themselves.
    """
    parser = _Parser(
        prog="fracineq",
        description="verify endpoint-average inequalities for fractional integrals",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    identity = sub.add_parser(
        "identity", help="check the weighted endpoint identity at one point"
    )
    _add_model_args(identity)
    identity.add_argument("--x", type=float, required=True, help="interior point")
    identity.add_argument("--alpha", type=float, required=True, help="integral order")
    identity.add_argument(
        "--tol",
        type=float,
        default=1e-8,
        help="relative residual tolerance (default 1e-8)",
    )
    identity.set_defaults(func=_cmd_identity)

    bound = sub.add_parser("bound", help="evaluate one bound and verify lhs <= rhs")
    bound.add_argument(
        "--thm",
        required=True,
        choices=[t.value.lower() for t in BOUNDS] + ["hh"],
        help="bound id (t2x fractional, c1x their alpha = 1 forms, hh the sandwich)",
    )
    _add_model_args(bound)
    bound.add_argument("--x", type=float, help="interior point (t2x, c1x)")
    bound.add_argument("--alpha", type=float, help="integral order (t2x)")
    bound.add_argument("--s", type=float, required=True, help="convexity order in (0, 1]")
    bound.add_argument("--q", type=float, help="power-mean exponent (t22..t24, c14..c16)")
    bound.add_argument(
        "--samples",
        type=int,
        default=CERT_SAMPLES,
        help=f"certifier sample count (default {CERT_SAMPLES})",
    )
    bound.add_argument("--seed", type=int, default=0, help="certifier seed (default 0)")
    bound.set_defaults(func=_cmd_bound)

    certify = sub.add_parser(
        "certify", help="prove or sample-certify s-convexity or s-concavity of f"
    )
    _add_model_args(certify, interval=False)
    certify.add_argument("--s", type=float, required=True, help="convexity order in (0, 1]")
    certify.add_argument(
        "--mode", required=True, choices=["convex", "concave"], help="which side to check"
    )
    certify.add_argument(
        "--samples",
        type=int,
        default=CERT_SAMPLES,
        help=f"sample count when no rule or boundary triple decides (default {CERT_SAMPLES})",
    )
    certify.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")
    certify.set_defaults(func=_cmd_certify)

    sweep = sub.add_parser("sweep", help="run a verification sweep and write a CSV")
    sweep.add_argument(
        "--config",
        help="sweep config file (omit for the shipped default grid)",
    )
    sweep.add_argument("--out", required=True, help="output CSV path")
    sweep.add_argument(
        "--summary", action="store_true", help="print per-bound tightness summary"
    )
    sweep.add_argument("--svg", help="also write a ratio-vs-alpha scatter SVG here")
    sweep.set_defaults(func=_cmd_sweep)

    return parser


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns the exit code instead of raising SystemExit."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return int(ExitCode.OK) if code in (0, None) else int(code)
    try:
        # a non-finite value fails with one error line, not numpy warnings
        with np.errstate(over="ignore", invalid="ignore"):
            return int(args.func(args))
    except (ParseError, DomainError, DerivativeSingularityError, CsvSchemaError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return int(ExitCode.USAGE)
    except OverflowError:
        print(
            "error: inputs overflow floating point (a result exceeds 1.8e308)",
            file=sys.stderr,
        )
        return int(ExitCode.USAGE)
    except QuadratureToleranceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return int(ExitCode.QUADRATURE)


if __name__ == "__main__":
    raise SystemExit(main())
