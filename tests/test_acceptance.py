"""Acceptance checks.

Each criterion is one test that prints a single pass/fail line (visible with
-s, or in the captured output on failure); the verbose test listing therefore
also shows exactly one row per criterion. Tolerances are pinned here and
nowhere loosened.
"""

import math
import time

import numpy as np
import pytest

import fracineq.cli as cli
from fracineq.funcmodel import FunctionModel, PowerTerm, parse_function
from fracineq.hh_core import (
    ProblemInstance,
    bound_classical,
    bound_t21,
    bound_t22,
    bound_t23,
    bound_t24,
    hh_sandwich_with_error,
    identity_lhs_with_error,
    identity_rhs_with_error,
    proof_constants,
)
from fracineq.rlint import QuadratureConfig, integrate_adaptive, rl_left
from fracineq.sweep import apply_derivative_shrink, run_sweep, standard_grid, summarize
from test_rlint import rl_power_rule_oracle

ALPHAS = (0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 3.0)
XFRACS = (0.05, 0.1625, 0.275, 0.3875, 0.5, 0.6125, 0.725, 0.8375, 0.95)

TIGHT = QuadratureConfig(rel_tol=1e-13, abs_tol=1e-15, max_subdivisions=20000)


def _verdict(number: int, name: str, ok: bool, detail: str = "") -> None:
    line = f"[criterion {number}] {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def _random_quadratic(rng) -> FunctionModel:
    c0, c1, c2 = rng.uniform(0.1, 2.0, size=3)
    return FunctionModel(
        (PowerTerm(c0, 0.0, 0.0), PowerTerm(c1, 0.0, 1.0), PowerTerm(c2, 0.0, 2.0)),
        0.0,
        1.0,
    )


def test_criterion_1_identity_residual_grid():
    """Identity residual <= 1e-8 * (1 + |lhs|) across families, orders, points."""
    families = [
        parse_function("1*(u-0)^2 on [0,1]"),
        parse_function("0.5*(u-0)^2 on [0,1]"),
        parse_function("1*(u-0)^0 + 1*(u-0)^1 on [0,1]"),
        parse_function("1*(u-0)^0 on [0,1]"),
        parse_function("0.6666666666666666*(u-0)^1.5 on [0.01,1]"),
        parse_function("0.8*(u-0)^1.25 on [0.01,1]"),
    ]
    started = time.monotonic()
    worst = 0.0
    checked = 0
    for f in families:
        for alpha in ALPHAS:
            for frac in XFRACS:
                x = f.lo + frac * (f.hi - f.lo)
                inst = ProblemInstance(f, f.lo, f.hi, x, alpha, 1.0)
                lhs, _ = identity_lhs_with_error(inst)
                rhs, _ = identity_rhs_with_error(inst)
                rel = abs(lhs - rhs) / (1.0 + abs(lhs))
                worst = max(worst, rel)
                checked += 1
                assert rel <= 1e-8, (f.render(), alpha, x, lhs, rhs)
    elapsed = time.monotonic() - started
    ok = worst <= 1e-8 and elapsed < 60.0
    _verdict(
        1,
        "identity residual grid",
        ok,
        f"{checked} points, worst residual {worst:.3e}, {elapsed:.1f}s",
    )


def test_criterion_2_fractional_integral_power_rule():
    """Left operator matches the closed-form power rule to 1e-9 relative."""
    worst = 0.0
    for exponent in (0.0, 1.0, 2.0, 2.5):
        term = PowerTerm(1.0, 0.0, exponent)
        f = FunctionModel((term,), 0.0, 1.0)
        for alpha in ALPHAS:
            for x in XFRACS:
                expect = rl_power_rule_oracle(term, 0.0, alpha, x)
                got = rl_left(f, 0.0, alpha, x)
                rel = abs(got - expect) / (1.0 + abs(expect))
                worst = max(worst, rel)
                assert rel <= 1e-9, (exponent, alpha, x, got, expect)
    _verdict(2, "power rule agreement", worst <= 1e-9, f"worst {worst:.3e}")


def test_criterion_3_proof_constants_match_quadrature():
    """c1, c2, c3 match their defining integrals to 1e-12."""
    worst = 0.0
    for alpha in (0.5, 1.0, 2.0, 3.0):
        for s in (0.25, 0.5, 0.75, 1.0):
            for p in (1.5, 2.0, 3.0):
                c = proof_constants(alpha, s, p)
                i1, _ = integrate_adaptive(
                    lambda t: (1.0 - t**alpha) * t**s, 0.0, 1.0, TIGHT
                )
                i2, _ = integrate_adaptive(
                    lambda t: (1.0 - t**alpha) * (1.0 - t) ** s, 0.0, 1.0, TIGHT
                )
                i3, _ = integrate_adaptive(
                    lambda t: (1.0 - t**alpha) ** p, 0.0, 1.0, TIGHT
                )
                for got, expect in ((c.c1, i1), (c.c2, i2), (c.c3, i3)):
                    rel = abs(got - expect) / (1.0 + abs(expect))
                    worst = max(worst, rel)
                    assert rel <= 1e-12, (alpha, s, p, got, expect)
    spot1 = abs(proof_constants(2.0, 1.0, 2.0).c1 - 0.25)
    spot2 = abs(proof_constants(1.0, 1.0, 2.0).c3 - 1.0 / 3.0)
    ok = worst <= 1e-12 and spot1 <= 1e-13 and spot2 <= 1e-13
    _verdict(3, "proof constants vs quadrature", ok, f"worst {worst:.3e}")


def test_criterion_4_standard_sweep_has_no_violations():
    """Certified records in the shipped sweep never undercut their bound."""
    grid, _ = apply_derivative_shrink(standard_grid())
    records = run_sweep(grid)
    summary = summarize(records)
    hh_rows = [r for r in records if r.theorem_id == "HH11"]
    hh_ok = all(
        r.margin >= -1e-9 * (1.0 + abs(r.rhs)) for r in hh_rows if r.certified
    )
    ok = summary.errors == 0 and summary.violations == 0 and hh_ok and hh_rows
    _verdict(
        4,
        "standard sweep clean",
        bool(ok),
        f"{summary.total} records, {summary.certified} certified, "
        f"{summary.violations} violations, {summary.errors} errors",
    )


def test_criterion_5_classical_reductions_agree():
    """At order 1 each bound reproduces its separately coded classical form."""
    pairs = [
        (bound_t21, "C13"),
        (bound_t22, "C14"),
        (bound_t23, "C15"),
        (bound_t24, "C16"),
    ]
    rng = np.random.default_rng(12345)
    worst = 0.0
    for fractional, classical in pairs:
        for _ in range(50):
            f = _random_quadratic(rng)
            x = float(rng.uniform(0.05, 0.95))
            s = float(rng.uniform(0.25, 1.0))
            q = float(rng.uniform(1.5, 3.0))
            inst = ProblemInstance(f, 0.0, 1.0, x, 1.0, s, q=q)
            frac = fractional(inst, samples=256)
            clas = bound_classical(classical, inst, samples=256)
            rel = abs(frac.rhs - clas.rhs) / (1.0 + abs(clas.rhs))
            worst = max(worst, rel)
            assert rel <= 1e-12, (classical, f.render(), x, s, q)
    _verdict(5, "classical reductions", worst <= 1e-12, f"200 instances, worst {worst:.3e}")


def test_criterion_6_sandwich_sharpness():
    """f = u^s on [0, 1] makes the endpoint-average side an equality."""
    worst = 0.0
    for s in (0.25, 0.5, 0.75):
        f = parse_function(f"1*(u-0)^{s} on [0,1]")
        (_, mid, right), _ = hh_sandwich_with_error(f, 0.0, 1.0, s, TIGHT)
        gap = abs(mid / right - 1.0)
        worst = max(worst, gap)
        assert gap <= 1e-10, (s, mid, right)
    _verdict(6, "sandwich sharpness witness", worst <= 1e-10, f"worst |ratio-1| {worst:.3e}")


def test_criterion_7_sweep_is_reproducible(tmp_path):
    """Two shipped-config sweep runs write byte-identical CSV files."""
    p1, p2 = tmp_path / "first.csv", tmp_path / "second.csv"
    code1 = cli.main(["sweep", "--out", str(p1)])
    code2 = cli.main(["sweep", "--out", str(p2)])
    identical = p1.read_bytes() == p2.read_bytes()
    ok = code1 == 0 and code2 == 0 and identical
    _verdict(7, "sweep reproducibility", ok, f"{p1.stat().st_size} bytes per run")


def test_criterion_8_power_mean_collapses_at_q_one():
    """q = 1 power-mean bound equals the first-power bound to 1e-15."""
    rng = np.random.default_rng(777)
    worst = 0.0
    for _ in range(20):
        f = _random_quadratic(rng)
        alpha = float(rng.uniform(0.25, 3.0))
        x = float(rng.uniform(0.0, 1.0))
        s = float(rng.uniform(0.25, 1.0))
        inst = ProblemInstance(f, 0.0, 1.0, x, alpha, s, q=1.0)
        r23 = bound_t23(inst, samples=256)
        r21 = bound_t21(inst, samples=256)
        rel = abs(r23.rhs - r21.rhs) / (1.0 + abs(r21.rhs))
        worst = max(worst, rel)
        assert rel <= 1e-15, (f.render(), alpha, x, s)
        assert r23.lhs == r21.lhs
    _verdict(8, "power-mean degeneracy at q = 1", worst <= 1e-15, f"worst {worst:.3e}")
