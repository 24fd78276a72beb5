"""Grid runner, CSV schema, summaries, config grammar, scatter rendering."""

import csv
import functools
import io
import math
import re
import struct
import sys
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracineq import rlint
from fracineq import sweep as sweep_module
from fracineq.errors import CsvSchemaError, DomainError, ParseError, QuadratureToleranceError
from fracineq.funcmodel import (
    CERT_SAMPLES,
    FunctionModel,
    _check_q,
    certify_model,
    certify_pointwise,
    parse_function,
)
from fracineq.hh_core import (
    FRACTIONAL_BOUNDS,
    DerivValues,
    ProblemInstance,
    TheoremId,
    _ratio,
    bound_weights,
    c1_c2,
    c3_root,
    _identity_lhs_rows,
    hh_sandwich_with_error,
    rhs_t21,
    rhs_t22,
    rhs_t23,
    rhs_t24,
)
from fracineq.rlint import DEFAULT_CONFIG, QuadratureConfig
from fracineq.sweep import (
    CSV_COLUMNS,
    SweepGrid,
    SweepRecord,
    _derive_seed,
    apply_derivative_shrink,
    format_summary,
    grid_from_config_text,
    is_violation,
    read_csv,
    render_svg,
    run_sweep,
    standard_config_text,
    standard_grid,
    summarize,
    write_csv,
)
from test_funcmodel import g_fn, mp_violation

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import worker  # noqa: E402

ALL_THEOREMS = (
    TheoremId.T21,
    TheoremId.T22,
    TheoremId.T23,
    TheoremId.T24,
    TheoremId.HH11,
)


def _tiny_grid(theorems=ALL_THEOREMS):
    return SweepGrid(
        alphas=(0.5, 1.0),
        svals=(0.5, 1.0),
        xfracs=(0.25, 0.75),
        qvals=(2.0,),
        families=(
            ("u2", parse_function("1*(u-0)^2 on [0,1]")),
            ("linear", parse_function("1*(u-0)^0 + 1*(u-0)^1 on [0,1]")),
        ),
        theorems=theorems,
    )


class TestGrid:
    def test_theorems_stored_in_canonical_order(self):
        g = _tiny_grid(theorems=(TheoremId.T23, TheoremId.HH11, TheoremId.T21))
        assert g.theorems == (TheoremId.T21, TheoremId.T23, TheoremId.HH11)

    @pytest.mark.parametrize(
        "field,value",
        [
            ("alphas", ()),
            ("alphas", (0.0,)),
            ("alphas", (0.5, 9.99e-5)),
            ("alphas", (1e-300,)),
            ("alphas", (math.nan,)),
            ("svals", (1.5,)),
            ("xfracs", (-0.1,)),
            ("qvals", (1.0,)),
            ("theorems", ()),
        ],
    )
    def test_field_validation(self, field, value):
        kwargs = dict(
            alphas=(1.0,),
            svals=(1.0,),
            xfracs=(0.5,),
            qvals=(2.0,),
            families=(("u2", parse_function("1*(u-0)^2 on [0,1]")),),
            theorems=(TheoremId.T21,),
        )
        kwargs[field] = value
        with pytest.raises(DomainError):
            SweepGrid(**kwargs)

    def test_alphas_share_the_instances_floor(self):
        with pytest.raises(DomainError, match=r"^alphas must be at least 0\.0001, got 1e-300$"):
            replace(_tiny_grid(), alphas=(0.5, 1e-300))

    @pytest.mark.parametrize("q", [math.inf, 1e17])
    @pytest.mark.parametrize("theorems", [ALL_THEOREMS, (TheoremId.HH11,)])
    def test_qvals_share_the_instances_rule(self, u2, q, theorems):
        # q = inf's conjugate was NaN, and a grid whose bounds read c3 ended
        # in "log_gamma requires x > 0, got nan"; q = 1e17's rounds to p = 1
        with pytest.raises(DomainError) as inst:
            ProblemInstance(u2, 0.0, 1.0, 0.5, 1.0, 1.0, q=q)
        with pytest.raises(DomainError) as grid:
            replace(_tiny_grid(theorems), qvals=(2.0, q))
        assert str(grid.value) == str(inst.value)
        assert str(grid.value) in ("q must be finite, got inf", "p must satisfy p > 1, got 1.0")

    def test_duplicate_family_ids_rejected(self):
        f = parse_function("1*(u-0)^2 on [0,1]")
        with pytest.raises(DomainError):
            SweepGrid((1.0,), (1.0,), (0.5,), (2.0,), (("a", f), ("a", f)), (TheoremId.T21,))


class TestRunSweep:
    def test_cardinality(self):
        records = run_sweep(_tiny_grid(), samples=512)
        # 2 families x 2 svals sandwich rows, plus 2x2x2x2x1 grid points x 4 bounds
        assert len(records) == 4 + 64

    def test_sandwich_rows_leave_bound_columns_empty(self):
        records = [r for r in run_sweep(_tiny_grid(), samples=512) if r.theorem_id == "HH11"]
        assert len(records) == 4
        for r in records:
            assert r.alpha is None and r.x is None and r.p is None and r.q is None
            assert r.margin <= r.rhs - r.lhs + 1e-15

    def test_first_power_rhs_ignores_q(self):
        g = SweepGrid(
            alphas=(0.5,),
            svals=(1.0,),
            xfracs=(0.25,),
            qvals=(1.5, 3.0),
            families=(("u2", parse_function("1*(u-0)^2 on [0,1]")),),
            theorems=(TheoremId.T21,),
        )
        rows = run_sweep(g, samples=512)
        assert len(rows) == 2
        assert rows[0].rhs == rows[1].rhs
        assert rows[0].lhs == rows[1].lhs

    def test_deterministic(self):
        g = _tiny_grid()
        assert run_sweep(g, samples=512) == run_sweep(g, samples=512)

    def test_seed_changes_certification_sampling_only(self):
        g = _tiny_grid()
        a = run_sweep(g, seed=0, samples=512)
        b = run_sweep(g, seed=99, samples=512)
        assert [r.lhs for r in a] == [r.lhs for r in b]
        assert [r.rhs for r in a] == [r.rhs for r in b]

    def test_quadrature_failure_becomes_error_rows(self):
        # order 0.01 integrates f(x - d v^100) in v itself, which turns
        # steeply near v = 1, so a one-split budget at 1e-15 relative cannot
        # converge; the sandwich integrand stays polynomial and still succeeds
        g = SweepGrid(
            alphas=(0.01,),
            svals=(1.0,),
            xfracs=(0.5,),
            qvals=(2.0,),
            families=(("u2", parse_function("1*(u-0)^2 on [0,1]")),),
            theorems=ALL_THEOREMS,
        )
        cfg = QuadratureConfig(rel_tol=1e-15, abs_tol=1e-300, max_subdivisions=1)
        records = run_sweep(g, cfg, samples=512)
        bound_rows = [r for r in records if r.theorem_id != "HH11"]
        assert len(bound_rows) == 4
        for r in bound_rows:
            assert math.isnan(r.lhs) and math.isnan(r.margin)
            assert not r.certified
            assert not is_violation(r)
        summary = summarize(records)
        assert summary.errors == 4
        assert summary.violations == 0

    def test_sandwich_integrates_once_per_family(self, monkeypatch):
        # int_a^b f does not depend on s: one integral per family, not per s
        calls = []
        real = sweep_module.integrate_adaptive

        def counted(fn, lo, hi, cfg):
            calls.append((lo, hi))
            return real(fn, lo, hi, cfg)

        monkeypatch.setattr(sweep_module, "integrate_adaptive", counted)
        records = run_sweep(_tiny_grid(), samples=256)
        assert calls == [(0.0, 1.0)] * 2
        assert sum(r.theorem_id == "HH11" for r in records) == 2 * 2

    def test_sandwich_only_grid_needs_no_derivative(self):
        # f' = u^(-1/2)/2 is unbounded at 0, but the sandwich never reads f'
        g = SweepGrid(
            alphas=(1.0,),
            svals=(0.5,),
            xfracs=(0.5,),
            qvals=(2.0,),
            families=(("root", parse_function("1*(u-0)^0.5 on [0,1]")),),
            theorems=(TheoremId.HH11,),
        )
        rows = run_sweep(g, samples=256)
        assert [r.theorem_id for r in rows] == ["HH11"]
        assert math.isfinite(rows[0].lhs)


PUBLIC_RHS = {
    TheoremId.T21: rhs_t21,
    TheoremId.T22: rhs_t22,
    TheoremId.T23: rhs_t23,
    TheoremId.T24: rhs_t24,
}


def _rhs_grid():
    # every bound, two q values, x at both endpoints, and a family whose
    # domain starts at 0.01 like the shipped fractional-power families
    return SweepGrid(
        alphas=(0.5, 2.0),
        svals=(0.5, 1.0),
        xfracs=(0.0, 0.5, 1.0),
        qvals=(1.5, 3.0),
        families=(
            ("u2", parse_function("1*(u-0)^2 on [0,1]")),
            ("u15", parse_function("0.6666666666666666*(u-0)^1.5 on [0.01,1]")),
        ),
        theorems=ALL_THEOREMS,
    )


# a family whose last x point, 0.3 + 1.0 * (0.9 - 0.3), rounds past hi
_PAST_HI = ("past", parse_function("1*(u-0)^2 on [0.3,0.9]"))


class TestGridChecksUpFront:
    """A grid refuses, when it is built, every value a sweep would refuse
    with a DomainError, through the instance's checks and with its field's
    name; a sweep then builds no ProblemInstance."""

    @pytest.mark.parametrize(
        "field, value, want",
        [
            ("alphas", math.inf, "alphas must be finite, got inf"),
            ("alphas", math.nan, "alphas must be at least 0.0001, got nan"),
            ("alphas", -1.0, "alphas must be at least 0.0001, got -1.0"),
            ("svals", 0.0, "svals must lie in (0, 1], got 0.0"),
            ("svals", math.nan, "svals must lie in (0, 1], got nan"),
            ("svals", 1.5, "svals must lie in (0, 1], got 1.5"),
            ("xfracs", -0.1, "xfracs must lie in [0, 1], got -0.1"),
            ("qvals", 1.0, "qvals must exceed 1, got 1.0"),
            ("qvals", math.nan, "qvals must exceed 1, got nan"),
        ],
    )
    def test_each_field_is_refused_by_name(self, field, value, want):
        # after a valid value, so that the message is the hostile one's
        valid = getattr(_tiny_grid(), field)[0]
        with pytest.raises(DomainError) as got:
            replace(_tiny_grid(), **{field: (valid, value)})
        assert str(got.value) == want

    @pytest.mark.parametrize("field, name", [("alphas", "alpha"), ("svals", "s")])
    @pytest.mark.parametrize("value", [math.inf, math.nan, 0.0, -1.0, 1e-300, 1.5])
    def test_a_field_shares_the_instances_message(self, u2, field, name, value):
        kwargs = {"alpha": 1.0, "s": 1.0, name: value}
        try:
            ProblemInstance(u2, 0.0, 1.0, 0.5, **kwargs)
        except DomainError as exc:
            want = str(exc).replace(name, field, 1)
        else:
            replace(_tiny_grid(), **{field: (value,)})
            return
        with pytest.raises(DomainError) as got:
            replace(_tiny_grid(), **{field: (value,)})
        assert str(got.value) == want

    def test_an_x_point_past_hi_is_refused(self):
        with pytest.raises(DomainError) as got:
            replace(_tiny_grid(), xfracs=(0.5, 1.0), families=(_PAST_HI,))
        assert str(got.value) == "x of family past must lie in [0.3, 0.9], got 0.9000000000000001"
        # the instance refuses that point too
        _, f = _PAST_HI
        with pytest.raises(DomainError, match="must lie in"):
            ProblemInstance(f, f.lo, f.hi, f.lo + 1.0 * (f.hi - f.lo), 1.0, 1.0)

    def test_a_span_past_the_float_range_is_refused(self):
        wide = ("wide", parse_function("1*(u--1e308)^1 on [-1e308,1e308]"))
        with pytest.raises(DomainError, match=r"^requires a < b, b - a finite, got a=-1e\+308"):
            replace(_tiny_grid(), families=(wide,))

    def test_several_faults_end_in_the_grids_first(self):
        # alphas, then svals, xfracs, qvals, family ids, and each family's x
        # points: the first field's fault, before any row is made
        with pytest.raises(DomainError, match="^alphas must be finite"):
            replace(
                _tiny_grid(), alphas=(0.5, math.inf), svals=(0.0,), qvals=(math.inf,),
                xfracs=(1.0,), families=(_PAST_HI,),
            )

    @pytest.mark.parametrize("text", ["shipped", "deep101"])
    def test_a_sweep_builds_no_instance(self, text, monkeypatch):
        text = standard_config_text() if text == "shipped" else worker.deep_config_text(101)
        grid, _ = apply_derivative_shrink(grid_from_config_text(text))
        built = []
        post_init = ProblemInstance.__post_init__

        def counted(inst):
            built.append(inst)
            post_init(inst)

        monkeypatch.setattr(ProblemInstance, "__post_init__", counted)
        rows = sum(1 for _ in sweep_module._sweep_rows(grid, samples=64))
        assert rows > 0 and built == []


class TestLhsBatchWork:
    def test_one_deep_family_batch_pins_its_integrand_calls_and_nodes(self, monkeypatch):
        # the first family of perfbench's deep_quadrature grid for seed 101:
        # 20 alphas x 11 x, both ends of the lhs, 440 rows in one batch
        grid = grid_from_config_text(worker.deep_config_text(101))
        _, f = grid.families[0]
        xs = [f.lo + frac * (f.hi - f.lo) for frac in grid.xfracs]
        shapes, evaluated = [], []
        real_integrate, real_evaluate = rlint.integrate_adaptive, FunctionModel.evaluate

        def integrate(fn, lo, hi, cfg, abs_tols):
            def counted(v):
                shapes.append(v.shape)
                return fn(v)

            return real_integrate(counted, lo, hi, cfg, abs_tols)

        def evaluate(self, u):
            evaluated.append(np.size(u))
            return real_evaluate(self, u)

        monkeypatch.setattr(rlint, "integrate_adaptive", integrate)
        monkeypatch.setattr(FunctionModel, "evaluate", evaluate)
        got = _identity_lhs_rows(f, f.lo, f.hi, grid.alphas, xs, DEFAULT_CONFIG)
        assert all(len(got[alpha]) == len(xs) for alpha in grid.alphas)
        assert len(shapes) == 6 and shapes[0] == (440, 3 * 15)
        assert sum(rows * nodes for rows, nodes in shapes) == 29_100
        # f at a and b, which each end's rows subtract: the integrand's nodes, clipped
        # into f's domain, skip evaluate and its domain scan
        assert evaluated == [2]


class TestDerivedSeeds:
    # the key of upow_s025's |f'| certificate at s = 0.5, one of the two the
    # shipped grid can only sample; a run seed of 0 would not show the
    # multiplier of the run seed
    KEY = ("upow_s025", 0.5, "abs_deriv", "convex", None)

    def test_a_documented_key_derives_a_pinned_seed(self):
        assert _derive_seed(7, *self.KEY) == 1354760218
        assert _derive_seed(0, *self.KEY) == 4248546371
        # only the low 32 bits of the run seed count
        assert _derive_seed(7 + 2**32, *self.KEY) == 1354760218

    def test_a_sampled_sweep_certificate_draws_at_its_derived_seed(self, monkeypatch):
        reports = []
        real = sweep_module._certify

        def certify(*args):
            reports.append(real(*args))
            return reports[-1]

        monkeypatch.setattr(sweep_module, "_certify", certify)
        grid = grid_from_config_text(
            "alphas = 1\nsvals = 0.5\nxfracs = 0.5\nqvals = 1.5\ntheorems = t21, t22\n"
            "family.upow_s025 = 0.8*(u-0)^1.25 on [0.01,1]\n"
        )
        records = run_sweep(grid, seed=7, samples=256)
        assert [r.certificate for r in records] == ["sampled", "sampled"]
        # the T21 key above, then T22's |f'|^q key at q = 1.5
        assert [(r.kind, r.seed) for r in reports] == [
            ("sampled", 1354760218),
            ("sampled", 1311207263),
        ]


class TestRightSidesFromValues:
    """The sweep's hoisted right sides against the public per-instance path."""

    def test_bound_rows_equal_public_right_sides(self):
        grid = _rhs_grid()
        models = dict(grid.families)
        rows = [r for r in run_sweep(grid, samples=256) if r.theorem_id != "HH11"]
        assert len(rows) == 2 * 2 * 2 * 3 * 2 * 4
        for r in rows:
            f = models[r.family_id]
            inst = ProblemInstance(f, f.lo, f.hi, r.x, r.alpha, r.s, q=r.q)
            rhs = PUBLIC_RHS[TheoremId(r.theorem_id)](inst)
            assert r.p == inst.p
            assert r.rhs == rhs
            assert r.margin == rhs - r.lhs
            assert r.ratio == r.lhs / rhs

    def test_quadrature_failure_gives_one_error_row_per_theorem_and_q(self):
        grid = _rhs_grid()
        cfg = QuadratureConfig(rel_tol=1e-15, abs_tol=1e-300, max_subdivisions=1)
        rows = [r for r in run_sweep(grid, cfg, samples=256) if r.theorem_id != "HH11"]
        assert len(rows) == 2 * 2 * 2 * 3 * 2 * 4
        failed = {(r.family_id, r.s, r.alpha, r.x) for r in rows if math.isnan(r.lhs)}
        assert failed
        expected = sorted(
            (t.value, q, _check_q(q)) for t in PUBLIC_RHS for q in grid.qvals
        )
        for point in failed:
            at = [r for r in rows if (r.family_id, r.s, r.alpha, r.x) == point]
            assert sorted((r.theorem_id, r.q, r.p) for r in at) == expected
            for r in at:
                assert math.isnan(r.rhs) and math.isnan(r.margin) and math.isnan(r.ratio)
                assert not r.certified

    def test_work_is_per_family_and_point_not_per_record(self, monkeypatch):
        # pinned counts: a change that brings per-record work back must say so
        derivatives, deriv_sizes, instances = [], [], []
        derivative, evaluate = FunctionModel.derivative, FunctionModel.evaluate
        post_init = ProblemInstance.__post_init__

        def counting_derivative(self):
            derivatives.append(derivative(self))
            return derivatives[-1]

        def counting_evaluate(self, u):
            if any(self is fp for fp in derivatives):
                deriv_sizes.append(np.size(u))
            return evaluate(self, u)

        def counting_post_init(self):
            instances.append(self)
            post_init(self)

        certify_keys, tables = [], []
        certify = sweep_module._certify

        def counting_certify(table, target, q, s, mode, samples, seed):
            certify_keys.append((table.model, target, q, s, mode))
            tables.append(table)  # kept alive, so each id stays its own
            return certify(table, target, q, s, mode, samples, seed)

        monkeypatch.setattr(FunctionModel, "derivative", counting_derivative)
        monkeypatch.setattr(FunctionModel, "evaluate", counting_evaluate)
        monkeypatch.setattr(ProblemInstance, "__post_init__", counting_post_init)
        monkeypatch.setattr(sweep_module, "_certify", counting_certify)
        grid = _rhs_grid()
        run_sweep(grid, samples=256)
        families, svals, xs, qs = 2, 2, 3, 2
        assert len(derivatives) == families
        # one evaluation of f' per family: a, b and the 12 boundary triples'
        # mix points, then x, (x+a)/2 and (x+b)/2 of each x; only the sampler
        # (12 + 256 triples, three point arrays) evaluates f' again
        sampled = 3 * (12 + 256)
        assert [n for n in deriv_sizes if n != sampled] == [14 + 3 * xs] * families
        # one table of f and one of f' per family serve every certificate
        assert len(set(map(id, tables))) == 2 * families
        # the grid checked every value when it was built
        assert instances == []
        # one certify_model call per distinct certificate key: per (family,
        # s), the sandwich's and each (target, mode), with q where it is read
        pairs = {(spec.target, spec.mode) for spec in FRACTIONAL_BOUNDS.values()}
        per_s = 1 + sum(qs if target == "abs_deriv_pow" else 1 for target, _ in pairs)
        assert len(set(certify_keys)) == len(certify_keys) == families * svals * per_s


# one split at 1e-15 relative: an integrand with a kink or a steep turn
# fails, as u^0.5's sandwich integral and the lhs of order 0.01 (nodes
# x - d v^100) do
_FAILING_CFG = QuadratureConfig(rel_tol=1e-15, abs_tol=1e-300, max_subdivisions=1)


def _abs_deriv(fp, a, b, x):
    """|f'| at x, a, b, (x+a)/2 and (x+b)/2, each point evaluated on its own."""
    points = (x, a, b, 0.5 * (x + a), 0.5 * (x + b))
    return DerivValues(*(abs(fp.evaluate(u)) for u in points))


def _reference_sweep(grid, cfg=DEFAULT_CONFIG, seed=0, samples=CERT_SAMPLES):
    """run_sweep as one loop body per record: the oracle of the hoisted loop.

    Every bound record fetches its lhs, runs its own domain check, looks up
    each certificate and computes its right side's inputs afresh, in
    family -> s -> alpha -> x -> q -> theorem order.
    """
    nan = math.nan
    records, lhs_cache, cert_cache = [], {}, {}
    bound_thms = [t for t in grid.theorems if t is not TheoremId.HH11]
    holder = [FRACTIONAL_BOUNDS[t].holder for t in bound_thms]

    def cert(fid, f, fp, s, target, mode, q):
        if target != "abs_deriv_pow":
            q = None
        key = (fid, s, target, mode, q)
        if key not in cert_cache:
            cert_cache[key] = certify_model(
                f if target == "f" else fp, target, q, f.lo, f.hi, s, mode, samples,
                _derive_seed(seed, *key),
            )
        return cert_cache[key]

    def lhs(fid, f, alpha, xs):
        if (fid, alpha) not in lhs_cache:
            for x in xs:
                ProblemInstance(f, f.lo, f.hi, x, alpha, 1.0)
            # a batch of this alpha alone: an overflow fails the whole alpha
            row = _identity_lhs_rows(f, f.lo, f.hi, [alpha], xs, cfg)[alpha]
            if isinstance(row, OverflowError):
                raise row
            lhs_cache[fid, alpha] = [
                got if isinstance(got, QuadratureToleranceError) else (abs(got[0]), got[1])
                for got in row
            ]
        return lhs_cache[fid, alpha]

    for fid, f in grid.families:
        a, b = f.lo, f.hi
        xs = [a + frac * (b - a) for frac in grid.xfracs]
        fp = f.derivative() if bound_thms else None
        for s in grid.svals:
            if TheoremId.HH11 in grid.theorems:
                c = cert(fid, f, fp, s, "f", "convex", None)
                try:
                    (left, mid, right), err = hh_sandwich_with_error(f, a, b, s, cfg)
                    records.append(SweepRecord(
                        "HH11", fid, None, s, None, None, None, lhs=mid, rhs=right,
                        margin=min(right - mid, mid - left), ratio=_ratio(mid, right),
                        certified=c.verdict, quad_error_est=err, certificate=c.kind,
                    ))
                except QuadratureToleranceError as exc:
                    records.append(SweepRecord(
                        "HH11", fid, None, s, None, None, None, nan, nan, nan, nan, False,
                        exc.error_estimate,
                    ))
            for alpha in grid.alphas if bound_thms else ():
                for k, x in enumerate(xs):
                    for q in grid.qvals:
                        p = _check_q(q)
                        got = lhs(fid, f, alpha, xs)[k]
                        if isinstance(got, QuadratureToleranceError):
                            records.extend(
                                SweepRecord(
                                    t.value, fid, alpha, s, x, p, q, nan, nan, nan, nan,
                                    False, got.error_estimate,
                                )
                                for t in bound_thms
                            )
                            continue
                        lhs_val, qerr = got
                        ProblemInstance(f, a, b, x, alpha, s, q=q)
                        c1, c2 = c1_c2(alpha, s) if not all(holder) else (nan, nan)
                        k3 = c3_root(alpha, p) if any(holder) else nan
                        for t in bound_thms:
                            spec = FRACTIONAL_BOUNDS[t]
                            c = cert(fid, f, fp, s, spec.target, spec.mode, q)
                            rhs = spec.formula(
                                _abs_deriv(fp, a, b, x),
                                *bound_weights(a, b, x, alpha), alpha, s, q, c1, c2, k3,
                            )
                            records.append(SweepRecord(
                                t.value, fid, alpha, s, x, p, q, lhs=lhs_val, rhs=rhs,
                                margin=rhs - lhs_val, ratio=_ratio(lhs_val, rhs),
                                certified=c.verdict, quad_error_est=qerr,
                                certificate=c.kind,
                            ))
    return records


def _bits(v):
    return struct.pack("<d", v) if isinstance(v, float) else v


def _assert_same_records(got, want):
    """Field by field, certificate included, floats to the bit."""
    assert len(got) == len(want)
    for g, w in zip(got, want):
        for name in SweepRecord._fields:
            a, b = getattr(g, name), getattr(w, name)
            assert type(a) is type(b) and _bits(a) == _bits(b), (name, g, w)


_ORACLE_GRIDS = {
    "every-id": (_rhs_grid(), DEFAULT_CONFIG),
    "failing-lhs": (_rhs_grid(), _FAILING_CFG),
    "t21-only": (replace(_rhs_grid(), theorems=(TheoremId.T21,)), DEFAULT_CONFIG),
    "holder-only": (replace(_rhs_grid(), theorems=(TheoremId.T22, TheoremId.T24)), DEFAULT_CONFIG),
    "sandwich-only": (replace(_rhs_grid(), theorems=(TheoremId.HH11,)), DEFAULT_CONFIG),
    # the kink of u^0.5 at 0 fails the one-split sandwich integral at every s
    "failing-sandwich": (
        replace(
            _rhs_grid(),
            families=(("root", parse_function("1*(u-0)^0.5 on [0,1]")), *_rhs_grid().families),
            theorems=(TheoremId.HH11,),
        ),
        _FAILING_CFG,
    ),
    "tiny": (_tiny_grid(), DEFAULT_CONFIG),
}


class TestRecordLoopAgainstOracle:
    """run_sweep's hoisted loop against the per-record loop it replaced."""

    @pytest.mark.parametrize("name", list(_ORACLE_GRIDS))
    def test_records_equal_the_oracle_to_the_bit(self, name):
        grid, cfg = _ORACLE_GRIDS[name]
        got = run_sweep(grid, cfg, seed=5, samples=256)
        _assert_same_records(got, _reference_sweep(grid, cfg, seed=5, samples=256))
        if name == "failing-lhs":
            failed = sum(math.isnan(r.lhs) for r in got)
            assert 0 < failed < len(got)
        if name == "failing-sandwich":
            # one error row per s, each with the failed integral's estimate
            failed = [r for r in got if math.isnan(r.lhs)]
            assert 0 < len(failed) < len(got)
            for fid in {r.family_id for r in failed} | {"root"}:
                rows = [r for r in failed if r.family_id == fid]
                assert [r.s for r in rows] == list(grid.svals)
                assert rows[0].quad_error_est == rows[1].quad_error_est > 0.0

    @pytest.mark.parametrize(
        "alphas, qvals, grid_error",
        [
            ((0.5, 200.0), (2.0, 3.0), None),
            ((200.0, 0.5), (2.0, 3.0), None),
            ((0.5, 200.0), (2.0,), None),
            # the grid refuses an infinite alpha when it is built
            ((0.5, math.inf), (3.0,), "alphas must be finite, got inf"),
            ((math.inf, 0.5), (3.0,), "alphas must be finite, got inf"),
            ((0.5, 120.0, 2.0), (2.0,), None),
        ],
    )
    def test_a_failing_alpha_raises_the_oracles_first_error(self, alphas, qvals, grid_error):
        # one lhs batch per family, yet each alpha's overflow is raised where
        # the per-record loop raises it
        fields = dict(
            alphas=alphas,
            qvals=qvals,
            families=(*_rhs_grid().families, ("wide", parse_function("1*(u-0)^2 on [0,1000]"))),
        )
        if grid_error is not None:
            with pytest.raises(DomainError) as refused:
                replace(_rhs_grid(), **fields)
            assert str(refused.value) == grid_error
            return
        grid = replace(_rhs_grid(), **fields)
        with pytest.raises(Exception) as want:
            _reference_sweep(grid, samples=64)
        with pytest.raises(type(want.value)) as got:
            run_sweep(grid, samples=64)
        assert str(got.value) == str(want.value)

    def test_every_id_grid_has_certificates_that_differ_by_q(self):
        # |f'|^q of u15 is u^(q/2): a rule proves it convex at q = 3, and
        # at q = 1.5, where it is concave, the boundary triples refute it
        grid, _ = _ORACLE_GRIDS["every-id"]
        got = {
            r.q: (r.certificate, r.certified)
            for r in run_sweep(grid, samples=256)
            if (r.family_id, r.s, r.theorem_id) == ("u15", 1.0, "T22")
        }
        assert got == {1.5: ("refuted", False), 3.0: ("proved", True)}

    def test_points_whose_lhs_failed_certify_no_bound(self, monkeypatch):
        def refuse(table, target, *args):
            raise AssertionError(f"a certificate was decided for {target}")

        monkeypatch.setattr(sweep_module, "_certify", refuse)
        # every lhs of order 0.01 fails under _FAILING_CFG
        grid = replace(
            _rhs_grid(), alphas=(0.01,), xfracs=(0.25, 0.5, 0.75),
            families=_rhs_grid().families[:1], theorems=tuple(FRACTIONAL_BOUNDS),
        )
        records = run_sweep(grid, _FAILING_CFG, samples=64)
        assert len(records) == 2 * 3 * 2 * 4
        assert all(math.isnan(r.lhs) and not r.certified for r in records)

    # the certifier refuses a g that is not finite with no warning first
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_a_certificate_that_raises_fails_where_the_loop_reaches_its_key(self):
        # |f'|^4 of 1e100*u^2 overflows at b and |f'|^2 does not: the rows
        # before the first q = 4 point's T22 certificate come out, then its error
        big = parse_function("1e100*(u-0)^2 on [0,1]")
        grid = SweepGrid(
            alphas=(1.0,), svals=(0.5,), xfracs=(0.5,), qvals=(2.0, 4.0),
            families=(("u2", parse_function("1*(u-0)^2 on [0,1]")), ("big", big)),
            theorems=(TheoremId.T21, TheoremId.T22),
        )
        rows = []
        with pytest.raises(OverflowError, match="not finite at an endpoint"):
            for row in sweep_module._sweep_rows(grid, samples=64):
                rows.append(row)
        assert [(r[0], r[1], r[6]) for r in rows] == [
            ("T21", "u2", 2.0), ("T22", "u2", 2.0), ("T21", "u2", 4.0), ("T22", "u2", 4.0),
            ("T21", "big", 2.0), ("T22", "big", 2.0), ("T21", "big", 4.0),
        ]
        with pytest.raises(OverflowError, match="not finite at an endpoint"):
            _reference_sweep(grid, samples=64)

    @pytest.mark.parametrize(
        "alpha, families, blocks",
        [
            # the lhs forms no Gamma(201): every u2 row is finite, alpha
            # 200's too; (x - a)^200 overflows the wide family's endpoint
            # scales, after its alpha 0.5 rows
            (200.0, ("u2", "wide"), [
                ("u2", 0.5, 0.5), ("u2", 0.5, 200.0), ("u2", 1.0, 0.5), ("u2", 1.0, 200.0),
                ("wide", 0.5, 0.5),
            ]),
            # (b - x)^120 overflows only the wide family's endpoint scales (and
            # its weights): every u2 row, then the wide family's alpha 0.5 rows
            (120.0, ("u2", "wide"), [
                ("u2", 0.5, 0.5), ("u2", 0.5, 120.0), ("u2", 1.0, 0.5), ("u2", 1.0, 120.0),
                ("wide", 0.5, 0.5),
            ]),
        ],
        ids=["finite-on-u2", "boundary-term"],
    )
    def test_an_alpha_that_overflows_fails_where_the_loop_reaches_it(
        self, alpha, families, blocks
    ):
        # the family's one lhs batch holds every alpha, yet only the alpha
        # that overflows fails, where the loop reaches it
        specs = {"u2": "1*(u-0)^2 on [0,1]", "wide": "1*(u-0)^2 on [0,1000]"}
        grid = SweepGrid(
            alphas=(0.5, alpha), svals=(0.5, 1.0), xfracs=(0.25, 1.0), qvals=(2.0,),
            families=tuple((fid, parse_function(specs[fid])) for fid in families),
            theorems=(TheoremId.T21, TheoremId.T22),
        )
        rows = []
        with pytest.raises(OverflowError):
            for row in sweep_module._sweep_rows(grid, samples=64):
                rows.append(row)
        # each (family, s, alpha) block: two x points, two bounds
        assert [(r[1], r[3], r[2]) for r in rows] == [b for b in blocks for _ in range(4)]
        assert not any(math.isnan(r[7]) for r in rows)

    @pytest.mark.parametrize("cfg", [DEFAULT_CONFIG, _FAILING_CFG], ids=["ok", "failing-lhs"])
    def test_checks_certificates_and_formulas_keep_the_oracle_order(self, cfg, monkeypatch):
        # the oracle checks every point; run_sweep checks none, since its
        # grid checked every value when it was built
        log = []
        post_init = ProblemInstance.__post_init__

        def logged_post_init(inst):
            if inst.q is not None:  # a right side's check, not an lhs integral's
                log.append(("check", inst.f, inst.s, inst.q))
            post_init(inst)

        certify, certify_table = certify_model, sweep_module._certify

        def logged_certify(g, target, q, a, b, s, mode, samples, seed):
            log.append(("certify", g, target, q, s, mode))
            return certify(g, target, q, a, b, s, mode, samples, seed)

        def logged_certify_table(table, target, q, s, mode, samples, seed):
            log.append(("certify", table.model, target, q, s, mode))
            return certify_table(table, target, q, s, mode, samples, seed)

        def logged_formula(thm, formula):
            def run(*args):
                log.append(("formula", thm, args[5], args[6]))
                return formula(*args)
            return run

        for thm, spec in FRACTIONAL_BOUNDS.items():
            monkeypatch.setitem(
                FRACTIONAL_BOUNDS, thm, spec._replace(formula=logged_formula(thm, spec.formula))
            )
        monkeypatch.setattr(ProblemInstance, "__post_init__", logged_post_init)
        monkeypatch.setattr(sweep_module, "_certify", logged_certify_table)
        monkeypatch.setitem(globals(), "certify_model", logged_certify)
        grid = _rhs_grid()
        run_sweep(grid, cfg, samples=64)
        got = log[:]
        del log[:]
        _reference_sweep(grid, cfg, samples=64)
        seen, want = set(), []
        for event in log:
            if event[0] == "check" and event in seen:
                continue
            seen.add(event)
            want.append(event)
        assert got == [e for e in want if e[0] != "check"]
        assert sum(e[0] == "check" for e in want) == 2 * 2 * 2
        assert sum(e[0] == "check" for e in got) == 0


class TestRowPathAgainstRecordPath:
    """The CLI's sweep keeps records as plain rows from the sweep to each
    output; every output must be the one run_sweep's records give."""

    @pytest.mark.parametrize("name", list(_ORACLE_GRIDS))
    def test_rows_rebuild_run_sweeps_records(self, name):
        grid, cfg = _ORACLE_GRIDS[name]
        rows = list(sweep_module._sweep_rows(grid, cfg, seed=5, samples=256))
        assert {type(row) for row in rows} == {tuple}
        records = run_sweep(grid, cfg, seed=5, samples=256)
        _assert_same_records(list(map(SweepRecord._make, rows)), records)

        summary = summarize(records)
        from_rows = summarize(rows)
        _assert_same_summary(summary, _reference_summarize(records))
        assert list(from_rows.by_theorem) == list(summary.by_theorem)
        for tid, ts in summary.by_theorem.items():
            got = from_rows.by_theorem[tid]
            if ts.argmax is None:
                assert got.argmax is None
                continue
            # the caller's own record, and a record equal to it from the rows
            assert any(ts.argmax is r for r in records)
            assert type(got.argmax) is SweepRecord
            _assert_same_records([got.argmax], [ts.argmax])
            assert repr(got.max_ratio) == repr(ts.max_ratio)

    @pytest.mark.parametrize("name", list(_ORACLE_GRIDS))
    def test_cli_outputs_equal_the_record_functions(self, name, tmp_path, monkeypatch, capsys):
        from fracineq import cli

        grid, cfg = _ORACLE_GRIDS[name]
        monkeypatch.setattr(cli, "grid_from_config_text", lambda text: grid)
        monkeypatch.setattr(cli, "DEFAULT_CONFIG", cfg)
        # the types of the items each output function is handed
        handed = {}

        def spy(fn):
            def run(rows, *args):
                handed[fn.__name__] = {type(row) for row in rows}
                return fn(rows, *args)
            return run

        for fn in (write_csv, summarize, render_svg):
            monkeypatch.setattr(cli, fn.__name__, spy(fn))
        out, svg = tmp_path / "cli.csv", tmp_path / "cli.svg"
        code = cli.main(["sweep", "--out", str(out), "--summary", "--svg", str(svg)])
        printed = capsys.readouterr().out.splitlines()

        records = run_sweep(apply_derivative_shrink(grid)[0], cfg, seed=0)
        summary = summarize(records)
        write_csv(records, tmp_path / "lib.csv")
        assert out.read_bytes() == (tmp_path / "lib.csv").read_bytes()
        assert svg.read_text() == render_svg(records)
        summary_lines = [ln for ln in printed if not ln.startswith(("wrote ", "note: "))]
        assert summary_lines == format_summary(summary).splitlines()
        assert code == (1 if summary.violations else 0)
        # the CLI builds no record on the way to its outputs
        assert handed == dict.fromkeys(("write_csv", "summarize", "render_svg"), {tuple})


class TestViolationRule:
    def _rec(self, margin, certified=True, rhs=1.0):
        return SweepRecord(
            "T21", "u2", 1.0, 1.0, 0.5, 2.0, 2.0, rhs - margin, rhs, margin,
            (rhs - margin) / rhs, certified, 0.0,
        )

    def test_threshold_is_relative(self):
        assert is_violation(self._rec(margin=-3e-9))
        assert not is_violation(self._rec(margin=-1.5e-9))  # > -1e-9 * (1 + 1)

    def test_uncertified_records_never_count(self):
        assert not is_violation(self._rec(margin=-1.0, certified=False))

    def test_threshold_reads_the_size_of_rhs(self):
        # the band is 1e-9 * (1 + |rhs|) = 3.5e-9 at rhs = -2.5, not -1.5e-9
        assert not is_violation(self._rec(margin=0.0, rhs=-2.5))
        assert not is_violation(self._rec(margin=-3e-9, rhs=-2.5))
        assert is_violation(self._rec(margin=-4e-9, rhs=-2.5))

    @pytest.mark.parametrize("margin", [math.nan, math.inf, -math.inf])
    def test_a_non_finite_margin_is_never_a_violation(self, margin):
        rec = self._rec(margin=margin)
        assert not is_violation(rec)
        assert summarize([rec]).violations == 0


class TestRecord:
    ARGS = ("T21", "f", 1.0, 1.0, 0.5, 2.0, 2.0, 0.5, 1.0, 0.5, 0.5, True, 1e-12)

    def test_every_field_is_set_in_order(self):
        rec = SweepRecord(*self.ARGS, certificate="proved")
        assert SweepRecord._fields == (*CSV_COLUMNS, "certificate")
        assert tuple(rec) == (*self.ARGS, "proved")
        assert list(rec._asdict().values()) == [*self.ARGS, "proved"]
        assert SweepRecord(*self.ARGS).certificate is None

    def test_frozen(self):
        rec = SweepRecord(*self.ARGS)
        with pytest.raises(AttributeError):
            rec.lhs = 0.0
        with pytest.raises(AttributeError):
            rec.certificate = "proved"
        with pytest.raises(AttributeError):
            rec.note = "no instance dict"
        assert rec.lhs == 0.5

    def test_equality_and_hash_ignore_the_certificate(self):
        proved = SweepRecord(*self.ARGS, certificate="proved")
        unknown = SweepRecord(*self.ARGS)
        assert proved == unknown and hash(proved) == hash(unknown)
        assert not proved != unknown
        assert proved != SweepRecord(*self.ARGS[:-1], 2e-12, certificate="proved")
        assert len({proved, unknown}) == 1

    def test_a_record_never_equals_a_plain_tuple(self):
        rec = SweepRecord(*self.ARGS)
        for row in (tuple(rec), self.ARGS):
            assert rec != row and row != rec
            assert not (rec == row or row == rec)

    def test_replace_keeps_the_other_fields(self):
        rec = SweepRecord(*self.ARGS, certificate="sampled")
        moved = rec._replace(lhs=0.25, margin=0.75)
        assert (moved.lhs, moved.margin, moved.certificate) == (0.25, 0.75, "sampled")
        assert moved._replace(lhs=0.5, margin=0.5) == rec
        assert repr(rec._replace()) == repr(rec)


class TestSummary:
    def test_empty_input_rejected(self):
        with pytest.raises(DomainError):
            summarize([])

    def test_counts_and_argmax(self):
        records = run_sweep(_tiny_grid(), samples=512)
        summary = summarize(records)
        assert summary.total == len(records)
        assert summary.violations == 0
        t21 = summary.by_theorem["T21"]
        assert t21.count == 16
        assert t21.argmax.ratio == t21.max_ratio
        assert 0.0 < t21.max_ratio <= 1.0 + 1e-12

    def test_groups_keep_record_order_and_unknown_ids_count_in_totals(self):
        row = SweepRecord("T21", "f", 1.0, 1.0, 0.5, 2.0, 2.0, 0.5, 1.0, 0.0, 0.5, True, 0.0)
        records = [
            row._replace(family_id="first", margin=1e16),
            row._replace(theorem_id="C13", margin=-1e16),
            row._replace(family_id="second", margin=1.0),
            row._replace(theorem_id="HH11", alpha=None, x=None, p=None, q=None),
            row._replace(family_id="third", margin=-1e16),
        ]
        summary = summarize(records)
        assert (summary.total, summary.certified) == (5, 5)
        assert list(summary.by_theorem) == ["T21", "HH11"]
        # the C13 violation counts in the total only
        assert summary.violations == 2
        assert [ts.violations for ts in summary.by_theorem.values()] == [1, 0]
        t21 = summary.by_theorem["T21"]
        assert t21.count == 3
        assert t21.argmax.family_id == "first"  # the first of equal ratios
        # summed in record order: (1e16 + 1) - 1e16 is 0, not 1
        assert t21.mean_margin == 0.0

    def test_format_lists_every_theorem(self):
        text = format_summary(summarize(run_sweep(_tiny_grid(), samples=512)))
        for tid in ("T21", "T22", "T23", "T24", "HH11"):
            assert tid in text

    def test_kinds_are_counted_per_theorem(self, tmp_path):
        records = run_sweep(_tiny_grid(), samples=512)
        summary = summarize(records)
        for tid, ts in summary.by_theorem.items():
            assert sum(ts.kinds.values()) == ts.count
        # T24 at s = 1/2 is refuted on both families; at s = 1 the constant
        # |f'|^2 of linear is proved and the (2u)^2 of u2 is refuted at a
        # boundary triple
        assert summary.by_theorem["T24"].kinds == {"proved": 4, "refuted": 12, "sampled": 0}
        lines = format_summary(summary).splitlines()
        assert lines[0].startswith("records = ")
        assert "violations=0 proved=4 refuted=12 sampled=0 " in lines[4]
        # the kind is not a CSV column yet: records read back carry none
        path = tmp_path / "out.csv"
        write_csv(records, path)
        back = summarize(read_csv(path))
        assert all(ts.kinds == {} for ts in back.by_theorem.values())
        assert "proved=" not in format_summary(back)


class TestCsv:
    def test_header_is_pinned(self, tmp_path):
        path = tmp_path / "out.csv"
        write_csv(run_sweep(_tiny_grid(), samples=512), path)
        header = path.read_text().splitlines()[0]
        assert header == ",".join(CSV_COLUMNS)
        assert header == (
            "theorem_id,family_id,alpha,s,x,p,q,lhs,rhs,margin,ratio,"
            "certified,quad_error_est"
        )

    def test_round_trip(self, tmp_path):
        records = run_sweep(_tiny_grid(), samples=512)
        path = tmp_path / "out.csv"
        write_csv(records, path)
        assert read_csv(path) == records

    def test_rewrite_is_byte_identical(self, tmp_path):
        records = run_sweep(_tiny_grid(), samples=512)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_csv(records, p1)
        write_csv(records, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_empty_cells_round_trip_as_none(self, tmp_path):
        records = [r for r in run_sweep(_tiny_grid(), samples=512) if r.theorem_id == "HH11"]
        path = tmp_path / "hh.csv"
        write_csv(records, path)
        got = read_csv(path)
        assert all(r.alpha is None and r.q is None for r in got)

    def test_missing_column_is_named(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("theorem_id,family_id,alpha\nT21,u2,1.0\n")
        with pytest.raises(CsvSchemaError, match="missing column"):
            read_csv(path)

    def test_short_row_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(",".join(CSV_COLUMNS) + "\nT21,u2,1.0\n")
        with pytest.raises(CsvSchemaError, match="row 1"):
            read_csv(path)

    def test_non_numeric_cell_names_column(self, tmp_path):
        path = tmp_path / "bad.csv"
        row = "T21,u2,1.0,1.0,0.5,2.0,2.0,oops,1.0,0.9,0.1,true,0.0"
        path.write_text(",".join(CSV_COLUMNS) + "\n" + row + "\n")
        with pytest.raises(CsvSchemaError, match="'lhs'"):
            read_csv(path)

    def test_bad_certified_cell(self, tmp_path):
        path = tmp_path / "bad.csv"
        row = "T21,u2,1.0,1.0,0.5,2.0,2.0,0.1,1.0,0.9,0.1,maybe,0.0"
        path.write_text(",".join(CSV_COLUMNS) + "\n" + row + "\n")
        with pytest.raises(CsvSchemaError, match="certified"):
            read_csv(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(CsvSchemaError, match="header"):
            read_csv(path)


_HEADER = ",".join(CSV_COLUMNS)
_HH_ROW = "HH11,u2,,0.5,,,,0.3,0.5,0.1,0.6,true,1e-12"


def _schema_error(tmp_path, text: str) -> str:
    path = tmp_path / "bad.csv"
    path.write_text(text)
    with pytest.raises(CsvSchemaError) as info:
        read_csv(path)
    return str(info.value)


class TestCsvSchemaMessages:
    """Every schema error's full text, and which bad cell a row reports."""

    @pytest.mark.parametrize(
        "text, message",
        [
            ("", "empty file: missing header row"),
            (
                "theorem_id,family_id,alpha\nT21,u2,1.0\n",
                "missing column(s): s, x, p, q, lhs, rhs, margin, ratio, certified, "
                "quad_error_est",
            ),
            (
                _HEADER.replace("alpha,s", "s,alpha") + "\n",
                "header mismatch: expected theorem_id,family_id,alpha,s,x,p,q,lhs,rhs,"
                "margin,ratio,certified,quad_error_est, got theorem_id,family_id,s,alpha,"
                "x,p,q,lhs,rhs,margin,ratio,certified,quad_error_est",
            ),
            (_HEADER + "\nT21,u2,1.0\n", "row 1: expected 13 cells, got 3"),
            (
                _HEADER + "\nT21,u2,1.0,1.0,0.5,2.0,2.0,0.1,1.0,0.9,0.1,maybe,0.0\n",
                "row 1: column 'certified' must be true/false, got 'maybe'",
            ),
            (
                _HEADER + "\nHH11,u2,,,,,,0.3,0.5,0.1,0.6,true,1e-12\n",
                "row 1: column 's' is not a number: ''",
            ),
            (
                _HEADER + "\nHH11,u2,,0.5,,,,0.3,0.5,0.1,0.6,true,\n",
                "row 1: column 'quad_error_est' is not a number: ''",
            ),
        ],
        ids=[
            "empty-file", "missing-column", "header-mismatch", "short-row",
            "bad-certified", "empty-s", "empty-quad-error",
        ],
    )
    def test_full_message(self, tmp_path, text, message):
        assert _schema_error(tmp_path, text) == message

    def test_alpha_before_lhs(self, tmp_path):
        row = "T21,u2,a,1.0,0.5,2.0,2.0,oops,1.0,0.9,0.1,true,0.0"
        got = _schema_error(tmp_path, _HEADER + "\n" + row + "\n")
        assert got == "row 1: column 'alpha' is not a number: 'a'"

    def test_certified_before_lhs(self, tmp_path):
        row = "T21,u2,1.0,1.0,0.5,2.0,2.0,oops,1.0,0.9,0.1,maybe,0.0"
        got = _schema_error(tmp_path, _HEADER + "\n" + row + "\n")
        assert got == "row 1: column 'certified' must be true/false, got 'maybe'"

    def test_optional_columns_before_s(self, tmp_path):
        # cells are checked in the order alpha, x, p, q, s, lhs, ..., not by position
        row = "T21,u2,1.0,bad-s,bad-x,2.0,2.0,0.1,1.0,0.9,0.1,true,0.0"
        got = _schema_error(tmp_path, _HEADER + "\n" + row + "\n")
        assert got == "row 1: column 'x' is not a number: 'bad-x'"

    def test_bad_cell_after_a_good_sandwich_row(self, tmp_path):
        row = "T21,u2,1.0,1.0,0.5,2.0,2.0,0.1,x,0.9,0.1,true,0.0"
        got = _schema_error(tmp_path, _HEADER + "\n" + _HH_ROW + "\n" + row + "\n")
        assert got == "row 2: column 'rhs' is not a number: 'x'"


def _oracle_cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _oracle_write(records, path) -> None:
    """The csv.writer of cells formatted one by one: the writer's oracle.

    Rows end in "\\n", and fields are quoted as for "\\r\\n" line ends, so
    that a carriage return in an id is quoted as csv.reader needs it.
    """
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\r\n")
    rows = [CSV_COLUMNS] + [[_oracle_cell(getattr(r, c)) for c in CSV_COLUMNS] for r in records]
    with open(path, "w", newline="") as fh:
        for row in rows:
            buf.seek(0)
            buf.truncate()
            writer.writerow(row)
            fh.write(buf.getvalue()[:-2] + "\n")


_EDGE_FLOATS = (math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, -5e-324, 1e16, 0.1)
_floats = st.one_of(st.sampled_from(_EDGE_FLOATS), st.floats())
_optional = st.one_of(st.none(), _floats)
# ids made of the characters csv quoting cares about, leading spaces included
_ids = st.text(alphabet=st.sampled_from(list('ab1 ,"\n\r')), max_size=6)
_records = st.builds(
    SweepRecord,
    theorem_id=st.one_of(st.just(""), st.sampled_from(["T21", "HH11"]), _ids),
    family_id=_ids,
    alpha=_optional,
    s=_floats,
    x=_optional,
    p=_optional,
    q=_optional,
    lhs=_floats,
    rhs=_floats,
    margin=_floats,
    ratio=_floats,
    certified=st.booleans(),
    quad_error_est=_floats,
)




@st.composite
def _record_lists(draw):
    """Records of which consecutive ones sometimes hold the very same objects.

    A sweep's rows share them: the family..q cells of a grid point's bound
    rows, and the lhs and quad_error_est of all its rows.
    """
    records = draw(st.lists(_records, max_size=6))
    for i in range(1, len(records)):
        shared = draw(st.sets(st.sampled_from(CSV_COLUMNS)))
        if shared:
            records[i] = records[i]._replace(**{c: getattr(records[i - 1], c) for c in shared})
    return records


def _distinct(text: str) -> float:
    return float(text)  # a new float object on every call


class TestCsvAgainstOracle:
    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(_record_lists())
    def test_bytes_match_the_csv_writer_and_survive_a_round_trip(
        self, tmp_path_factory, records
    ):
        d = tmp_path_factory.mktemp("oracle")
        want, got, again = d / "want.csv", d / "got.csv", d / "again.csv"
        _oracle_write(records, want)
        write_csv(records, got)
        assert got.read_bytes() == want.read_bytes()
        # bytes, not records: NaN error rows never compare equal
        write_csv(read_csv(got), again)
        assert again.read_bytes() == want.read_bytes()

    @pytest.mark.parametrize("column", ["alpha", "s", "x", "p", "q", "lhs", "quad_error_est"])
    @pytest.mark.parametrize(
        "first, then",
        [("0.0", "-0.0"), ("-0.0", "0.0"), ("nan", "nan"), ("0.1", "0.1")],
        ids=["zero-then-minus-zero", "minus-zero-then-zero", "two-nans", "equal-floats"],
    )
    def test_cells_are_reused_by_identity_not_value(self, tmp_path, column, first, then):
        # every other cell is the previous row's own object, as in a sweep
        a, b = _distinct(first), _distinct(then)
        assert a is not b
        row = SweepRecord(*(_distinct(v) if isinstance(v, float) else v for v in TestRecord.ARGS))
        records = [row._replace(**{column: a}), row._replace(**{column: b})]
        records.append(records[-1])
        records.append(records[-1]._replace(family_id="other"))
        want, got = tmp_path / "want.csv", tmp_path / "got.csv"
        _oracle_write(records, want)
        write_csv(records, got)
        assert got.read_bytes() == want.read_bytes()

    def test_carriage_return_in_an_id_is_quoted(self, tmp_path):
        rec = SweepRecord("T21", "a\rb", 1.0, 1.0, 0.5, 2.0, 2.0, 0.1, 1.0, 0.9, 0.1, True, 0.0)
        path = tmp_path / "out.csv"
        write_csv([rec], path)
        assert path.read_bytes().split(b"\n")[1].startswith(b'T21,"a\rb",')
        assert read_csv(path) == [rec]

    def test_config_family_id_with_comma_and_quotes(self, tmp_path):
        grid = grid_from_config_text(
            "alphas = 1\nsvals = 1\nxfracs = 0.5\nqvals = 2\ntheorems = t21, hh\n"
            'family.a,"b" x = 1*(u-0)^2 on [0,1]\n'
        )
        assert [fid for fid, _ in grid.families] == ['a,"b" x']
        records = run_sweep(grid, samples=64)
        path = tmp_path / "out.csv"
        write_csv(records, path)
        lines = path.read_text().splitlines()
        assert all(line.split(",", 1)[1].startswith('"a,""b"" x",') for line in lines[1:])
        back = read_csv(path)
        assert back == records
        assert {r.family_id for r in back} == {'a,"b" x'}


# the violation rule's edges: non-finite values and margins either side of -2e-9
_rule_floats = st.one_of(
    st.sampled_from((math.nan, math.inf, -math.inf, 1.0, -1.5e-9, -3e-9)), _floats
)


class TestSummaryViolations:
    """summarize applies is_violation's rule inline; drawn records hold it to it."""

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(
        st.lists(
            st.builds(
                SweepRecord,
                theorem_id=st.sampled_from(["T21", "T24", "HH11", "C13"]),
                family_id=st.just("f"),
                alpha=st.none(),
                s=st.just(1.0),
                x=st.none(),
                p=st.none(),
                q=st.none(),
                lhs=_floats,
                rhs=_rule_floats,
                margin=_rule_floats,
                ratio=_floats,
                certified=st.booleans(),
                quad_error_est=st.just(0.0),
            ),
            min_size=1,
            max_size=8,
        )
    )
    def test_violation_counts_follow_is_violation(self, records):
        summary = summarize(records)
        assert summary.violations == sum(bool(is_violation(r)) for r in records)
        for tid, ts in summary.by_theorem.items():
            assert ts.violations == sum(
                bool(is_violation(r)) for r in records if r.theorem_id == tid
            )


# -- summarize and render_svg as passes over every record per quantity, kept
# as oracles for the versions that read each record once -------------------

_REF_ORDER = ("T21", "T22", "T23", "T24", "HH11")


def _reference_summarize(records):
    """A pass per count, a group per id, and passes per group."""
    if not records:
        raise DomainError("summarize requires at least one record")
    errors = sum(1 for r in records if not math.isfinite(r.lhs))
    certified = sum(1 for r in records if r.certified)
    groups = {tid: [r for r in records if r.theorem_id == tid] for tid in _REF_ORDER}
    by_theorem = {}
    for tid, rows in groups.items():
        if not rows:
            continue
        live = [
            r
            for r in rows
            if r.certified and math.isfinite(r.margin) and math.isfinite(r.ratio)
        ]
        argmax = max(live, key=lambda r: r.ratio, default=None)
        known = [r.certificate for r in rows if r.certificate is not None]
        by_theorem[tid] = sweep_module.TheoremSummary(
            count=len(rows),
            certified=sum(1 for r in rows if r.certified),
            violations=sum(1 for r in rows if is_violation(r)),
            max_ratio=argmax.ratio if argmax is not None else None,
            argmax=argmax,
            mean_margin=sum(r.margin for r in live) / len(live) if live else None,
            kinds={k: known.count(k) for k in ("proved", "refuted", "sampled")} if known else {},
        )
    return sweep_module.SweepSummary(
        total=len(records),
        certified=certified,
        errors=errors,
        violations=sum(1 for r in records if is_violation(r)),
        by_theorem=by_theorem,
    )


def _assert_same_summary(got, want):
    assert (got.total, got.certified, got.errors, got.violations) == (
        want.total, want.certified, want.errors, want.violations,
    )
    assert list(got.by_theorem) == list(want.by_theorem)
    for tid, w in want.by_theorem.items():
        g = got.by_theorem[tid]
        assert (g.count, g.certified, g.violations) == (w.count, w.certified, w.violations)
        assert g.argmax is w.argmax
        # repr tells -0.0 from 0.0, and shows NaN and None
        assert repr(g.max_ratio) == repr(w.max_ratio)
        assert repr(g.mean_margin) == repr(w.mean_margin)
        assert list(g.kinds.items()) == list(w.kinds.items())


_SVG_REF_COLORS = {
    "T21": "#1f77b4",
    "T22": "#ff7f0e",
    "T23": "#2ca02c",
    "T24": "#d62728",
    "HH11": "#9467bd",
}


def _reference_render_svg(records):
    """A px and py call per drawn point, a pass over the points per legend id."""
    pts = [
        r
        for r in records
        if r.certified and r.alpha is not None and math.isfinite(r.ratio)
    ]
    width, height = 800, 600
    ml, mr, mt, mb = 70, 150, 30, 50
    alphas = sorted({r.alpha for r in pts})
    amin, amax = (alphas[0], alphas[-1]) if alphas else (0.0, 1.0)
    if amin == amax:
        amin, amax = amin - 0.5, amax + 0.5
    rmax = max((r.ratio for r in pts), default=1.0)
    ymax = max(1.0, rmax) * 1.05

    def px(alpha):
        return ml + (alpha - amin) / (amax - amin) * (width - ml - mr)

    def py(ratio):
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
    seen = [tid for tid in _REF_ORDER[:4] if any(r.theorem_id == tid for r in pts)]
    for r in pts:
        color = _SVG_REF_COLORS.get(r.theorem_id, "#7f7f7f")
        out.append(
            f'<circle cx="{px(r.alpha):.2f}" cy="{py(r.ratio):.2f}" r="3" '
            f'fill="{color}" fill-opacity="0.55"/>'
        )
    for i, tid in enumerate(seen):
        yy = mt + 16 + 20 * i
        out.append(
            f'<circle cx="{width - mr + 18}" cy="{yy}" r="4" fill="{_SVG_REF_COLORS[tid]}"/>'
        )
        out.append(
            f'<text x="{width - mr + 30}" y="{yy + 4}" font-size="13">{tid}</text>'
        )
    out.append("</svg>")
    return "\n".join(out)


@functools.lru_cache(maxsize=None)
def _shipped_records():
    grid, _ = apply_derivative_shrink(standard_grid())
    return tuple(run_sweep(grid))


# margins and ratios at the edges summarize and render_svg test, ties included
_summary_floats = st.one_of(
    st.sampled_from((math.nan, math.inf, -math.inf, -0.0, 0.0, 0.5, 1.0, -3e-9)), _floats
)
_summary_records = st.builds(
    SweepRecord,
    theorem_id=st.sampled_from(["T21", "T22", "T24", "HH11", "C13"]),
    family_id=st.sampled_from(["f", "g"]),
    alpha=st.one_of(st.none(), st.sampled_from((0.5, 1.0, 2.0, -0.0, 0.0)), _floats),
    s=st.just(1.0),
    x=st.none(),
    p=st.none(),
    q=st.none(),
    lhs=_summary_floats,
    rhs=st.one_of(st.just(0.0), _summary_floats),
    margin=_summary_floats,
    ratio=_summary_floats,
    certified=st.booleans(),
    quad_error_est=st.just(0.0),
    certificate=st.sampled_from((None, "proved", "refuted", "sampled")),
)


def _outcome(render, records):
    """The text, or the type and message of the error it raises: one alpha
    from about 2^52 on leaves the reference no room to widen the axis."""
    try:
        return render(records)
    except ArithmeticError as exc:
        return type(exc), str(exc)


_COLLAPSED_AXIS = (ZeroDivisionError, "float division by zero")


def _point_cx(svg):
    """The x coordinate of each drawn point (legend markers have r="4")."""
    return [float(m) for m in re.findall(r'<circle cx="([^"]*)" cy="[^"]*" r="3"', svg)]


_ROW = SweepRecord("T21", "f", 1.0, 1.0, 0.5, 2.0, 2.0, 0.5, 1.0, 0.5, 0.5, True, 0.0)


class TestOutputsAgainstOracle:
    def test_shipped_summary_and_svg(self):
        records = list(_shipped_records())
        _assert_same_summary(summarize(records), _reference_summarize(records))
        assert render_svg(records) == _reference_render_svg(records)

    def test_shipped_summary_of_the_records_read_back(self, tmp_path):
        path = tmp_path / "shipped.csv"
        write_csv(list(_shipped_records()), path)
        records = read_csv(path)
        _assert_same_summary(summarize(records), _reference_summarize(records))

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(st.lists(_summary_records, min_size=1, max_size=10))
    def test_drawn_records(self, records):
        _assert_same_summary(summarize(records), _reference_summarize(records))
        want = _outcome(_reference_render_svg, records)
        if want == _COLLAPSED_AXIS:
            # render_svg widens the axis where the reference divides by zero
            assert all(map(math.isfinite, _point_cx(render_svg(records))))
        else:
            assert _outcome(render_svg, records) == want

    def test_empty_input_is_rejected_alike(self):
        with pytest.raises(DomainError):
            _reference_summarize([])
        with pytest.raises(DomainError):
            summarize([])

    @pytest.mark.parametrize(
        "case",
        [
            [],
            [_ROW._replace(certified=False)],
            [_ROW._replace(theorem_id="HH11", alpha=None)],
            [_ROW._replace(ratio=r) for r in (0.25, 0.5, 0.75)],
            [_ROW._replace(theorem_id=t, ratio=0.3) for t in ("T24", "T22", "C13", "T22")],
            [_ROW._replace(theorem_id="T23", certified=False, ratio=0.9), _ROW._replace(ratio=0.2)],
            [_ROW._replace(ratio=r) for r in (math.nan, math.inf, -math.inf, 0.5)],
            [_ROW._replace(ratio=r) for r in (math.nan, math.inf)],
            [_ROW._replace(alpha=a, ratio=r) for a, r in ((0.0, 1.2), (-0.0, -0.0), (3.0, 0.0))],
        ],
        ids=[
            "no-records", "none-certified", "sandwich-only", "single-alpha",
            "ids-out-of-order", "a-bound-all-uncertified", "non-finite-ratios",
            "only-non-finite-ratios", "signed-zeros",
        ],
    )
    def test_svg_edge_cases(self, case):
        assert render_svg(case) == _reference_render_svg(case)

    @pytest.mark.parametrize("alpha", [1e16, 2.0**52 + 2, 2.0**53, -1e16, 1.7e308])
    def test_svg_single_huge_alpha(self, alpha):
        # +-0.5 rounds back to alpha, where the reference divides by zero
        case = [_ROW._replace(alpha=alpha), _ROW._replace(alpha=alpha, ratio=0.25)]
        assert _outcome(_reference_render_svg, case) == _COLLAPSED_AXIS
        cx = _point_cx(render_svg(case))
        assert len(cx) == 2 and all(map(math.isfinite, cx))


class TestConfigGrammar:
    def test_standard_config_parses(self):
        g = standard_grid()
        assert len(g.alphas) == 7
        assert g.svals == (0.25, 0.5, 0.75, 1.0)
        assert len(g.xfracs) == 9
        assert g.qvals == (1.5, 2.0, 3.0)
        assert len(g.families) == 9
        assert g.theorems == ALL_THEOREMS

    def test_standard_text_is_commented(self):
        assert standard_config_text().lstrip().startswith("#")

    def test_comments_and_blanks_ignored(self):
        g = grid_from_config_text(
            """
            # a comment
            alphas = 1.0   # trailing comment
            svals = 0.5
            xfracs = 0.5
            qvals = 2
            theorems = t21, hh
            family.f = 1*(u-0)^2 on [0,1]
            """
        )
        assert g.alphas == (1.0,)
        assert g.theorems == (TheoremId.T21, TheoremId.HH11)

    def test_unknown_key(self):
        with pytest.raises(ParseError, match="unknown config key"):
            grid_from_config_text("betas = 1.0")

    def test_line_without_equals(self):
        with pytest.raises(ParseError, match="key = value"):
            grid_from_config_text("alphas 1.0")

    def test_bad_number(self):
        with pytest.raises(ParseError, match="comma-separated numbers"):
            grid_from_config_text("alphas = 1.0, zebra")

    def test_bad_theorem_id(self):
        with pytest.raises(ParseError, match="unknown theorem"):
            grid_from_config_text("theorems = t21, t99")

    def test_missing_keys_listed(self):
        with pytest.raises(DomainError, match="svals"):
            grid_from_config_text(
                "alphas = 1\nxfracs = 0.5\nqvals = 2\ntheorems = t21\n"
                "family.f = 1*(u-0)^2 on [0,1]"
            )

    def test_no_families(self):
        with pytest.raises(DomainError, match="families"):
            grid_from_config_text(
                "alphas = 1\nsvals = 1\nxfracs = 0.5\nqvals = 2\ntheorems = t21"
            )

    def test_family_spec_errors_propagate(self):
        with pytest.raises(ParseError, match=r"family\.f: .*\(at line 2\)"):
            grid_from_config_text("alphas = 1\nfamily.f = 1*(v-0)^2 on [0,1]")

    @pytest.mark.parametrize(
        "text,line",
        [
            ("betas = 1.0", 1),
            ("# header\n\nalphas 1.0", 3),
            ("alphas = 1\nsvals = 1\nqvals = x", 3),
        ],
    )
    def test_errors_name_the_line_from_one(self, text, line):
        with pytest.raises(ParseError, match=rf"\(at line {line}\)$") as exc:
            grid_from_config_text(text)
        assert exc.value.position == line
        assert "position" not in str(exc.value)

    @pytest.mark.parametrize("key", ["alphas", "theorems", "family.f"])
    def test_repeated_key_names_both_lines(self, key):
        value = {"alphas": "1", "theorems": "t21", "family.f": "1*(u-0)^2 on [0,1]"}[key]
        text = f"{key} = {value}\nsvals = 1\n# again\n{key} = {value}\n"
        with pytest.raises(ParseError, match=rf"'{key}' repeats line 1 \(at line 4\)"):
            grid_from_config_text(text)


class TestDerivativeShrink:
    def _grid(self, theorems):
        return SweepGrid(
            alphas=(0.5,),
            svals=(0.5,),
            xfracs=(0.5,),
            qvals=(2.0,),
            families=(("root", parse_function("1*(u-0)^0.5 on [0,1]")),),
            theorems=theorems,
        )

    def test_bound_grids_get_nudged(self):
        shrunk, notes = apply_derivative_shrink(self._grid((TheoremId.T21,)))
        assert len(notes) == 1 and "root" in notes[0]
        _, f = shrunk.families[0]
        assert f.lo == pytest.approx(1e-9, rel=1e-12)
        assert f.hi == 1.0

    def test_sandwich_only_grids_untouched(self):
        g = self._grid((TheoremId.HH11,))
        shrunk, notes = apply_derivative_shrink(g)
        assert notes == []
        assert shrunk.families[0][1].lo == 0.0

    def test_smooth_families_untouched(self):
        g = _tiny_grid()
        shrunk, notes = apply_derivative_shrink(g)
        assert notes == []
        assert shrunk is g


class TestSvg:
    def test_scatter_smoke(self):
        records = run_sweep(_tiny_grid(), samples=512)
        svg = render_svg(records)
        assert svg.startswith("<svg")
        assert 'viewBox="0 0 800 600"' in svg
        plotted = sum(
            1
            for r in records
            if r.certified and r.alpha is not None and math.isfinite(r.ratio)
        )
        assert svg.count("<circle") >= plotted
        for tid in ("T21", "T22", "T23"):
            assert tid in svg

    def test_sandwich_only_records_render(self):
        records = run_sweep(_tiny_grid(theorems=(TheoremId.HH11,)), samples=512)
        svg = render_svg(records)
        assert svg.startswith("<svg")


def _shipped_certificates():
    """Every certificate key of the shipped grid, as the sweep forms them."""
    grid, _ = apply_derivative_shrink(standard_grid())
    keys = []
    for fid, f in grid.families:
        fp = f.derivative()
        found = set()
        for s in grid.svals:
            found.add((s, "f", "convex", None))
            for spec in FRACTIONAL_BOUNDS.values():
                for q in grid.qvals:
                    pow_q = q if spec.target == "abs_deriv_pow" else None
                    found.add((s, spec.target, spec.mode, pow_q))
        for s, target, mode, q in sorted(found, key=repr):
            keys.append((fid, f if target == "f" else fp, target, q, f.lo, f.hi, s, mode))
    return keys


class TestShippedCertificates:
    """Rule-decided certificates of the shipped grid against independent oracles."""

    def test_every_key_against_the_sampler_and_mpmath(self):
        keys = _shipped_certificates()
        assert len(keys) == 288
        kinds = Counter()
        for fid, g, target, q, a, b, s, mode in keys:
            report = certify_model(g, target, q, a, b, s, mode, samples=2000)
            kinds[report.kind] += 1
            if report.kind == "proved":
                sampled = certify_pointwise(g_fn(g, target, q), a, b, s, mode, 20_000)
                assert sampled.verdict, (fid, target, q, s, mode)
            elif report.kind == "refuted":
                assert mp_violation(report, g, target, q) > 0, (fid, target, q, s, mode)
        assert kinds == {"proved": 186, "refuted": 100, "sampled": 2}

    def test_boundary_refutations_fail_the_sampler_at_their_sweep_seed(self):
        # the keys a boundary triple refutes, run through the sampler at the
        # seed the shipped sweep (run seed 0) derives for each: it fails too
        moved = []
        for fid, g, target, q, a, b, s, mode in _shipped_certificates():
            report = certify_model(g, target, q, a, b, s, mode)
            if report.rule == "boundary triple":
                seed = _derive_seed(0, fid, s, target, mode, q)
                full = certify_pointwise(g_fn(g, target, q), a, b, s, mode, 20_000, seed)
                assert not full.verdict, (fid, target, q, s, mode)
                assert full.worst_violation >= report.worst_violation
                moved.append((fid, target, q, s, mode))
        assert len(moved) == 28

    def test_sweep_records_carry_the_certificate_kind(self):
        g = SweepGrid(
            alphas=(1.0,),
            svals=(0.5, 1.0),
            xfracs=(0.5,),
            qvals=(2.0,),
            families=(("u15", parse_function("0.6666666666666666*(u-0)^1.5 on [0.01,1]")),),
            theorems=ALL_THEOREMS,
        )
        got = {(r.theorem_id, r.s): (r.certificate, r.certified) for r in run_sweep(g, samples=256)}
        assert got == {
            ("HH11", 0.5): ("proved", True),
            ("HH11", 1.0): ("proved", True),
            ("T21", 0.5): ("proved", True),
            ("T21", 1.0): ("refuted", False),
            ("T22", 0.5): ("proved", True),
            ("T22", 1.0): ("proved", True),
            ("T23", 0.5): ("proved", True),
            ("T23", 1.0): ("proved", True),
            ("T24", 0.5): ("refuted", False),
            ("T24", 1.0): ("proved", True),
        }
