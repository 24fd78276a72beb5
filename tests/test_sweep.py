"""Grid runner, CSV schema, summaries, config grammar, scatter rendering."""

import csv
import io
import math
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracineq.errors import CsvSchemaError, DomainError, ParseError
from fracineq.funcmodel import (
    FunctionModel,
    certify_model,
    certify_pointwise,
    parse_function,
)
from fracineq.hh_core import (
    FRACTIONAL_BOUNDS,
    ProblemInstance,
    TheoremId,
    conjugate_exponent,
    rhs_t21,
    rhs_t22,
    rhs_t23,
    rhs_t24,
)
from fracineq.rlint import QuadratureConfig
from fracineq.sweep import (
    CSV_COLUMNS,
    SweepGrid,
    SweepRecord,
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
        # order 2 puts a v^(1/2) kink in the substituted integrand, so a
        # one-panel budget at 1e-15 relative cannot converge; the sandwich
        # integrand stays polynomial and still succeeds
        g = SweepGrid(
            alphas=(2.0,),
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
            (t.value, q, conjugate_exponent(q)) for t in PUBLIC_RHS for q in grid.qvals
        )
        for point in failed:
            at = [r for r in rows if (r.family_id, r.s, r.alpha, r.x) == point]
            assert sorted((r.theorem_id, r.q, r.p) for r in at) == expected
            for r in at:
                assert math.isnan(r.rhs) and math.isnan(r.margin) and math.isnan(r.ratio)
                assert not r.certified

    def test_work_is_per_family_and_point_not_per_record(self, monkeypatch):
        # pinned counts: a change that brings per-record work back must say so
        derivatives, deriv_points, instances = [], [], []
        derivative, evaluate = FunctionModel.derivative, FunctionModel.evaluate
        post_init = ProblemInstance.__post_init__

        def counting_derivative(self):
            derivatives.append(derivative(self))
            return derivatives[-1]

        def counting_evaluate(self, u):
            if np.ndim(u) == 0 and any(self is fp for fp in derivatives):
                deriv_points.append(u)
            return evaluate(self, u)

        def counting_post_init(self):
            instances.append(self)
            post_init(self)

        monkeypatch.setattr(FunctionModel, "derivative", counting_derivative)
        monkeypatch.setattr(FunctionModel, "evaluate", counting_evaluate)
        monkeypatch.setattr(ProblemInstance, "__post_init__", counting_post_init)
        grid = _rhs_grid()
        run_sweep(grid, samples=256)
        families, svals, alphas, xs, qs = 2, 2, 2, 3, 2
        assert len(derivatives) == families
        # |f'| at x, a, b, (x+a)/2 and (x+b)/2
        assert len(deriv_points) == 5 * families * xs
        # one per grid point for the right sides plus one per lhs integral
        assert len(instances) == families * svals * alphas * xs * qs + families * alphas * xs


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
            replace(row, family_id="first", margin=1e16),
            replace(row, theorem_id="C13", margin=-1e16),
            replace(row, family_id="second", margin=1.0),
            replace(row, theorem_id="HH11", alpha=None, x=None, p=None, q=None),
            replace(row, family_id="third", margin=-1e16),
        ]
        summary = summarize(records)
        assert (summary.total, summary.certified) == (5, 5)
        assert list(summary.by_theorem) == ["T21", "HH11"]
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
        # |f'|^2 of linear is proved and the (2u)^2 of u2 is sampled
        assert summary.by_theorem["T24"].kinds == {"proved": 4, "refuted": 8, "sampled": 4}
        lines = format_summary(summary).splitlines()
        assert lines[0].startswith("records = ")
        assert "violations=0 proved=4 refuted=8 sampled=4 " in lines[4]
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


class TestCsvAgainstOracle:
    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(st.lists(_records, max_size=6))
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
        assert kinds == {"proved": 186, "refuted": 72, "sampled": 30}

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
            ("T21", 1.0): ("sampled", False),
            ("T22", 0.5): ("proved", True),
            ("T22", 1.0): ("proved", True),
            ("T23", 0.5): ("proved", True),
            ("T23", 1.0): ("proved", True),
            ("T24", 0.5): ("refuted", False),
            ("T24", 1.0): ("proved", True),
        }
