"""A fuzzer over the library's entry points, fed boundary inputs.

Each draw takes floats such as 1 +- ulp, 1e17, subnormals, +-0, NaN, +-inf
and spans near the float range, and negative or huge seeds and sample
counts, and passes them to FunctionModel, QuadratureConfig, the batch form
of integrate_adaptive, ProblemInstance, certify_model and SweepGrid (with a
sweep of the grid). Each call must refuse the draw with a DomainError or an
OverflowError, or return something that keeps the documented rules.

Most draws of a value come from its valid range, its own edges included,
so that a call gets past its argument checks often enough to test what it
builds; the rest are the hostile EDGES or any float at all.
"""

import contextlib
import io
import math
import os
import tempfile
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fracineq import cli
from fracineq.errors import DomainError, QuadratureToleranceError
from fracineq.funcmodel import (
    CERT_KINDS,
    MAX_CERT_SAMPLES,
    FunctionModel,
    PowerTerm,
    certify_model,
    parse_function,
)
from fracineq.hh_core import (
    ALPHA_MIN,
    ProblemInstance,
    TheoremId,
    bound_weights,
    c1_c2,
    c3_root,
)
from fracineq.rlint import TABLE_ROWS, QuadratureConfig, integrate_adaptive
from fracineq.sweep import SweepGrid, run_sweep

REFUSED = (DomainError, OverflowError)
ULP = math.ulp(1.0)
TINY = 5e-324  # the least subnormal
EDGES = (
    0.0, -0.0, 0.5, 1.0, 1.0 + ULP, 1.0 - ULP / 2, 2.0, 1e17, -1e17, 1e-300, TINY,
    2.2250738585072014e-308, 1e308, -1e308, 1.7976931348623157e308,
    math.nan, math.inf, -math.inf,
)
HOSTILE = st.one_of(st.sampled_from(EDGES), st.floats())


def mostly(valid, *edges, hostile=HOSTILE):
    """Seven draws in eight from the valid values or their edges, the rest
    hostile: a call takes several values, and most draws should reach what
    it builds."""
    valid = st.one_of(st.sampled_from(edges), valid) if edges else valid
    return st.integers(0, 7).flatmap(lambda k: valid if k else hostile)


ALPHAS = mostly(st.floats(ALPHA_MIN, 1e17), ALPHA_MIN, 1.0, 1.0 + ULP, 1.0 - ULP / 2, 1e300)
SVALS = mostly(st.floats(TINY, 1.0), TINY, 1e-300, 1.0 - ULP / 2, 1.0)
QVALS = mostly(st.floats(1.0, 1e300), 1.0, 1.0 + ULP, 1e17)
TOLS = mostly(st.floats(TINY), 1e-10, 1e-300, TINY, math.inf)
SEEDS = mostly(
    st.integers(0), 0, 2**32, 2**64, hostile=st.integers(max_value=-1) | st.just(-(2**63))
)
# counts past MAX_CERT_SAMPLES are refused before anything is allocated; no
# large count below it is drawn, which would cost time and memory
SAMPLES = mostly(
    st.integers(0, 40), hostile=st.sampled_from((-1, -(2**62), MAX_CERT_SAMPLES + 1, 2**62))
)
# the first is decided by the sampler: no rule or boundary triple decides it
SPECS = ("1*(u-0)^0.25 on [0.01,1]", "1*(u-0)^2 on [0,1]", "2*(u--1)^1.5 + -1*(u-0)^3 on [0,2]")
MODELS = [parse_function(spec) for spec in SPECS]
# domains: tiny, huge, and near the float range's ends
SPANS = (
    (0.0, 1.0), (1.0, 1.0 + 4 * ULP), (0.0, TINY), (1e-300, 1.0), (-1e308, 1e308),
    (1e308, 1.7976931348623157e308), (1e17, 1e17 + 64.0), (-0.0, 1e17),
)


@st.composite
def models(draw):
    """A shipped-style model, or one power term on a drawn domain."""
    if draw(st.booleans()):
        return draw(st.sampled_from(MODELS))
    lo, hi = draw(mostly(st.sampled_from(SPANS), hostile=st.tuples(HOSTILE, HOSTILE)))
    coeff = draw(mostly(st.floats(-1e300, 1e300), 1e-300))
    exponent = draw(st.sampled_from((0.0, 0.5, 1.0, 2.0, 3.5)))
    return FunctionModel((PowerTerm(coeff, lo, exponent),), lo, hi)


def _interval(draw, f):
    """(a, b) inside f's domain, or hostile."""
    lo, hi, mid = f.lo, f.hi, 0.5 * f.lo + 0.5 * f.hi
    inside = st.floats(lo, hi)
    pair = st.tuples(inside, inside).map(sorted).map(tuple)
    return draw(mostly(pair, (lo, hi), (lo, mid), (mid, hi), hostile=st.tuples(HOSTILE, HOSTILE)))


@st.composite
def certify_args(draw):
    """certify_model's arguments: a model, its hypothesis, q, [a, b], s,
    mode, samples and seed."""
    f = draw(st.sampled_from(MODELS))
    target = draw(st.sampled_from(("f", "abs_deriv", "abs_deriv_pow")))
    q = draw(st.one_of(st.none(), QVALS))
    a, b = _interval(draw, f)
    s, mode = draw(SVALS), draw(st.sampled_from(("convex", "concave")))
    return f, target, q, a, b, s, mode, draw(SAMPLES), draw(SEEDS)


def _check_instance(inst, weights):
    """The documented rules of a ProblemInstance that was built, and of its
    endpoint weights."""
    assert inst.f.lo <= inst.a < inst.b <= inst.f.hi and inst.a <= inst.x <= inst.b
    assert math.isfinite(inst.alpha) and inst.alpha >= ALPHA_MIN and 0.0 < inst.s <= 1.0
    if inst.p is not None:
        assert inst.p > 1.0 and math.isfinite(inst.p)
    if inst.q is not None:
        assert inst.q >= 1.0
    if inst.p is not None:
        assert abs(1.0 / inst.p + 1.0 / inst.q - 1.0) <= 1e-12
    consts = c1_c2(inst.alpha, inst.s) + (() if inst.p is None else (c3_root(inst.alpha, inst.p),))
    assert all(math.isfinite(w) and w >= 0.0 for w in weights), weights
    assert all(math.isfinite(c) and c > 0.0 for c in consts), consts


class TestFuzz:
    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(st.data())
    def test_problem_instances(self, data):
        draw = data.draw
        try:
            f = draw(models())
            a, b = _interval(draw, f)
            ordered = math.isfinite(a) and math.isfinite(b) and a < b
            x = draw(mostly(st.floats(a, b), a, b, 0.5 * a + 0.5 * b) if ordered else HOSTILE)
            q = draw(st.one_of(st.none(), QVALS))
            inst = ProblemInstance(f, a, b, x, draw(ALPHAS), draw(SVALS), q=q)
            weights = bound_weights(inst.a, inst.b, inst.x, inst.alpha)
        except REFUSED:
            return
        _check_instance(inst, weights)

    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(certify_args())
    # fracineq certify --f '1*(u-0)^0.25 on [0.01,1]' --s 0.5 --mode convex
    # --seed -1 ended in numpy's ValueError, once the sampler ran
    @example((MODELS[0], "f", None, 0.01, 1.0, 0.5, "convex", 40, -1))
    # g = 1.7e308 overflowed the weighted sum: a worst violation of inf
    @example(
        (parse_function("1.7e308*(u-0)^0 on [0,1]"), "f", None, 0.0, 1.0, 0.5, "concave", 10, 0)
    )
    def test_certificates(self, args):
        f, target, q, a, b, s, mode, samples, seed = args
        g = f if target == "f" else f.derivative()
        try:
            got = certify_model(g, target, q, a, b, s, mode, samples, seed)
        except REFUSED:
            return
        assert 0 <= samples <= MAX_CERT_SAMPLES and seed >= 0
        assert got.kind in CERT_KINDS and got.seed == seed
        assert got.verdict == (got.worst_violation <= got.tol) == (got.kind != "refuted")
        if got.kind == "proved":
            assert (got.samples, got.witness, got.tol) == (0, None, 0.0)
        else:
            assert math.isfinite(got.worst_violation) and got.tol >= 0.0
        if got.kind == "sampled":
            assert got.samples == 12 + samples

    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(
        TOLS, TOLS, mostly(st.integers(1, 2**62), 64), mostly(st.integers(2, 16)),
        mostly(st.sampled_from(SPANS), hostile=st.tuples(HOSTILE, HOSTILE)),
        st.lists(TOLS, min_size=1, max_size=3), st.sampled_from((1, TABLE_ROWS)),
    )
    def test_quadrature_batches(self, rel_tol, abs_tol, budget, nodes, span, tols, repeat):
        try:
            cfg = QuadratureConfig(rel_tol, abs_tol, budget, nodes)
        except DomainError:
            return
        assert rel_tol > 0.0 and abs_tol > 0.0 and budget >= 1 and nodes >= 2
        # a huge budget with a tolerance under the rounding noise would
        # refine until every panel is one ulp wide
        cfg = replace(cfg, max_subdivisions=min(budget, 64))
        lo, hi = span
        # each drawn abs_tol once or, at the table's width, many times
        abs_tols = tols * repeat
        try:
            got = integrate_adaptive(lambda v: np.cos(np.asarray(v)), lo, hi, cfg, abs_tols)
        except DomainError:
            return
        assert math.isfinite(lo) and math.isfinite(hi) and lo <= hi
        assert all(t > 0.0 for t in tols) and len(got) == len(abs_tols)
        alone = {}
        for t in tols:
            try:
                alone[t] = integrate_adaptive(np.cos, lo, hi, replace(cfg, abs_tol=t))
            except QuadratureToleranceError as exc:
                alone[t] = exc
        for t, row in zip(abs_tols, got):
            assert type(row) is type(alone[t]) and repr(row) == repr(alone[t])
            if isinstance(row, tuple):
                value, err = row
                assert math.isfinite(value) and err <= max(t, cfg.rel_tol * abs(value))

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(st.data(), st.sampled_from(MODELS[:2]), SEEDS, SAMPLES)
    def test_sweeps(self, data, f, seed, samples):
        # each field valid, edges included, but for at most one hostile one
        fields = {
            "alphas": st.floats(ALPHA_MIN, 50.0) | st.sampled_from((ALPHA_MIN, 1.0 + ULP, 1e17)),
            "svals": st.floats(TINY, 1.0) | st.sampled_from((TINY, 1.0 - ULP / 2)),
            "xfracs": st.floats(0.0, 1.0) | st.sampled_from((TINY, 1.0 - ULP / 2)),
            "qvals": st.floats(1.0, 1e6, exclude_min=True) | st.sampled_from((1.0 + ULP, 1e17)),
        }
        hostile = data.draw(mostly(st.none(), hostile=st.sampled_from(list(fields))))
        grid = {
            name: data.draw(st.lists(HOSTILE if name == hostile else valid, min_size=1, max_size=2))
            for name, valid in fields.items()
        }
        alphas, svals, xfracs, qvals = grid.values()
        theorems = [TheoremId.T21, TheoremId.T22, TheoremId.T24, TheoremId.HH11]
        try:
            grid = SweepGrid(alphas, svals, xfracs, qvals, [("f", f)], theorems)
            records = run_sweep(grid, seed=seed, samples=samples)
        except REFUSED:
            return
        assert 0 <= samples <= MAX_CERT_SAMPLES
        per_s = 1 + len(alphas) * len(xfracs) * len(qvals) * (len(theorems) - 1)
        assert len(records) == len(svals) * per_s
        for rec in records:
            if rec.p is not None:
                assert rec.p > 1.0 and abs(1.0 / rec.p + 1.0 / rec.q - 1.0) <= 1e-12
            if rec.certificate is not None:
                # not an error row: every number is finite
                assert all(math.isfinite(v) for v in (rec.lhs, rec.rhs, rec.margin, rec.ratio))


# -- the command line ---------------------------------------------------------

CLI_FLOATS = st.one_of(st.sampled_from(EDGES), st.floats())
# text a number, a spec or a config line may be handed instead
JUNK = st.text(alphabet=st.sampled_from(list("0123456789.-+e,*^()[]u on=#\n")), max_size=12)
HOSTILE_TEXT = CLI_FLOATS.map(repr) | JUNK
# counts and seeds: negative, past MAX_CERT_SAMPLES or the int64 range, or not ints
HOSTILE_INTS = st.sampled_from((-1, -(2**63), MAX_CERT_SAMPLES + 1, 2**62)).map(str) | HOSTILE_TEXT


@st.composite
def specs(draw):
    """A function spec: a fuzzed model's, or one power term from drawn
    numbers, one of which may be hostile, or junk."""
    kind = draw(st.integers(0, 7))
    if kind < 4:
        return draw(st.sampled_from(SPECS))
    if kind == 7:
        return draw(JUNK)
    parts = [
        repr(draw(st.floats(-3.0, 3.0))), "0.0", repr(draw(st.sampled_from((0.0, 0.5, 2.0)))),
        "0.0", repr(draw(st.sampled_from((1.0, 2.0)))),
    ]
    bad = draw(st.integers(0, 2 * len(parts)))
    if bad < len(parts):
        parts[bad] = draw(HOSTILE_TEXT)
    return "{}*(u-{})^{} on [{},{}]".format(*parts)


@st.composite
def config_texts(draw):
    """Sweep config text: a small valid grid but for at most one hostile
    value, and lines dropped, repeated or of junk."""
    lists = {
        "alphas": st.floats(0.25, 3.0), "svals": st.floats(0.2, 1.0),
        "xfracs": st.floats(0.0, 1.0), "qvals": st.floats(1.2, 3.0),
    }
    bad = draw(st.sampled_from([None] * len(lists) + list(lists)))
    lines = []
    for key, valid in lists.items():
        values = [repr(draw(valid)) for _ in range(draw(st.integers(1, 2)))]
        if key == bad:
            values[-1] = draw(HOSTILE_TEXT)
        lines.append(f"{key} = {', '.join(values)}")
    ids = ("t21", "t22", "t23", "t24", "hh")
    tokens = draw(st.lists(mostly(st.sampled_from(ids), hostile=JUNK), min_size=1, max_size=3))
    lines.append(f"theorems = {', '.join(tokens)}")
    for k in range(draw(st.integers(1, 2))):
        lines.append(f"family.f{k} = {draw(st.sampled_from(SPECS[1:]) | specs())}")
    if draw(st.integers(0, 3)) == 0:
        at = draw(st.integers(0, len(lines) - 1))
        edit = draw(st.sampled_from(("drop", "repeat", "junk")))
        if edit == "drop":
            del lines[at]
        else:
            lines.insert(at, lines[at] if edit == "repeat" else draw(JUNK))
    return "\n".join(lines) + "\n"


# each subcommand's flags: (name, valid values, required)
CLI_FLAGS = {
    "identity": [
        ("f", None, True), ("a", st.just(0.0), True), ("b", st.just(1.0), True),
        ("x", st.floats(0.0, 1.0), True), ("alpha", st.floats(0.25, 3.0), True),
        ("tol", st.just(1e-8), False),
    ],
    "bound": [
        ("thm", st.sampled_from(("t21", "t22", "t23", "t24", "c13", "c14", "c15", "c16", "hh")),
         True),
        ("f", None, True), ("a", st.just(0.0), True), ("b", st.just(1.0), True),
        ("x", st.floats(0.0, 1.0), True), ("alpha", st.floats(0.25, 3.0), True),
        ("s", st.floats(0.2, 1.0), True), ("q", st.floats(1.2, 3.0), True),
        ("samples", st.integers(0, 40), True),
        ("seed", st.integers(0, 2**64), False),
    ],
    "certify": [
        ("f", None, True), ("s", st.floats(0.2, 1.0), True),
        ("mode", st.sampled_from(("convex", "concave")), True),
        ("samples", st.integers(0, 40), True), ("seed", st.integers(0, 2**64), False),
    ],
}


@st.composite
def cli_argvs(draw):
    """A subcommand and its flags, valid but for at most one hostile value
    or left-out flag; for the sweep, its config text (None: the shipped grid)."""
    command = draw(st.sampled_from((*CLI_FLAGS, "sweep", "junk")))
    if command == "junk":
        return draw(st.lists(JUNK, max_size=3)), None
    if command == "sweep":
        return ["sweep", "--summary"], draw(st.none() | config_texts())
    flags = CLI_FLAGS[command]
    bad = draw(st.integers(0, 2 * len(flags)))
    argv = [command]
    for k, (name, valid, required) in enumerate(flags):
        if k == bad and draw(st.booleans()) or not required and draw(st.booleans()):
            continue  # left out
        if name == "f":
            value = draw(specs())
        elif k == bad:
            value = draw(HOSTILE_INTS if name in ("samples", "seed") else HOSTILE_TEXT)
        else:
            value = str(draw(valid))
        # --name=value, so that a value such as -inf is not read as a flag
        argv.append(f"--{name}={value}")
    return argv, None


class TestCliFuzz:
    """cli.main in process: every argv ends in an ExitCode, with at most one
    stderr line on exit 2 or 3, and nothing raised or warned."""

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(cli_argvs())
    def test_every_argv_ends_in_an_exit_code(self, drawn):
        argv, config = drawn
        out, err = io.StringIO(), io.StringIO()
        with tempfile.TemporaryDirectory() as tmp:
            if argv[:1] == ["sweep"]:
                argv = argv + ["--out", os.path.join(tmp, "out.csv")]
                if config is not None:
                    path = os.path.join(tmp, "grid.cfg")
                    with open(path, "w") as fh:
                        fh.write(config)
                    argv += ["--config", path]
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
        assert code in set(cli.ExitCode), (argv, code)
        if code in (cli.ExitCode.USAGE, cli.ExitCode.QUADRATURE):
            assert err.getvalue().count("\n") <= 1, (argv, err.getvalue())
