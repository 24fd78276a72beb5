"""One benchmark process: set-up, an untraced timed run, or a traced run.

    python3 perfbench/worker.py setup   --workload W --seed N --work DIR
    python3 perfbench/worker.py measure --workload W --seed N --work DIR --seconds S
    python3 perfbench/worker.py trace   --workload W --seed N --work DIR --spans PATH

`run.py` starts it from the root of a checkout with `src` on PYTHONPATH and
one BLAS/OpenMP thread. `measure` and `trace` print one JSON object as
their last line of output. Inputs are made from the seed alone; the program
sees only the generated config file or argv, always through the public
entry points `cli.main`, `read_csv` and `summarize`.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import random
import re
import resource
import statistics
import sys
import time
from pathlib import Path

_t_import = time.perf_counter()
import fracineq  # noqa: E402
from fracineq import cli, funcmodel, hh_core, sweep  # noqa: E402

IMPORT_S = time.perf_counter() - _t_import

import numpy as np  # noqa: E402  (after the import timing: fracineq loads it)

WORKLOADS = ("shipped_sweep", "deep_quadrature", "point_queries")

# criterion 1 of the acceptance gate: |lhs - rhs| <= 1e-8 * (1 + |lhs|)
IDENTITY_TOL = 1e-8
IDENTITY_SAMPLE = 6

# the README's examples add this family to the shipped ones
README_FAMILY = "1*(u-0)^0.5 on [0,1]"
BOUND_KINDS = ("t21", "t22", "t23", "t24", "c13", "c14", "c15", "c16")
QUERY_KINDS = BOUND_KINDS + ("hh", "identity", "certify")
QUERIES_PER_KIND = 20

# Units of reference work timed beside each sweep call and each query.
REF_UNITS = {"shipped_sweep": 10, "deep_quadrature": 10, "point_queries": 1}


# -- seeded inputs ----------------------------------------------------------


def deep_config_text(seed: int, families: int = 4, alphas: int = 20, xfracs: int = 11) -> str:
    """A t21 grid whose cost sits in quadrature.

    Families are two-term power sums anchored at 0 on [0, 1] with fractional
    exponents in (1, 3), so f has a fractional-power kink at the left
    endpoint that the quadrature must resolve. Draws are stratified (one per
    equal slice of each range) so the work varies little between seeds.
    The panel count depends most on alpha: 20 slices of it keep the panel
    evaluations of seeds 11-18 within 3.3% of each other, where 10 alphas
    and 22 x fractions, the same 880 records, spread them over 12%.
    """
    rng = random.Random(seed)
    lines = []
    lo, hi = math.log(0.1), math.log(5.0)
    a = [math.exp(lo + (k + rng.random()) / alphas * (hi - lo)) for k in range(alphas)]
    lines.append("alphas = " + ", ".join(f"{v:.4g}" for v in a))
    lines.append(f"svals = {rng.uniform(0.3, 1.0):.3g}")
    lines.append("xfracs = " + ", ".join(f"{(k + rng.random()) / xfracs:.4f}" for k in range(xfracs)))
    lines.append(f"qvals = {rng.uniform(1.2, 3.0):.3g}")
    lines.append("theorems = t21")
    for i in range(families):
        terms = []
        for j in range(2):
            # term j of family i takes its exponent from its own slice of (1, 3)
            k = i * 2 + j
            e = 1.0 + 2.0 * (k + rng.uniform(0.05, 0.95)) / (2 * families)
            terms.append(f"{rng.uniform(0.5, 2.0):.4g}*(u-0)^{e:.4g}")
        lines.append(f"family.d{i} = {' + '.join(terms)} on [0,1]")
    return "\n".join(lines) + "\n"


def query_pool(seed: int, per_kind: int = QUERIES_PER_KIND) -> list[tuple[str, list[str]]]:
    """(kind, argv) point queries on the shipped and README families.

    Kinds alternate round-robin so every seed has the same mix.
    """
    rng = random.Random(seed)
    specs = [f.render() for _, f in sweep.standard_grid().families] + [README_FAMILY]
    pool = []
    for _ in range(per_kind):
        for kind in QUERY_KINDS:
            spec = specs[rng.randrange(len(specs))]
            f = funcmodel.parse_function(spec)
            lo, hi = f.lo, f.hi
            s = f"{rng.uniform(0.2, 1.0):.3g}"
            x = f"{lo + rng.uniform(0.05, 0.95) * (hi - lo):.6g}"
            alpha = f"{math.exp(rng.uniform(math.log(0.25), math.log(3.0))):.4g}"
            q = f"{rng.uniform(1.2, 3.0):.3g}"
            ab = ["--f", spec, "--a", repr(lo), "--b", repr(hi)]
            if kind == "certify":
                mode = rng.choice(("convex", "concave"))
                argv = ["certify", "--f", spec, "--s", s, "--mode", mode]
            elif kind == "identity":
                argv = ["identity", *ab, "--x", x, "--alpha", alpha]
            elif kind == "hh":
                argv = ["bound", "--thm", "hh", *ab, "--s", s]
            else:
                argv = ["bound", "--thm", kind, *ab, "--x", x, "--s", s]
                if kind.startswith("t"):
                    argv += ["--alpha", alpha]
                if kind not in ("t21", "c13"):
                    argv += ["--q", q]
            pool.append((kind, argv))
    return pool


def split_by_family(text: str, work: Path, *extra: str) -> list[list[str]]:
    """One `sweep` argv per family of the grid in `text`, in grid order.

    Lhs integrals and certificates are per family, so the per-family sweeps
    do the same work as the whole grid. Each is short enough that the
    reference work timed beside it (see `Run`) sees the host's speed
    during it.
    """
    lines = text.splitlines()
    common = [ln for ln in lines if not ln.startswith("family.")]
    argvs = []
    for k, fam in enumerate(ln for ln in lines if ln.startswith("family.")):
        cfg = work / f"grid-{k}.cfg"
        cfg.write_text("\n".join(common + [fam]) + "\n")
        out = ["--out", str(work / f"records-{k}.csv")]
        argvs.append(["sweep", "--config", str(cfg), *out, *(a.format(k=k) for a in extra)])
    return argvs


def build_inputs(workload: str, seed: int, work: Path):
    """Everything the workload hands the program, made from the seed."""
    work.mkdir(parents=True, exist_ok=True)
    if workload == "shipped_sweep":
        svg = str(work / "scatter-{k}.svg")
        return split_by_family(sweep.standard_config_text(), work, "--summary", "--svg", svg)
    if workload == "deep_quadrature":
        return split_by_family(deep_config_text(seed), work)
    return query_pool(seed)


# -- running and checking ---------------------------------------------------


def call_main(argv: list[str]) -> tuple[int | None, str, float]:
    """(exit code or None if it raised, captured output, seconds)."""
    out = io.StringIO()
    code = None
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            code = cli.main(argv)
    except Exception as exc:  # a raising query is a failed operation, not a crash
        out.write(f"raised {exc!r}\n")
    return code, out.getvalue(), time.perf_counter() - t0


def reference(units: int) -> float:
    """Seconds per unit of a fixed piece of work that does not use fracineq.

    A unit is 200 steps of Python float arithmetic and tiny numpy array
    operations, the mix the program itself runs; about 1 ms on a 2-core
    Xeon VM at its fastest.
    """
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(200 * units):
        acc += (i * 0.5) ** 0.5
        acc += float((np.arange(8.0) * acc).sum()) * 1e-12
    return (time.perf_counter() - t0) / units


class Run:
    """Latencies, operation counts and correctness problems of one process.

    With `ref_units`, each timed call is bracketed by timings of that much
    reference work, and the call's time is also kept as a cost in
    reference units: its seconds over the mean seconds per unit of the
    reference work just before and just after it. The host this was tuned
    on slows everything by up to 2x for seconds to minutes at a time, and
    the reference slows with it, so costs repeat where times do not.
    """

    def __init__(self, ref_units: int = 0) -> None:
        self.calls: list[float] = []
        self.ref_units = ref_units
        self.refs: list[float] = []
        if ref_units:
            self.refs.append(reference(ref_units))
        # times and costs of each distinct input's calls and reloads, keyed
        # by its index among the inputs, and the records or queries of a pass
        self.times: dict[int, list[float]] = {}
        self.costs: dict[int, list[float]] = {}
        self.reload_times: dict[int, list[float]] = {}
        self.reload_costs: dict[int, list[float]] = {}
        self.ops_per_pass = 0
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.first_csv: dict[int, bytes] = {}
        # output of each distinct t21 query, for the identity check
        self.t21_out: dict[tuple[str, ...], str] = {}

    def timed(self, key: int, seconds: float, reload: bool = False) -> None:
        times, costs = (self.reload_times, self.reload_costs) if reload else (self.times, self.costs)
        times.setdefault(key, []).append(seconds)
        if not reload:
            self.calls.append(seconds)
        if self.ref_units:
            self.refs.append(reference(self.ref_units))
            costs.setdefault(key, []).append(seconds / ((self.refs[-2] + self.refs[-1]) / 2))

    def problem(self, text: str) -> None:
        if len(self.problems) < 20:
            self.problems.append(text)


_WROTE = re.compile(r"^wrote (\d+) records to ", re.M)
_COUNTS = re.compile(r"errors = (\d+)\s+violations = (\d+)")


def sweep_once(run: Run, key: int, argv: list[str], reload: bool) -> None:
    code, out, seconds = call_main(argv)
    run.timed(key, seconds)
    csv_path = Path(argv[argv.index("--out") + 1])
    if reload:
        t0 = time.perf_counter()
        records = sweep.read_csv(csv_path)
        summary = sweep.summarize(records)
        run.timed(key, time.perf_counter() - t0, reload=True)
    wrote = _WROTE.search(out)
    counts = _COUNTS.search(out)
    if code is None or wrote is None or counts is None:
        run.problem(f"sweep did not report its records (exit {code}): {out[-300:]!r}")
        run.attempted += 1
        run.failed += 1
        return
    n, errors, violations = int(wrote.group(1)), int(counts.group(1)), int(counts.group(2))
    run.attempted += n
    run.failed += errors + violations
    if code != (1 if violations else 0):
        run.problem(f"sweep exit {code} with {violations} violations")
    if reload:
        if len(records) != n:
            run.problem(f"read_csv returned {len(records)} records, sweep printed {n}")
        if (summary.errors, summary.violations) != (errors, violations):
            run.problem("reloaded summary disagrees with the printed one")
    data = csv_path.read_bytes()
    first = run.first_csv.setdefault(key, data)
    if data != first:
        run.problem(f"sweep CSV of {argv} differs from its first one in this set")


def check_identity_sample(run: Run, argvs: list[list[str]], seed: int) -> None:
    """CSV lhs against the identity's independent right side, at seeded points."""
    lhs_at = {}
    families = {}
    for argv in argvs:
        text = Path(argv[argv.index("--config") + 1]).read_text()
        grid, _ = sweep.apply_derivative_shrink(sweep.grid_from_config_text(text))
        families.update(grid.families)
        records = sweep.read_csv(Path(argv[argv.index("--out") + 1]))
        lhs_at.update({(r.family_id, r.alpha, r.x): r.lhs for r in records if r.theorem_id == "T21"})
    rng = random.Random(seed ^ 0x5EED)
    keys = sorted(lhs_at, key=repr)
    for key in rng.sample(keys, min(IDENTITY_SAMPLE, len(keys))):
        fid, alpha, x = key
        f = families[fid]
        inst = hh_core.ProblemInstance(f, f.lo, f.hi, x, alpha, 1.0)
        rhs, _ = hh_core.identity_rhs_with_error(inst)
        lhs = lhs_at[key]
        if not abs(lhs - abs(rhs)) <= IDENTITY_TOL * (1.0 + abs(lhs)):
            run.problem(f"identity mismatch at {key}: csv lhs {lhs!r}, rhs {rhs!r}")


_NUM = r"(-?[0-9.]+(?:e[-+]?\d+)?|nan|inf)"
_LHS = re.compile(r"^lhs = " + _NUM, re.M)


def query_failed(kind: str, code: int | None, out: str) -> bool:
    """A failed query: exit 2 or 3, a raise, a certified bound or sandwich
    reported violated, or an identity residual over tolerance. Exit 1 on an
    uncertified hypothesis is an answer, not a failure."""
    if code not in (0, 1):
        return True
    if kind == "identity":
        return code != 0
    if kind == "certify":
        return False
    certified = "hypothesis certified: yes" in out
    return certified and "VIOLATED" in out


def query_consistent(kind: str, code: int | None, out: str) -> bool:
    """The printed verdict matches the exit code."""
    if code not in (0, 1):
        return True
    ok_line = {"identity": "identity holds", "certify": "certified", "hh": "sandwich holds"}
    last = out.rstrip().splitlines()[-1] if out.strip() else ""
    return (last == ok_line.get(kind, "bound holds")) == (code == 0)


def query_once(run: Run, key: int, kind: str, argv: list[str]) -> None:
    code, out, seconds = call_main(argv)
    run.timed(key, seconds)
    run.attempted += 1
    if query_failed(kind, code, out):
        run.failed += 1
    if not query_consistent(kind, code, out):
        run.problem(f"exit {code} disagrees with output of {argv}")
    if kind == "t21" and code in (0, 1):
        run.t21_out[tuple(argv)] = out


def check_query_identity(run: Run, seed: int) -> None:
    """Printed first-power lhs against the identity's right side, at seeded queries."""
    seen = run.t21_out
    rng = random.Random(seed ^ 0x5EED)
    for argv in rng.sample(sorted(seen), min(IDENTITY_SAMPLE, len(seen))):
        opts = dict(zip(argv[1::2], argv[2::2]))
        f = funcmodel.parse_function(opts["--f"])
        a = float(opts["--a"])
        if f.has_singular_derivative:
            continue  # the command moves a off the edge first; see its note line
        inst = hh_core.ProblemInstance(
            f, a, float(opts["--b"]), float(opts["--x"]), float(opts["--alpha"]), 1.0
        )
        rhs, _ = hh_core.identity_rhs_with_error(inst)
        m = _LHS.search(seen[argv])
        lhs = float(m.group(1)) if m else math.nan
        # printed to 12 significant digits
        if not abs(lhs - abs(rhs)) <= IDENTITY_TOL * (1.0 + abs(lhs)) + 1e-11 * abs(lhs):
            run.problem(f"identity mismatch for {argv}: printed lhs {lhs!r}, rhs {rhs!r}")


def run_measure(workload: str, seed: int, inputs, seconds: float) -> Run:
    """Closed loop with one caller until `seconds` have passed."""
    run = Run(REF_UNITS[workload])
    start = time.perf_counter()
    if workload == "point_queries":
        run.ops_per_pass = len(inputs)
        i = 0
        while time.perf_counter() - start < seconds or i < len(inputs):
            kind, argv = inputs[i % len(inputs)]
            query_once(run, i % len(inputs), kind, argv)
            i += 1
        return run
    reload = workload == "shipped_sweep"
    # two passes at least, so every set checks its CSVs against each other
    passes = 0
    while time.perf_counter() - start < seconds or passes < 2:
        for key, argv in enumerate(inputs):
            sweep_once(run, key, argv, reload)
        passes += 1
    run.ops_per_pass = run.attempted // passes
    return run


def run_fixed(workload: str, inputs) -> Run:
    """A fixed amount of work, for the traced run's counters."""
    run = Run()
    if workload == "point_queries":
        for i, (kind, argv) in enumerate(inputs):
            query_once(run, i, kind, argv)
    else:
        for key, argv in enumerate(inputs):
            sweep_once(run, key, argv, workload == "shipped_sweep")
    return run


def check_outputs(workload: str, run: Run, inputs, seed: int) -> None:
    """Checks made after the timed or traced work, outside its spans."""
    if workload == "point_queries":
        check_query_identity(run, seed)
        return
    check_identity_sample(run, inputs, seed)
    if workload == "shipped_sweep":
        check_csv_across_runs(run, inputs)


def check_csv_across_runs(run: Run, argvs: list[list[str]]) -> None:
    """Every shipped sweep of one source tree writes the same CSVs, across runs too.

    The first run of a source tree and grid split records the digest of its
    CSVs beside its work directory; later runs compare against it, so a set
    of runs is checked against itself rather than against a fixed hash.
    """
    src = Path(fracineq.__file__).parent
    tree = hashlib.sha256()
    for path in sorted(src.rglob("*")):
        if path.suffix in (".py", ".cfg"):
            tree.update(path.relative_to(src).as_posix().encode() + path.read_bytes())
    for argv in argvs:
        tree.update(Path(argv[argv.index("--config") + 1]).read_bytes())
    out_dir = Path(argvs[0][argvs[0].index("--out") + 1]).parent.parent
    record = out_dir / f"shipped-csv-{tree.hexdigest()[:16]}.sha256"
    digest = hashlib.sha256(b"".join(run.first_csv[k] for k in sorted(run.first_csv))).hexdigest()
    if not record.exists():
        record.write_text(digest)
    elif record.read_text() != digest:
        run.problem(f"shipped CSV differs from the one an earlier run wrote ({record.name})")


def tail(latencies: list[float]) -> tuple[float, str]:
    """Highest of p99/p95/p90/p75 with ten samples beyond it, else the max."""
    xs = sorted(latencies)
    n = len(xs)
    for p in (99, 95, 90, 75):
        beyond = n - math.ceil(n * p / 100)
        if beyond >= 10:
            return xs[n - beyond - 1], f"p{p}"
    return xs[-1], "max"


def summary(run: Run) -> dict:
    """The figures from which `run.py` takes its metrics.

    A pass is one call of every distinct input: the whole grid of a sweep
    workload, family by family, or the whole query pool. Costs are in
    reference units (see `Run`): each input's median cost, then their sum
    over a pass or their median over the inputs. Times are over every call
    as it came.
    """
    def pass_sum(by_input: dict[int, list[float]]) -> float:
        return sum(statistics.median(v) for v in by_input.values())

    tail_s, label = tail(run.calls)
    busy = sum(run.calls) + sum(map(sum, run.reload_times.values()))
    out = {
        "calls": len(run.calls),
        "inputs": len(run.times),
        "call_p50_s": statistics.median(run.calls),
        "call_tail_s": tail_s,
        "tail_label": label,
        "pass_s": pass_sum(run.times),
        "reload_s": pass_sum(run.reload_times) if run.reload_times else None,
        "ops_per_s": run.attempted / busy,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": run.attempted,
        "failed": run.failed,
        "problems": run.problems,
    }
    if run.ref_units:
        costs = [statistics.median(c) for c in run.costs.values()]
        reload_cost = pass_sum(run.reload_costs)
        out.update(
            {
                "ref_unit_s": statistics.median(run.refs),
                "input_cost_p50": statistics.median(costs),
                "input_cost_tail": tail(costs)[0],
                "pass_cost": sum(costs),
                "reload_cost": reload_cost,
                "ops_per_kref": run.ops_per_pass / (sum(costs) + reload_cost) * 1e3,
            }
        )
    return out


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("mode", choices=("setup", "measure", "trace"))
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--work", type=Path, required=True)
    ap.add_argument("--seconds", type=float, default=1.0)
    ap.add_argument("--spans", type=Path)
    args = ap.parse_args(argv)

    src = Path(fracineq.__file__).resolve().parent.parent
    if src != (Path.cwd() / "src").resolve():
        print(f"fracineq imported from {src}, not from this checkout", file=sys.stderr)
        return 2
    inputs = build_inputs(args.workload, args.seed, args.work)
    if args.mode == "setup":
        return 0
    if args.mode == "measure":
        run = run_measure(args.workload, args.seed, inputs, args.seconds)
        check_outputs(args.workload, run, inputs, args.seed)
        print(json.dumps(summary(run)))
        return 0

    from tracer import Tracer

    # untraced passes on each side of the traced one give the tracing overhead
    untraced = run_fixed(args.workload, inputs).calls
    tracer = Tracer()
    tracer.install()
    try:
        run = run_fixed(args.workload, inputs)
    finally:
        tracer.uninstall()
    untraced += run_fixed(args.workload, inputs).calls
    check_outputs(args.workload, run, inputs, args.seed)
    if args.spans is not None:
        tracer.dump(args.spans)
    result = summary(run)
    result["untraced_p50_s"] = statistics.median(untraced)
    result["layers"] = tracer.layer_metrics(IMPORT_S)
    result["missing"] = sorted(tracer.missing)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
