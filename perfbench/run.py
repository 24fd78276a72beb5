"""fracineq benchmark: one command, three workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout. It runs the package from `src`, in
child processes limited to one BLAS/OpenMP thread, each a closed loop with
one caller:

- shipped_sweep: `fracineq sweep --summary --svg` on the shipped grid, one
  call per family, then `read_csv` and `summarize` of each CSV written.
- deep_quadrature: `fracineq sweep` on a seeded t21 grid whose families
  have fractional-power kinks at the left endpoint, so quadrature dominates;
  again one call per family.
- point_queries: seeded `bound`, `identity` and `certify` calls, each one
  `cli.main` call in process.

Each call is timed, and a fixed piece of reference work that does not use
fracineq is timed just before and after it. A call's cost is its time in
units of that reference work (`ref`). Costs hold still while the speed of a
shared host swings by up to 2x, so the time metrics are costs:

- call_cost: a sweep of the whole grid (the sum of each family's median
  cost), or one query (the median over the pool of each query's median).
- ops_per_kref: records, or queries, per 1000 ref over one pass of every
  input, reloads included.

setup_s, the median wall time of 9 fresh interpreters importing fracineq
and building the inputs, and peak_rss_mb are as measured.

With `--trace 0` the last line of output is a JSON object whose metrics are
the end-to-end ones of BENCHMARK.json; the lines before it give wall times
and costs under the names of each workload's own metrics. With `--trace 1`
the metrics are the per-layer ones, from a traced run of fixed size that
wraps the public functions of each package module. The same fixed work runs
untraced just before and after it, which gives the tracing overhead. Spans
are written to `.perfbench_out/trace-<workload>.json`.

Every run checks the program's outputs (see worker.py) and exits 1 when a
check fails, and exits 2 without a result when the checkout has no
`src/fracineq`.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text())
SETUP_REPEATS = 9
CHILD_TIMEOUT_S = 150
OUT_DIR = Path(".perfbench_out")

UNITS = {m["name"]: m["unit"] for m in BENCH["end_to_end"] + BENCH["per_layer"]}


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    src = str(Path("src").resolve())
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def worker(mode: str, args, work: Path, *extra: str) -> subprocess.CompletedProcess:
    cmd = [
        sys.executable,
        str(HERE / "worker.py"),
        mode,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--work", str(work),
        *extra,
    ]
    return subprocess.run(
        cmd, env=child_env(), capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
    )


def last_json(proc: subprocess.CompletedProcess) -> dict:
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def setup_seconds(args, work: Path, repeats: int) -> list[float]:
    """Wall times of a fresh interpreter importing fracineq and building inputs."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        proc = worker("setup", args, work)
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"setup exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return times


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def print_table(workload: str, setup_s: float, m: dict) -> None:
    """Each workload's figures under the names of its own metrics.

    Costs are in reference units (see worker.Run); times are as measured,
    host slowdowns included.
    """
    rows = [("setup_s", setup_s, "s"), ("ref_unit_ms", m["ref_unit_s"] * 1e3, "ms (this run's host speed)")]
    if workload == "point_queries":
        n = m["inputs"]
        rows += [
            ("query_p50_ms", m["call_p50_s"] * 1e3, f"ms (of {m['calls']} queries)"),
            ("query_tail_ms", m["call_tail_s"] * 1e3, f"ms ({m['tail_label']} of the same)"),
            ("queries_per_s", m["ops_per_s"], "1/s"),
            ("query_cost_p50", m["input_cost_p50"], f"ref (median of {n} distinct queries' median cost)"),
            ("query_cost_tail", m["input_cost_tail"], "ref (highest percentile with ten queries beyond)"),
            ("queries_per_kref", m["ops_per_kref"], "1/kref"),
        ]
    else:
        rows += [
            ("sweep_s", m["pass_s"], f"s (sum of {m['inputs']} families' median sweep)"),
            ("sweep_cost", m["pass_cost"], "ref (the same in reference units)"),
        ]
        if m["reload_s"] is not None:
            rows += [("reload_s", m["reload_s"], "s"), ("reload_cost", m["reload_cost"], "ref")]
        rows += [
            ("records_per_s", m["ops_per_s"], f"1/s (over {m['calls']} family sweeps)"),
            ("records_per_kref", m["ops_per_kref"], "1/kref"),
        ]
    rows += [
        ("peak_rss_mb", m["peak_rss_mb"], "MB"),
        ("failure_ratio", m["failed"] / m["attempted"], f"({m['failed']} of {m['attempted']})"),
    ]
    for name, value, unit in rows:
        print(f"{workload}  {name:<18} {value:.6g} {unit}")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description="fracineq benchmark")
    ap.add_argument("--workload", required=True, choices=[w["name"] for w in BENCH["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not Path("src/fracineq/__init__.py").is_file():
        print("error: run from the root of a fracineq checkout (no src/fracineq here)", file=sys.stderr)
        return 2

    work = OUT_DIR / f"work-{args.workload}-{os.getpid()}"
    try:
        if args.trace:
            spans = OUT_DIR / f"trace-{args.workload}.json"
            traced = last_json(worker("trace", args, work, "--spans", str(spans)))
            problems = traced["problems"]
            layers = dict(traced["layers"])
            base = traced["untraced_p50_s"] * 1e3
            layers["trace.untraced_p50_ms"] = base
            layers["trace.overhead_ms"] = traced["call_p50_s"] * 1e3 - base
            metrics = {m["name"]: metric(layers[m["name"]], UNITS[m["name"]]) for m in BENCH["per_layer"]}
            for name, m in metrics.items():
                shown = "unmeasured" if m["value"] is None else f"{m['value']:.6g} {m['unit']}"
                print(f"{args.workload}  {name:<28} {shown}")
            for name in traced["missing"]:
                print(f"{args.workload}  unmeasured because {name} is missing")
            result = traced
        else:
            # set-up is timed on both sides of the measured run, so its median
            # samples the machine at two moments
            setups = setup_seconds(args, work, SETUP_REPEATS // 2)
            untraced = last_json(worker("measure", args, work, "--seconds", str(args.seconds)))
            problems = untraced["problems"]
            setups += setup_seconds(args, work, SETUP_REPEATS - len(setups))
            setup_s = statistics.median(setups)
            print_table(args.workload, setup_s, untraced)
            values = {
                "setup_s": setup_s,
                # a sweep of the whole grid, or one query
                "call_cost": untraced["pass_cost" if args.workload != "point_queries" else "input_cost_p50"],
                "ops_per_kref": untraced["ops_per_kref"],
                "peak_rss_mb": untraced["peak_rss_mb"],
            }
            metrics = {k: metric(v, UNITS[k]) for k, v in values.items()}
            result = untraced
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for p in problems:
        print(f"{args.workload}  CHECK FAILED: {p}")
    print(
        json.dumps(
            {
                "correct": not problems,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
