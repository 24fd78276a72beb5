"""The traced run's counters repeat exactly for a fixed seed.

    python3 -m pytest perfbench/test_counters.py -q

Runs each workload's traced path in process on tiny seeded inputs, twice,
and compares every per-layer metric whose unit is a count, a byte count or
a ratio of counts.
"""

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import tracer  # noqa: E402
import worker  # noqa: E402

PER_LAYER = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
EXACT = sorted(m["name"] for m in PER_LAYER if m["unit"] in ("count", "bytes", "ratio"))

TINY_GRID = """\
alphas = 0.5, 2
svals = 0.5, 1
xfracs = 0.25, 0.75
qvals = 2
theorems = t21, t22, t23, t24, hh
family.u2 = 1*(u-0)^2 on [0,1]
family.u15 = 0.6666666666666666*(u-0)^1.5 on [0.01,1]
"""


def tiny_inputs(workload, tmp_path):
    if workload == "point_queries":
        return worker.query_pool(7, per_kind=1)
    if workload == "deep_quadrature":
        return worker.split_by_family(worker.deep_config_text(7, families=1, alphas=2, xfracs=3), tmp_path)
    return worker.split_by_family(TINY_GRID, tmp_path, "--summary", "--svg", str(tmp_path / "s-{k}.svg"))


def traced(workload, inputs):
    t = tracer.Tracer()
    t.install()
    try:
        run = worker.run_fixed(workload, inputs)
    finally:
        t.uninstall()
    return t.layer_metrics(0.0), run


@pytest.mark.parametrize("workload", worker.WORKLOADS)
def test_counters_repeat(workload, tmp_path):
    inputs = tiny_inputs(workload, tmp_path)
    first, run = traced(workload, inputs)
    second, _ = traced(workload, inputs)
    assert not run.problems
    assert first["rlint.panel_evals"] > 0 and first["cli.main_calls"] > 0
    assert {k: first[k] for k in EXACT} == {k: second[k] for k in EXACT}


def test_per_layer_names_match_benchmark_json():
    layers, _ = traced("point_queries", worker.query_pool(7, per_kind=1)[:2])
    names = set(layers) | {"trace.untraced_p50_ms", "trace.overhead_ms"}
    assert names == {m["name"] for m in PER_LAYER}


def test_missing_target_is_unmeasured(monkeypatch, tmp_path):
    monkeypatch.setitem(tracer.TARGETS, "hh_core.rhs_t21", ("fracineq.hh_core", "renamed_rhs"))
    layers, run = traced("deep_quadrature", tiny_inputs("deep_quadrature", tmp_path))
    assert not run.problems
    assert layers["hh_core.rhs_calls"] is None and layers["hh_core.rhs_busy_s"] is None
    assert layers["rlint.panel_evals"] > 0
