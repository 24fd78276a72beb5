"""The benchmark worker still runs against the package.

perfbench/worker.py reaches into the package by name: `cli.main`,
`sweep.read_csv`, `summarize` and its `errors` and `violations`,
`grid_from_config_text`, `apply_derivative_shrink`, `standard_grid`,
`standard_config_text`, `hh_core.ProblemInstance`,
`identity_rhs_with_error`, `funcmodel.parse_function` and the model's
`render`, `lo`, `hi` and `has_singular_derivative`. When one of them is
renamed or removed the worker exits non-zero and `perfbench/run.py`
prints no result line. These tests run the worker's own functions,
untraced, on the tiny inputs of perfbench/test_counters.py, so such a
break fails here first. Nothing under perfbench/ is changed by them.
"""

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import worker  # noqa: E402
from test_counters import tiny_inputs  # noqa: E402

# the keys of a measured summary that run.py reads into its result line
MEASURED_KEYS = {
    "shipped_sweep": ("pass_cost", "reload_cost", "reload_s"),
    "deep_quadrature": ("pass_cost",),
    "point_queries": ("input_cost_p50", "input_cost_tail"),
}
COMMON_KEYS = (
    "attempted", "failed", "problems", "peak_rss_mb", "ops_per_s", "ops_per_kref",
    "ref_unit_s", "call_p50_s", "call_tail_s", "tail_label", "calls", "inputs", "pass_s",
)


def _tiny(workload, tmp_path):
    # one directory down, so the shipped-CSV digest record lands in tmp_path
    work = tmp_path / "work"
    work.mkdir()
    return tiny_inputs(workload, work)


@pytest.mark.parametrize("workload", worker.WORKLOADS)
def test_fixed_run_checks_and_summarizes(workload, tmp_path):
    inputs = _tiny(workload, tmp_path)
    run = worker.run_fixed(workload, inputs)
    worker.check_outputs(workload, run, inputs, 7)
    assert run.problems == []
    assert run.attempted > 0 and run.failed == 0
    out = json.loads(json.dumps(worker.summary(run)))
    assert out["attempted"] == run.attempted and out["problems"] == []


@pytest.mark.parametrize("workload", worker.WORKLOADS)
def test_measured_run_has_every_result_key(workload, tmp_path):
    inputs = _tiny(workload, tmp_path)
    run = worker.run_measure(workload, 7, inputs, 0.0)
    worker.check_outputs(workload, run, inputs, 7)
    assert run.problems == []
    out = json.loads(json.dumps(worker.summary(run)))
    for key in COMMON_KEYS + MEASURED_KEYS[workload]:
        assert out[key] is not None, key
