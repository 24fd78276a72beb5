"""Span tracer that measures fracineq's layers from outside the package.

`Tracer.install` replaces each public function a layer exposes with a
wrapper, everywhere a fracineq module holds a reference to it: module
attributes, module-level dispatch dicts and class attributes. So
`rlint.integrate_adaptive` is wrapped both as `hh_core` and as `rlint` see
it. Each wrapper records a span (name, start, end, parent span) and counts
work at the same boundary. Spans stay in memory until `dump` writes them.

A wrap target that no longer exists (say after a rename) is recorded as
missing, and every metric that depends on it is reported as unmeasured
(value None) instead of failing the run.
"""

from __future__ import annotations

import importlib
import json
import os
import statistics
import sys
from collections import Counter
from time import perf_counter

# span name -> (module, attribute path). The span's layer is its prefix.
TARGETS = {
    "cli.main": ("fracineq.cli", "main"),
    "sweep.run_sweep": ("fracineq.sweep", "run_sweep"),
    "sweep.write_csv": ("fracineq.sweep", "write_csv"),
    "sweep.read_csv": ("fracineq.sweep", "read_csv"),
    "sweep.summarize": ("fracineq.sweep", "summarize"),
    "sweep.render_svg": ("fracineq.sweep", "render_svg"),
    "sweep.grid_from_config_text": ("fracineq.sweep", "grid_from_config_text"),
    "sweep.apply_derivative_shrink": ("fracineq.sweep", "apply_derivative_shrink"),
    "sweep.standard_config_text": ("fracineq.sweep", "standard_config_text"),
    "hh_core.identity_lhs_with_error": ("fracineq.hh_core", "identity_lhs_with_error"),
    "hh_core.identity_rhs_with_error": ("fracineq.hh_core", "identity_rhs_with_error"),
    "hh_core.rhs_t21": ("fracineq.hh_core", "rhs_t21"),
    "hh_core.rhs_t22": ("fracineq.hh_core", "rhs_t22"),
    "hh_core.rhs_t23": ("fracineq.hh_core", "rhs_t23"),
    "hh_core.rhs_t24": ("fracineq.hh_core", "rhs_t24"),
    "hh_core.bound_t21": ("fracineq.hh_core", "bound_t21"),
    "hh_core.bound_t22": ("fracineq.hh_core", "bound_t22"),
    "hh_core.bound_t23": ("fracineq.hh_core", "bound_t23"),
    "hh_core.bound_t24": ("fracineq.hh_core", "bound_t24"),
    "hh_core.bound_classical": ("fracineq.hh_core", "bound_classical"),
    "hh_core.hh_sandwich_with_error": ("fracineq.hh_core", "hh_sandwich_with_error"),
    "hh_core.ProblemInstance": ("fracineq.hh_core", "ProblemInstance.__post_init__"),
    "rlint.integrate_adaptive": ("fracineq.rlint", "integrate_adaptive"),
    "rlint.rl_left_with_error": ("fracineq.rlint", "rl_left_with_error"),
    "rlint.rl_right_with_error": ("fracineq.rlint", "rl_right_with_error"),
    "funcmodel.certify_pointwise": ("fracineq.funcmodel", "certify_pointwise"),
    "funcmodel.evaluate": ("fracineq.funcmodel", "FunctionModel.evaluate"),
    "funcmodel.derivative": ("fracineq.funcmodel", "FunctionModel.derivative"),
    "funcmodel.parse_function": ("fracineq.funcmodel", "parse_function"),
    "specfun.log_gamma": ("fracineq.specfun", "log_gamma"),
}

# span name -> (counter, amount) from a call's result and positional arguments
WORK = {
    "funcmodel.certify_pointwise": lambda out, args: ("funcmodel.certify_triples", out.samples),
    "funcmodel.evaluate": lambda out, args: ("funcmodel.evaluate_points", getattr(out, "size", 1)),
    "sweep.run_sweep": lambda out, args: ("sweep.records", len(out)),
    "sweep.write_csv": lambda out, args: ("sweep.csv_bytes", os.path.getsize(args[1])),
    "cli.main": lambda out, args: (f"cli.exit_{int(out)}", 1),
}

RHS = ("hh_core.rhs_t21", "hh_core.rhs_t22", "hh_core.rhs_t23", "hh_core.rhs_t24")
BOUNDS = (
    "hh_core.bound_t21",
    "hh_core.bound_t22",
    "hh_core.bound_t23",
    "hh_core.bound_t24",
    "hh_core.bound_classical",
)
GRID_PARSE = (
    "sweep.grid_from_config_text",
    "sweep.apply_derivative_shrink",
    "sweep.standard_config_text",
)


def _resolve(module: str, path: str):
    """(owner, object) for a dotted attribute path, or None."""
    owner = importlib.import_module(module)
    *outer, name = path.split(".")
    for part in outer:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    obj = getattr(owner, name, None)
    return None if obj is None else (owner, obj)


class Tracer:
    """Spans and boundary counters for one traced run."""

    def __init__(self) -> None:
        self.span_name: list[str] = []
        self.span_parent: list[int] = []
        self.span_start: list[float] = []
        self.span_end: list[float] = []
        self._stack: list[int] = []
        self.counts: Counter = Counter()
        self.splits: list[int] = []
        self.missing: set[str] = set()
        self._undo: list = []

    # -- recording ---------------------------------------------------------

    def _wrap(self, name: str, fn, after=None, before=None):
        names, parents, starts, ends, stack, counts = (
            self.span_name,
            self.span_parent,
            self.span_start,
            self.span_end,
            self._stack,
            self.counts,
        )

        def wrapper(*args, **kwargs):
            if before is not None:
                args, kwargs = before(args, kwargs)
            idx = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                counts[f"{name}.raised.{type(exc).__name__}"] += 1
                raise
            finally:
                ends[idx] = perf_counter()
                stack.pop()
            if after is not None:
                after(result, args, kwargs)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _integrate_args(self, args, kwargs):
        # count panels at the integrand boundary; a panel is identified by
        # its first and last node, so reused panels count once for splits
        fn, *rest = args
        panels: set = set()
        counts = self.counts

        def counted(v):
            counts["rlint.panel_evals"] += 1
            counts["rlint.integrand_points"] += v.size
            panels.add((float(v.flat[0]), float(v.flat[-1])))
            return fn(v)

        self._panels = panels
        return (counted, *rest), kwargs

    def _integrate_after(self, result, args, kwargs):
        # the panel tree of S splits evaluates its 2S+1 nodes plus two halves
        # per leaf: 4S + 3 distinct panels
        if self._panels:
            self.splits.append((len(self._panels) - 3) // 4)

    def _counting(self, work):
        counts = self.counts

        def after(result, args, kwargs):
            key, amount = work(result, args)
            counts[key] += amount

        return after

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap every target that exists; record the ones that do not."""
        modules = [m for k, m in sorted(sys.modules.items()) if k.startswith("fracineq")]
        for name, (module, path) in TARGETS.items():
            found = _resolve(module, path)
            if found is None:
                self.missing.add(name)
                continue
            owner, orig = found
            if name == "rlint.integrate_adaptive":
                wrapper = self._wrap(name, orig, self._integrate_after, self._integrate_args)
            else:
                work = WORK.get(name)
                wrapper = self._wrap(name, orig, work and self._counting(work))
            holders = modules + [owner] if isinstance(owner, type) else modules
            for holder in holders:
                self._replace_in(holder, orig, wrapper)

    def _replace_in(self, holder, orig, wrapper) -> None:
        for key, value in list(vars(holder).items()):
            if value is orig:
                setattr(holder, key, wrapper)
                self._undo.append((setattr, holder, key, orig))
            elif isinstance(value, dict) and not isinstance(holder, type):
                for dkey, dvalue in list(value.items()):
                    if dvalue is orig:
                        value[dkey] = wrapper
                        self._undo.append((dict.__setitem__, value, dkey, orig))

    def uninstall(self) -> None:
        for setter, holder, key, orig in reversed(self._undo):
            setter(holder, key, orig)
        self._undo.clear()

    # -- reduction ---------------------------------------------------------

    def _durations(self) -> tuple[list[float], list[float]]:
        """(duration, self time) per span."""
        dur = [e - s for s, e in zip(self.span_start, self.span_end)]
        child = [0.0] * len(dur)
        for i, p in enumerate(self.span_parent):
            if p >= 0:
                child[p] += dur[i]
        return dur, [d - c for d, c in zip(dur, child)]

    def layer_metrics(self, import_s: float) -> dict[str, float | None]:
        """Every per-layer metric; None marks one whose target is missing."""
        dur, self_t = self._durations()
        names, parents = self.span_name, self.span_parent
        calls = Counter(names)
        c = self.counts

        def total(of, times):
            return sum(t for n, t in zip(names, times) if n in of)

        def busy(of):
            # time inside spans of `of`, not counting spans nested in another
            return sum(
                d
                for n, p, d in zip(names, parents, dur)
                if n in of and (p < 0 or names[p] not in of)
            )

        def n(*of):
            return sum(calls[x] for x in of)

        def ratio(num, den):
            return num / den if den else 0.0

        rlint = {"rlint.integrate_adaptive"}
        metrics = {
            "rlint.integrate_calls": (n("rlint.integrate_adaptive"), rlint),
            "rlint.panel_evals": (c["rlint.panel_evals"], rlint),
            "rlint.integrand_points": (c["rlint.integrand_points"], rlint),
            "rlint.splits_p50": (
                statistics.median(self.splits) if self.splits else 0.0,
                rlint,
            ),
            "rlint.splits_max": (max(self.splits, default=0), rlint),
            "rlint.busy_s": (
                busy({"rlint.integrate_adaptive", "rlint.rl_left_with_error",
                      "rlint.rl_right_with_error"}),
                rlint | {"rlint.rl_left_with_error", "rlint.rl_right_with_error"},
            ),
            "rlint.tolerance_failures": (
                c["rlint.integrate_adaptive.raised.QuadratureToleranceError"],
                rlint,
            ),
            "funcmodel.certify_calls": (
                n("funcmodel.certify_pointwise"),
                {"funcmodel.certify_pointwise"},
            ),
            "funcmodel.certify_triples": (
                c["funcmodel.certify_triples"],
                {"funcmodel.certify_pointwise"},
            ),
            "funcmodel.certify_busy_s": (
                busy({"funcmodel.certify_pointwise"}),
                {"funcmodel.certify_pointwise"},
            ),
            "funcmodel.evaluate_calls": (n("funcmodel.evaluate"), {"funcmodel.evaluate"}),
            "funcmodel.evaluate_points": (
                c["funcmodel.evaluate_points"],
                {"funcmodel.evaluate"},
            ),
            "funcmodel.evaluate_busy_s": (
                busy({"funcmodel.evaluate"}),
                {"funcmodel.evaluate"},
            ),
            "funcmodel.derivative_calls": (
                n("funcmodel.derivative"),
                {"funcmodel.derivative"},
            ),
            "funcmodel.parse_calls": (
                n("funcmodel.parse_function"),
                {"funcmodel.parse_function"},
            ),
            "hh_core.identity_lhs_calls": (
                n("hh_core.identity_lhs_with_error"),
                {"hh_core.identity_lhs_with_error"},
            ),
            "hh_core.identity_lhs_self_s": (
                total({"hh_core.identity_lhs_with_error"}, self_t),
                {"hh_core.identity_lhs_with_error"},
            ),
            "hh_core.rhs_calls": (n(*RHS), set(RHS)),
            "hh_core.rhs_busy_s": (busy(set(RHS)), set(RHS)),
            "hh_core.sandwich_calls": (
                n("hh_core.hh_sandwich_with_error"),
                {"hh_core.hh_sandwich_with_error"},
            ),
            "hh_core.bound_calls": (n(*BOUNDS), set(BOUNDS)),
            "hh_core.bound_self_s": (total(set(BOUNDS), self_t), set(BOUNDS)),
            "hh_core.instances": (
                n("hh_core.ProblemInstance"),
                {"hh_core.ProblemInstance"},
            ),
            "specfun.log_gamma_calls": (n("specfun.log_gamma"), {"specfun.log_gamma"}),
            "sweep.records": (c["sweep.records"], {"sweep.run_sweep"}),
            "sweep.self_s": (total({"sweep.run_sweep"}, self_t), {"sweep.run_sweep"}),
            "sweep.lhs_reuse": (
                ratio(c["sweep.records"], n("hh_core.identity_lhs_with_error")),
                {"sweep.run_sweep", "hh_core.identity_lhs_with_error"},
            ),
            "sweep.cert_reuse": (
                ratio(c["sweep.records"], n("funcmodel.certify_pointwise")),
                {"sweep.run_sweep", "funcmodel.certify_pointwise"},
            ),
            "sweep.write_csv_s": (total({"sweep.write_csv"}, dur), {"sweep.write_csv"}),
            "sweep.csv_bytes": (c["sweep.csv_bytes"], {"sweep.write_csv"}),
            "sweep.summarize_s": (total({"sweep.summarize"}, dur), {"sweep.summarize"}),
            "sweep.render_svg_s": (
                total({"sweep.render_svg"}, dur),
                {"sweep.render_svg"},
            ),
            "sweep.grid_parse_s": (busy(set(GRID_PARSE)), set(GRID_PARSE)),
            "sweep.read_csv_s": (total({"sweep.read_csv"}, dur), {"sweep.read_csv"}),
            "cli.import_s": (import_s, set()),
            "cli.main_calls": (n("cli.main"), {"cli.main"}),
            "cli.self_s": (total({"cli.main"}, self_t), {"cli.main"}),
        }
        for code in range(4):
            metrics[f"cli.exit_{code}"] = (c[f"cli.exit_{code}"], {"cli.main"})
        return {
            name: (None if needs & self.missing else value)
            for name, (value, needs) in metrics.items()
        }

    def dump(self, path) -> None:
        """Write every span as JSON columns; times are seconds from the first."""
        t0 = self.span_start[0] if self.span_start else 0.0
        table = sorted(set(self.span_name))
        index = {name: i for i, name in enumerate(table)}
        doc = {
            "names": table,
            "missing": sorted(self.missing),
            "spans": {
                "name": [index[n] for n in self.span_name],
                "start": [round(s - t0, 9) for s in self.span_start],
                "end": [round(e - t0, 9) for e in self.span_end],
                "parent": self.span_parent,
            },
        }
        with open(path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))
