"""Run a fixed list of one-line mutants of src/ against the tier-1 tests.

    python tools/mutants.py [NAME ...]

Each mutant replaces a piece of one line of src/fracineq, text that must
occur exactly once in its file, in a temporary copy of the checkout, and
runs ``python -m pytest -x -q`` there on the test file its entry names,
one known to kill it, so that the whole list runs in a few minutes. The
copy holds perfbench/ and BENCHMARK.json too, as
tests/test_bench_contract.py imports them. A mutant the tests pass has
survived. Exits 1 unless every mutant applies and a test fails on it.
Names select mutants; none selects all.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "perfbench", "BENCHMARK.json", "pyproject.toml")

ALPHA = "(1.0 + 0.01 * (alpha - 1.0) ** 2) * "
HH, FM, RL, SW, CL = "hh_core.py", "funcmodel.py", "rlint.py", "sweep.py", "cli.py"

# (name, file, the tests/test_*.py file that kills it, text, replacement)
MUTANTS = [
    ("c1 +1%", HH, "rhs_oracle", "return alpha / ((s", "return 1.01 * alpha / ((s"),
    ("c1 +1e-6", HH, "rhs_oracle", "return alpha / ((s", "return (1.0 + 1e-6) * alpha / ((s"),
    ("c2 +1%", HH, "rhs_oracle",
     "return 1.0 / (s + 1.0) - ratio", "return 1.01 * (1.0 / (s + 1.0) - ratio)"),
    ("t21 +1%", HH, "rhs_oracle", "return wa * (c1 * d.x", "return 1.01 * wa * (c1 * d.x"),
    ("t22 +1%", HH, "rhs_oracle",
     "return c3p * (wa * inner_a", "return 1.01 * c3p * (wa * inner_a"),
    ("t23 +1%", HH, "rhs_oracle",
     "return pref * (wa * inner_a", "return 1.01 * pref * (wa * inner_a"),
    ("t23 +1e-6", HH, "rhs_oracle",
     "return pref * (wa * inner_a", "return (1.0 + 1e-6) * pref * (wa * inner_a"),
    ("t24 +1%", HH, "rhs_oracle",
     "return pref * (wa * d.mid_a", "return 1.01 * pref * (wa * d.mid_a"),
    ("t22 looser away from alpha 1", HH, "rhs_oracle",
     "return c3p * (wa * inner_a", "return " + ALPHA + "c3p * (wa * inner_a"),
    ("t23 looser away from alpha 1", HH, "rhs_oracle",
     "return pref * (wa * inner_a", "return " + ALPHA + "pref * (wa * inner_a"),
    ("t24 looser away from alpha 1", HH, "rhs_oracle",
     "return pref * (wa * d.mid_a", "return " + ALPHA + "pref * (wa * d.mid_a"),
    ("c1 huge-order branch dropped", HH, "hh_core",
     "if alpha < 1e300 else", "if alpha < math.inf else"),
    ("c2 huge-order branch dropped", HH, "hh_core", "if alpha > 1e8:", "if alpha > 1e300:"),
    ("span check dropped", FM, "hh_core", "b - a < math.inf", "b - a <= math.inf"),
    ("c3_root log branch dropped", HH, "hh_core",
     "if c3 >= sys.float_info.min else", "if c3 >= 0.0 else"),
    ("sandwich right +1%", HH, "hh_core",
     "right = (fa + fb) / (s + 1.0)", "right = 1.01 * (fa + fb) / (s + 1.0)"),
    ("|f'(a)| and |f'(b)| swapped", HH, "hh_core", "fa, fb = absvals[:2]", "fb, fa = absvals[:2]"),
    ("alpha finiteness dropped", HH, "sweep", "_check_finite(alpha, name)", "pass"),
    ("instance x None accepted", HH, "hh_core", "if self.x is None:", "if False:"),
    ("spec exponents in [-1, 0) accepted", FM, "funcmodel",
     "if exponent < 0.0:", "if exponent < -1.0:"),
    ("powered convex rule widened", FM, "funcmodel",
     "if all(r == 0 or r >= 1 for r in exps):", "if all(r == 0 or r >= 0.5 for r in exps):"),
    ("convex rule widened", FM, "funcmodel",
     "(0 < r and s_exact <= r)", "(0 < r and s_exact <= 2 * r)"),
    ("concave rule widened", FM, "funcmodel", "0 <= exps[0] <= 1:", "0 <= exps[0] <= 2:"),
    ("CERT_TOL x1000", FM, "funcmodel", "CERT_TOL = 1e-10", "CERT_TOL = 1e-7"),
    ("CERT_TOL 1e-13", FM, "funcmodel", "CERT_TOL = 1e-10", "CERT_TOL = 1e-13"),
    ("witness at the smaller endpoint", FM, "funcmodel",
     "_WITNESS[int(np.argmax(g[:2]))]", "_WITNESS[int(np.argmin(g[:2]))]"),
    ("sandwich midpoint index", FM, "hh_core", "self.values[[0, 1, 7]]", "self.values[[0, 1, 6]]"),
    ("wx in place of wy", FM, "funcmodel",
     "combo = wx * gx + wy * gy", "combo = wx * gx + wx * gy"),
    ("_max_abs without abs", FM, "funcmodel", "float(np.abs(v).max())", "float(v.max())"),
    ("seed check down by one", FM, "funcmodel", "if seed < 0:", "if seed < -1:"),
    ("seed check up by one", FM, "funcmodel", "if seed < 0:", "if seed < 1:"),
    ("sample-count check up by one", FM, "funcmodel",
     "samples <= MAX_CERT_SAMPLES:", "samples <= MAX_CERT_SAMPLES + 1:"),
    ("sample-count check down by one", FM, "funcmodel",
     "samples <= MAX_CERT_SAMPLES:", "samples < MAX_CERT_SAMPLES:"),
    ("budget of any type", RL, "rlint",
     "isinstance(self.max_subdivisions, int) and ", ""),
    ("rel_tol x3", RL, "rlint", "rel_tol: float = 1e-10", "rel_tol: float = 3e-10"),
    ("max_subdivisions 500", RL, "rlint",
     "max_subdivisions: int = 2000", "max_subdivisions: int = 500"),
    ("max_subdivisions 1999", RL, "rlint",
     "max_subdivisions: int = 2000", "max_subdivisions: int = 1999"),
    ("max_subdivisions 2001", RL, "rlint",
     "max_subdivisions: int = 2000", "max_subdivisions: int = 2001"),
    ("heap error estimate x0.1", RL, "rlint",
     "lerr, rerr = abs(lval - pleft), abs(rval - pright)",
     "lerr, rerr = 0.1 * abs(lval - pleft), 0.1 * abs(rval - pright)"),
    ("heap error estimate x0.5", RL, "rlint",
     "lerr, rerr = abs(lval - pleft), abs(rval - pright)",
     "lerr, rerr = 0.5 * abs(lval - pleft), 0.5 * abs(rval - pright)"),
    ("table error estimate x0.1", RL, "rlint",
     "verr = abs(vals - popped[:, 3:])", "verr = 0.1 * abs(vals - popped[:, 3:])"),
    ("table error estimate x0.5", RL, "rlint",
     "verr = abs(vals - popped[:, 3:])", "verr = 0.5 * abs(vals - popped[:, 3:])"),
    ("heap convergence test strict", RL, "rlint",
     "elif total_err <= tol:", "elif total_err < tol:"),
    ("table convergence test strict", RL, "rlint", "elif e <= tl:", "elif e < tl:"),
    ("table tol by np.maximum", RL, "rlint",
     "np.where(scaled > atol, scaled, atol)", "np.maximum(atol, scaled)"),
    ("table rel_tol x3", RL, "rlint",
     "scaled = rel_tol * abs(totals)", "scaled = 3.0 * rel_tol * abs(totals)"),
    ("heap budget test off by one", RL, "rlint",
     "elif splits == budget:", "elif splits == budget + 1:"),
    ("table budget test off by one", RL, "rlint",
     "(splits != budget) &", "(splits != budget - 1) &"),
    ("table resolution test loosened", RL, "rlint",
     "(popped[:, 0] < popped[:, 1])", "(popped[:, 0] <= popped[:, 1])"),
    ("table children swapped", RL, "rlint",
     "cuts[:, :3], cuts[:, 2:]", "cuts[:, 2:], cuts[:, :3]"),
    ("table lmid from the wrong cuts", RL, "rlint",
     "0.5 * (popped[:, :2] + popped[:, 1:3])", "0.5 * (popped[:, :2] + popped[:, 2:3])"),
    ("batch abs_tol not tightened past a unit span", RL, "rlint",
     "(cfg.abs_tol / k or 5e-324) if k > 1.0 else cfg.abs_tol", "cfg.abs_tol"),
    ("abs_tol floor dropped", RL, "rlint", "(cfg.abs_tol / k or 5e-324)", "cfg.abs_tol / k"),
    # the substitution v = w^p: its Jacobian's factor p, and p itself
    ("Jacobian factor p dropped", RL, "lhs_oracle",
     "out[i:j] *= p * np.power(v[i:j], p - 1.0)", "out[i:j] *= np.power(v[i:j], p - 1.0)"),
    ("substitution power p off by one", RL, "rlint",
     "p = max(1, math.ceil(8.0 * alpha / (1.0 + alpha)))",
     "p = max(1, math.ceil(8.0 * alpha / (1.0 + alpha))) + 1"),
    ("kernel keeps a -0.0 first term", FM, "funcmodel", "out += 0.0", "pass"),
    ("overflowed weighted sum kept", FM, "funcmodel",
     "if not np.isfinite(combo).all():", "if False:"),
    ("s bound made strict", FM, "funcmodel", "if not 0.0 < s <= 1.0:", "if not 0.0 < s < 1.0:"),
    ("certifier warns before it refuses", FM, "funcmodel",
     'dict(over="ignore", invalid="ignore")', "dict()"),
    ("kernel shift-0 test inverted", FM, "funcmodel",
     "if t.shift != 0.0 else arr", "if t.shift == 0.0 else arr"),
    ("VIOLATION_TOL x1000", SW, "sweep", "VIOLATION_TOL = 1e-9", "VIOLATION_TOL = 1e-6"),
    ("VIOLATION_TOL x1000 in bound", SW, "cli", "VIOLATION_TOL = 1e-9", "VIOLATION_TOL = 1e-6"),
    ("abs dropped from the rule", SW, "cli",
     "-VIOLATION_TOL * (1.0 + abs(rhs))", "-VIOLATION_TOL * (1.0 + rhs)"),
    ("abs dropped from summarize's copy", SW, "cli",
     "-tol * (1.0 + abs(rhs))", "-tol * (1.0 + rhs)"),
    ("_SHRINK_FRACTION x2", SW, "sweep", "_SHRINK_FRACTION = 1e-9", "_SHRINK_FRACTION = 2e-9"),
    ("read_csv parses x once", SW, "sweep", "if x != x0:", "if x0 is None:"),
    ("read_csv parses quad_error_est once", SW, "sweep", "if qerr != qerr0:", "if qerr0 is None:"),
    ("write_csv formats p once", SW, "sweep", "if p is not p0:", "if p0 is _UNSET:"),
    ("derived seed multiplier", SW, "sweep", "0x9E3779B1", "0x9E3779B9"),
    ("grid x-point check dropped", SW, "sweep",
     'for x in _family_xs(f, self.xfracs):', "for x in ():"),
    # an alpha's overflow raised out of the family's whole lhs batch
    ("boundary-term overflow fails the batch", HH, "sweep", "rows[alpha] = exc", "raise exc"),
    ("J-scale overflow fails the batch", HH, "hh_core",
     "isinstance(j, OverflowError)]",
     "isinstance(j, OverflowError) and (_ for _ in ()).throw(j)]"),
    ("Gamma-factor overflow fails the batch", HH, "sweep", "overflows.append(exc)", "raise exc"),
    # the exit code of each verdict and of each error branch of cli.main; the
    # overflow branch's return is not unique text, so the mutant returns first
    ("OverflowError exits 3", CL, "cli",
     "except OverflowError:", "except OverflowError:\n        return int(ExitCode.QUADRATURE)"),
    ("QuadratureToleranceError exits 2", CL, "cli",
     "return int(ExitCode.QUADRATURE)", "return int(ExitCode.USAGE)"),
    ("bound verdict always holds", CL, "cli",
     "if _holds(report.rhs - report.lhs, report.rhs):", "if True:"),
    ("sweep violations exit 0", CL, "cli",
     "return ExitCode.FAILURE if summary.violations else ExitCode.OK", "return ExitCode.OK"),
    # the CLI's derivative shrink: the user's [a, b] checked first, and a
    # note only when a moves
    ("shrink skips the domain check", CL, "cli", "_check_interval(a, b, f.domain)", "pass"),
    ("shrink notes an unmoved a", CL, "cli", "if shrunk == a:", "if g is f:"),
]


def main(names: list[str]) -> int:
    chosen = [m for m in MUTANTS if not names or m[0] in names]
    unknown = set(names) - {m[0] for m in MUTANTS}
    if unknown:
        print(f"unknown mutant(s): {', '.join(sorted(unknown))}")
        return 1
    env = {**os.environ, "PYTHONPATH": "src", "PYTHONDONTWRITEBYTECODE": "1"}
    bad = []
    with tempfile.TemporaryDirectory() as tmp:
        for part in COPIED:
            src = ROOT / part
            if src.is_dir():
                shutil.copytree(src, Path(tmp, part), ignore=shutil.ignore_patterns("__pycache__"))
            else:
                shutil.copy2(src, tmp)
        for name, file, killer, text, replacement in chosen:
            path = Path(tmp, "src", "fracineq", file)
            original = path.read_text()
            if original.count(text) != 1:
                print(f"NOT APPLIED  {name}: {text!r} is not once in {file}")
                bad.append(name)
                continue
            path.write_text(original.replace(text, replacement))
            tests = f"tests/test_{killer}.py"
            t0 = time.perf_counter()
            run = subprocess.run(
                [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", tests],
                cwd=tmp, env=env, capture_output=True, text=True,
            )
            path.write_text(original)
            took = time.perf_counter() - t0
            failed = [ln for ln in run.stdout.splitlines() if ln.startswith("FAILED")]
            if run.returncode == 1 and failed:
                print(f"killed       {name} ({took:.1f} s): {failed[0]}")
                continue
            # pytest exits 1 when a test fails; 0 means the mutant survived,
            # and anything else (a collection error, say) decides nothing
            verdict = "SURVIVED" if run.returncode == 0 else "NO VERDICT"
            print(f"{verdict:12} {name} ({took:.1f} s)")
            print(run.stdout[-2000:])
            bad.append(name)
    print(f"{len(chosen) - len(bad)} of {len(chosen)} mutants killed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
