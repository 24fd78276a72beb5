"""Exit codes and output of the command line front end."""

import contextlib
import io
import math
import random
import subprocess
import sys
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import fracineq.cli as cli
from fracineq.errors import QuadratureToleranceError
from fracineq.funcmodel import FunctionModel
from fracineq.hh_core import BOUNDS, FRACTIONAL_BOUNDS, BoundReport, HHSandwich, TheoremId
from fracineq.sweep import SweepRecord, is_violation, read_csv, summarize

U2 = "1*(u-0)^2 on [0,1]"
SQRT = "1*(u-0)^0.5 on [0,1]"
U400 = "1*(u-0)^400 on [0,10]"  # overflows floats beyond u = 5.9

TINY_CONFIG = """\
alphas = 0.5, 1
svals = 1
xfracs = 0.5
qvals = 2
theorems = t21, hh
family.u2 = 1*(u-0)^2 on [0,1]
"""


class TestIdentityCommand:
    def test_holds(self, capsys):
        code = cli.main(
            ["identity", "--f", U2, "--a", "0", "--b", "1", "--x", "0.5", "--alpha", "0.5"]
        )
        out = capsys.readouterr().out
        assert code == cli.ExitCode.OK
        assert "identity holds" in out
        assert "residual" in out

    def test_tight_tolerance_fails(self, capsys):
        code = cli.main(
            [
                "identity", "--f", U2, "--a", "0", "--b", "1",
                "--x", "0.5", "--alpha", "0.5", "--tol", "1e-16",
            ]
        )
        assert code == cli.ExitCode.FAILURE
        assert "exceeds tolerance" in capsys.readouterr().out

    def test_quadrature_failure_maps_to_exit_3(self, capsys, monkeypatch):
        def boom(inst, cfg):
            raise QuadratureToleranceError(1.0, 1e-3, 1e-10)

        monkeypatch.setattr(cli, "identity_lhs_with_error", boom)
        code = cli.main(
            ["identity", "--f", U2, "--a", "0", "--b", "1", "--x", "0.5", "--alpha", "0.5"]
        )
        assert code == cli.ExitCode.QUADRATURE
        assert "tolerance" in capsys.readouterr().err


class TestBoundCommand:
    def test_t21_holds(self, capsys):
        code = cli.main(
            [
                "bound", "--thm", "t21", "--f", "0.5*(u-0)^2 on [0,1]",
                "--a", "0", "--b", "1", "--x", "0.5", "--alpha", "1", "--s", "1",
            ]
        )
        out = capsys.readouterr().out
        assert code == cli.ExitCode.OK
        assert "bound holds" in out
        assert "hypothesis certified: yes (proved: " in out

    def test_missing_q_is_usage_error(self, capsys):
        code = cli.main(
            [
                "bound", "--thm", "t22", "--f", U2,
                "--a", "0", "--b", "1", "--x", "0.5", "--alpha", "1", "--s", "1",
            ]
        )
        assert code == cli.ExitCode.USAGE
        assert "--q is required" in capsys.readouterr().err

    def test_missing_x_is_usage_error(self):
        code = cli.main(
            ["bound", "--thm", "t21", "--f", U2, "--a", "0", "--b", "1",
             "--alpha", "1", "--s", "1"]
        )
        assert code == cli.ExitCode.USAGE

    def test_missing_alpha_is_usage_error(self):
        code = cli.main(
            ["bound", "--thm", "t21", "--f", U2, "--a", "0", "--b", "1",
             "--x", "0.5", "--s", "1"]
        )
        assert code == cli.ExitCode.USAGE

    def test_classical_rejects_other_orders(self, capsys):
        code = cli.main(
            [
                "bound", "--thm", "c13", "--f", U2, "--a", "0", "--b", "1",
                "--x", "0.5", "--alpha", "2", "--s", "1",
            ]
        )
        assert code == cli.ExitCode.USAGE
        assert "alpha = 1" in capsys.readouterr().err

    def test_classical_accepts_alpha_one(self, capsys):
        code = cli.main(
            [
                "bound", "--thm", "c13", "--f", U2, "--a", "0", "--b", "1",
                "--x", "0.5", "--alpha", "1", "--s", "1",
            ]
        )
        assert code == cli.ExitCode.OK
        assert "bound holds" in capsys.readouterr().out

    def test_convention_note_printed(self, capsys):
        code = cli.main(
            [
                "bound", "--thm", "c16", "--f", U2, "--a", "0", "--b", "1",
                "--x", "0.5", "--s", "1", "--q", "2",
            ]
        )
        out = capsys.readouterr().out
        assert code == cli.ExitCode.OK
        assert "note: endpoint derivative weights" in out
        assert "hypothesis certified: NO" in out

    @pytest.mark.parametrize("tid", list(BOUNDS), ids=lambda t: t.value)
    def test_table_drives_q_rule_and_note(self, tid, capsys):
        spec, thm = BOUNDS[tid], tid.value.lower()
        argv = ["bound", "--thm", thm, "--f", U2, "--a", "0", "--b", "1",
                "--x", "0.5", "--s", "1", "--samples", "500"]
        if tid in FRACTIONAL_BOUNDS:
            argv += ["--alpha", "0.5"]
        code = cli.main(argv)
        err = capsys.readouterr().err
        if spec.q_name is None:
            assert code == cli.ExitCode.OK and err == ""
        else:
            assert code == cli.ExitCode.USAGE
            assert err == f"error: --q is required for {thm}\n"
        cli.main(argv + ["--q", "2"])
        notes = [ln for ln in capsys.readouterr().out.splitlines() if ln.startswith("note:")]
        assert notes == ([spec.note] if spec.note else [])

    def test_notes_belong_to_t22_c14_and_c16(self):
        noted = {t for t, spec in BOUNDS.items() if spec.note is not None}
        assert noted == {TheoremId.T22, TheoremId.C14, TheoremId.C16}
        assert BOUNDS[TheoremId.T22].note == BOUNDS[TheoremId.C14].note

    def test_uncertified_hypothesis_is_reported(self, capsys):
        # concave-side bound on a convex |f'|^q
        code = cli.main(
            [
                "bound", "--thm", "t24", "--f", U2, "--a", "0", "--b", "1",
                "--x", "0.5", "--alpha", "1", "--s", "0.5", "--q", "2",
            ]
        )
        out = capsys.readouterr().out
        assert "hypothesis certified: NO (refuted: " in out
        assert "worst violation" in out and "x=1, y=1, lam=0.5" in out
        assert "not asserted" in out

    def test_violated_bound_maps_to_exit_1(self, capsys, monkeypatch):
        def fake(theorem_id, inst, cfg, samples, seed):
            from fracineq.funcmodel import certify_pointwise

            cert = certify_pointwise(lambda u: 0.0 * u, 0.0, 1.0, 1.0, "convex", 16)
            return BoundReport(
                theorem_id, lhs=2.0, rhs=1.0, margin=-1.0, ratio=2.0,
                params=inst, hypothesis_certified=cert.verdict,
                certification=cert, quad_error_est=0.0,
            )

        monkeypatch.setattr(cli, "bound", fake)
        code = cli.main(
            ["bound", "--thm", "t21", "--f", U2, "--a", "0", "--b", "1",
             "--x", "0.5", "--alpha", "1", "--s", "1"]
        )
        assert code == cli.ExitCode.FAILURE
        assert "VIOLATED" in capsys.readouterr().out

    def test_shrink_note_for_singular_derivative(self, capsys):
        code = cli.main(
            [
                "bound", "--thm", "t21", "--f", SQRT, "--a", "0", "--b", "1",
                "--x", "0.5", "--alpha", "0.5", "--s", "0.5",
            ]
        )
        out = capsys.readouterr().out
        assert code == cli.ExitCode.OK
        assert "note: f' is unbounded at 0" in out

    def test_hh_reports_sandwich(self, capsys):
        code = cli.main(
            ["bound", "--thm", "hh", "--f", U2, "--a", "0", "--b", "1",
             "--s", "0.5", "--alpha", "2"]
        )
        out = capsys.readouterr().out
        assert code == cli.ExitCode.OK
        assert "note: --alpha not used by hh" in out
        assert "sandwich holds" in out
        assert "slack left" in out and "slack right" in out
        assert "hypothesis certified: yes (proved: " in out

    def test_hh_reads_one_point_table(self, capsys, monkeypatch):
        # the certificate and the sandwich read f at the same 14 points:
        # one evaluation there, then the integral's first and only round
        sizes = []
        evaluate = FunctionModel.evaluate

        def counted(self, u):
            sizes.append(np.size(u))
            return evaluate(self, u)

        monkeypatch.setattr(FunctionModel, "evaluate", counted)
        argv = ["bound", "--thm", "hh", "--f", U2, "--a", "0", "--b", "1", "--s", "0.5"]
        assert cli.main(argv) == cli.ExitCode.OK
        assert sizes == [14, 3 * 15]


class TestCertifyCommand:
    def test_certified(self, capsys):
        code = cli.main(["certify", "--f", SQRT, "--s", "0.5", "--mode", "convex"])
        out = capsys.readouterr().out
        assert code == cli.ExitCode.OK
        assert out.rstrip().endswith("certified")
        assert "with s = 0.5 (proved: " in out
        assert "worst triple" not in out

    def test_not_certified(self, capsys):
        code = cli.main(
            ["certify", "--f", "1*(u-0)^0 on [0,1]", "--s", "0.5", "--mode", "concave"]
        )
        out = capsys.readouterr().out
        assert code == cli.ExitCode.FAILURE
        assert "NOT certified" in out
        assert "(refuted: " in out
        assert "worst triple: x=0, y=0, lam=0.5" in out

    def test_sampled_certificate_names_samples_and_seed(self, capsys):
        code = cli.main(
            ["certify", "--f", "1*(u-0)^0.25 on [0.01,1]", "--s", "0.5", "--mode", "convex",
             "--samples", "500", "--seed", "3"]
        )
        out = capsys.readouterr().out
        assert code == cli.ExitCode.OK
        assert "(sampled: 512 triples, seed 3)" in out
        assert "worst triple" in out
        assert out.rstrip().endswith("certified")

    def test_boundary_refutation_names_its_triple(self, capsys):
        code = cli.main(
            ["certify", "--f", SQRT, "--s", "0.75", "--mode", "convex",
             "--samples", "500", "--seed", "3"]
        )
        out = capsys.readouterr().out
        assert code == cli.ExitCode.FAILURE
        assert "(refuted: boundary triple)" in out
        assert "worst triple: x=0, y=1, lam=0.5" in out
        assert out.rstrip().endswith("NOT certified")

    def test_sampled_refutation_names_samples_and_seed(self, capsys):
        # every boundary triple passes; only a drawn triple fails
        code = cli.main(
            ["certify", "--f", "1*(u-0)^3 + -1.5*(u-0)^2 on [0,1]", "--s", "1",
             "--mode", "convex", "--samples", "500", "--seed", "3"]
        )
        out = capsys.readouterr().out
        assert code == cli.ExitCode.FAILURE
        assert "(refuted: 512 triples, seed 3)" in out
        assert out.rstrip().endswith("NOT certified")

    def test_parse_error_is_usage(self, capsys):
        code = cli.main(["certify", "--f", "bogus", "--s", "0.5", "--mode", "convex"])
        assert code == cli.ExitCode.USAGE
        assert "error:" in capsys.readouterr().err


class TestSweepCommand:
    def test_tiny_config_runs_clean(self, capsys, tmp_path):
        cfg = tmp_path / "grid.cfg"
        cfg.write_text(TINY_CONFIG)
        out_csv = tmp_path / "records.csv"
        svg = tmp_path / "scatter.svg"
        code = cli.main(
            [
                "sweep", "--config", str(cfg), "--out", str(out_csv),
                "--summary", "--svg", str(svg),
            ]
        )
        printed = capsys.readouterr().out
        assert code == cli.ExitCode.OK
        assert "wrote 3 records" in printed
        assert "violations = 0" in printed or "violations=0" in printed
        assert len(read_csv(out_csv)) == 3
        assert svg.read_text().startswith("<svg")

    def test_reruns_are_byte_identical(self, tmp_path, capsys):
        cfg = tmp_path / "grid.cfg"
        cfg.write_text(TINY_CONFIG)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert cli.main(["sweep", "--config", str(cfg), "--out", str(p1)]) == 0
        assert cli.main(["sweep", "--config", str(cfg), "--out", str(p2)]) == 0
        capsys.readouterr()
        assert p1.read_bytes() == p2.read_bytes()

    def test_missing_config_file(self, capsys, tmp_path):
        code = cli.main(
            ["sweep", "--config", str(tmp_path / "nope.cfg"), "--out", str(tmp_path / "o.csv")]
        )
        assert code == cli.ExitCode.USAGE

    def test_malformed_config(self, capsys, tmp_path):
        cfg = tmp_path / "grid.cfg"
        cfg.write_text("alphas = zebra\n")
        code = cli.main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "o.csv")])
        assert code == cli.ExitCode.USAGE


_HOSTILE_Q_CONFIG = """\
alphas = 0.5, 1
svals = 0.5, 1
xfracs = 0.25, 0.5
qvals = 2, {q}
theorems = {theorems}
family.u2 = 1*(u-0)^2 on [0,1]
family.u15 = 0.6666666666666666*(u-0)^1.5 on [0.01,1]
"""


@pytest.mark.parametrize(
    "q, theorems, err",
    [
        # the grid applies ProblemInstance's rule for q and its conjugate p:
        # q = 1e17's conjugate rounds to p = 1, and q = inf is refused by
        # name, whichever bounds read c3 (inf ended in "log_gamma requires
        # x > 0, got nan" when one did)
        ("1e17", "t21, t22, t23, t24, hh", "p must satisfy p > 1, got 1.0"),
        ("1e17", "t23", "p must satisfy p > 1, got 1.0"),
        ("1e17", "t21", "p must satisfy p > 1, got 1.0"),
        ("inf", "t21, t22, t23, t24, hh", "q must be finite, got inf"),
        ("inf", "t21, hh", "q must be finite, got inf"),
    ],
)
def test_hostile_q_grid_ends_in_its_first_error(q, theorems, err, capsys, tmp_path):
    cfg = tmp_path / "grid.cfg"
    cfg.write_text(_HOSTILE_Q_CONFIG.format(q=q, theorems=theorems))
    code = cli.main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "out.csv")])
    out, stderr = capsys.readouterr()
    assert code == cli.ExitCode.USAGE
    assert out == ""
    assert stderr.startswith(f"error: {err}") and stderr.count("\n") == 1


_HOSTILE_ALPHA_CONFIG = """\
alphas = {alphas}
svals = 0.5, 1
xfracs = 0, 0.25, 1
qvals = 2, {q}
theorems = t21, t22, t23, t24, hh
family.u2 = 1*(u-0)^2 on [0,1]
family.wide = 1*(u-0)^2 on [0,1000]
"""

_OVERFLOW = "inputs overflow floating point"


@pytest.mark.parametrize(
    "alphas, q, err",
    [
        # the grid refuses q = 1e17, whose conjugate rounds to p = 1, before
        # any alpha overflows; it checks alphas before qvals, so an infinite
        # alpha is its first error
        ("0.5, 200", "1e17", "p must satisfy p > 1, got 1.0"),
        ("200, 0.5", "1e17", "p must satisfy p > 1, got 1.0"),
        ("0.5, inf", "1e17", "alphas must be finite, got inf"),
        ("inf, 0.5", "1e17", "alphas must be finite, got inf"),
        # a sweep integrates every alpha of a family in one batch, yet an
        # alpha that overflows raises only where the loop reaches it
        ("200, 0.5", "3", _OVERFLOW),
        ("0.5, 200", "3", _OVERFLOW),
        ("inf, 0.5", "3", "alphas must be finite, got inf"),
        ("0.5, inf", "3", "alphas must be finite, got inf"),
        # alpha = 200 overflows Gamma(alpha + 1) on every family; 120 only
        # the boundary terms (b - x)^alpha of the wide one, which comes second
        ("120, 0.5", "3", _OVERFLOW),
        ("0.5, 120", "3", _OVERFLOW),
        # below hh_core.ALPHA_MIN c2 and c3 lose their digits: the grid refuses it
        ("0.5, 1e-300", "3", "alphas must be at least 0.0001, got 1e-300"),
        ("9.99e-05, 0.5", "3", "alphas must be at least 0.0001, got 9.99e-05"),
    ],
)
def test_hostile_alpha_grid_ends_in_its_first_error(alphas, q, err, capsys, tmp_path):
    cfg = tmp_path / "grid.cfg"
    cfg.write_text(_HOSTILE_ALPHA_CONFIG.format(alphas=alphas, q=q))
    code = cli.main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "out.csv")])
    out, stderr = capsys.readouterr()
    assert code == cli.ExitCode.USAGE
    assert out == ""
    assert stderr.startswith(f"error: {err}") and stderr.count("\n") == 1


class TestUsage:
    def test_no_arguments(self, capsys):
        assert cli.main([]) == cli.ExitCode.USAGE

    def test_help_exits_zero(self, capsys):
        assert cli.main(["--help"]) == cli.ExitCode.OK
        assert "identity" in capsys.readouterr().out

    def test_unknown_theorem_choice(self, capsys):
        code = cli.main(
            ["bound", "--thm", "t99", "--f", U2, "--a", "0", "--b", "1", "--s", "1"]
        )
        assert code == cli.ExitCode.USAGE

    def test_non_numeric_argument(self, capsys):
        code = cli.main(
            ["identity", "--f", U2, "--a", "zero", "--b", "1", "--x", "0.5", "--alpha", "1"]
        )
        assert code == cli.ExitCode.USAGE


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestHostileInputs:
    """Malformed numbers end in exit 2 and one stderr line, never a traceback.

    A numpy RuntimeWarning is an error here: from a shell it would print
    lines of its own before the error line.
    """

    @pytest.mark.parametrize(
        "argv,needle",
        [
            (
                ["identity", "--f", U2, "--a", "0", "--b", "1", "--x", "0.5",
                 "--alpha", "0.5", "--tol", "nan"],
                "--tol must be finite",
            ),
            (
                ["bound", "--thm", "t22", "--f", U2, "--a", "0", "--b", "1", "--x", "0.5",
                 "--alpha", "0.5", "--s", "1", "--q", "inf"],
                "q must be finite",
            ),
            (
                ["bound", "--thm", "c14", "--f", U2, "--a", "0", "--b", "1", "--x", "0.5",
                 "--s", "1", "--q", "nan"],
                "q must be finite",
            ),
            (
                ["bound", "--thm", "t23", "--f", U2, "--a", "0", "--b", "1", "--x", "0.5",
                 "--alpha", "0.5", "--s", "1", "--q", "2", "--p", "inf"],
                "unrecognized arguments: --p inf",
            ),
            (
                ["bound", "--thm", "t21", "--f", "1*(u-0)^2 on [0,1e200]", "--a", "0",
                 "--b", "1e200", "--x", "5e199", "--alpha", "3", "--s", "1"],
                "overflow",
            ),
            (
                ["identity", "--f", U2, "--a", "0", "--b", "1", "--x", "0.5",
                 "--alpha", "1e300"],
                "overflow",
            ),
            (
                ["bound", "--thm", "t24", "--f", U2, "--a", "0", "--b", "1", "--x", "0.5",
                 "--alpha", "0.5", "--s", "1", "--q", "1e308"],
                "p must satisfy p > 1, got 1.0",
            ),
            (
                ["bound", "--thm", "c16", "--f", U2, "--a", "0", "--b", "1", "--x", "0.5",
                 "--s", "1", "--q", "1e308"],
                "p must satisfy p > 1, got 1.0",
            ),
            (
                ["bound", "--thm", "t24", "--f", U2, "--a", "0", "--b", "1", "--x", "0.5",
                 "--alpha", "0.5", "--s", "1", "--q", "1e15"],
                "overflow",
            ),
            (
                ["bound", "--thm", "c16", "--f", U2, "--a", "0", "--b", "1", "--x", "0.5",
                 "--s", "1", "--q", "1e15"],
                "overflow",
            ),
            (["certify", "--f", U400, "--s", "0.5", "--mode", "convex"], "overflow"),
            (
                ["bound", "--thm", "hh", "--f", U400, "--a", "0", "--b", "10", "--s", "0.5"],
                "overflow",
            ),
        ],
        ids=[
            "tol-nan", "q-inf", "q-nan", "p-inf", "bound-overflow", "alpha-overflow",
            "t24-q-overflow", "c16-q-overflow", "t24-q-1e15-overflow", "c16-q-1e15-overflow",
            "certify-overflow", "hh-overflow",
        ],
    )
    def test_usage_exit_with_one_line(self, argv, needle, capsys):
        code = cli.main(argv)
        err = capsys.readouterr().err
        assert code == cli.ExitCode.USAGE
        assert err.count("\n") == 1 and err.startswith("error: ")
        assert needle in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("thm", ["t21", "t22", "t23", "t24"])
    @pytest.mark.parametrize("alpha", ["1e-300", "9.99e-05"])
    def test_alpha_below_the_floor_is_usage(self, thm, alpha, capsys):
        # below it t21 printed a negative rhs, t22 and t24 used c3 = 1 and
        # t23 a complex rhs, then a traceback
        argv = ["bound", "--thm", thm, "--f", U2, "--a", "0", "--b", "1", "--x", "0.5",
                "--alpha", alpha, "--s", "1"]
        argv += [] if thm == "t21" else ["--q", "1.5"]
        code = cli.main(argv)
        err = capsys.readouterr().err
        assert code == cli.ExitCode.USAGE
        assert err == f"error: alpha must be at least 0.0001, got {alpha}\n"

    def test_repeated_config_key_is_usage(self, capsys, tmp_path):
        cfg = tmp_path / "grid.cfg"
        cfg.write_text(TINY_CONFIG + "alphas = 2\n")
        code = cli.main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "o.csv")])
        err = capsys.readouterr().err
        assert code == cli.ExitCode.USAGE
        assert err == "error: key 'alphas' repeats line 1 (at line 7)\n"


# no rule or boundary triple decides u^0.25 on [0.01, 1]: its certificate
# reaches the sampler
SAMPLED = "1*(u-0)^0.25 on [0.01,1]"
CERTIFYING = {
    "certify": ["certify", "--f", SAMPLED, "--s", "0.5", "--mode", "convex"],
    "t21": ["bound", "--thm", "t21", "--f", SAMPLED, "--a", "0.5", "--b", "1", "--x", "0.7",
            "--alpha", "0.5", "--s", "0.5"],
    "hh": ["bound", "--thm", "hh", "--f", SAMPLED, "--a", "0.5", "--b", "1", "--s", "0.5"],
}


class TestCertifierArguments:
    """A negative seed or too many samples is a usage error on each command
    that certifies; numpy raised ValueError there, which ended in exit 1,
    the inequality-failed code, and a traceback."""

    @pytest.mark.parametrize("command", sorted(CERTIFYING))
    @pytest.mark.parametrize(
        "extra,err",
        [
            (["--seed", "-1"], "error: seed must be >= 0, got -1\n"),
            (["--samples", "1000001"], "error: samples must lie in [0, 1000000], got 1000001\n"),
            (
                ["--samples", "4611686018427387904"],
                "error: samples must lie in [0, 1000000], got 4611686018427387904\n",
            ),
        ],
        ids=["seed", "samples", "samples-2^62"],
    )
    def test_refused_with_one_line(self, command, extra, err, capsys):
        code = cli.main(CERTIFYING[command] + extra)
        assert code == cli.ExitCode.USAGE
        assert capsys.readouterr().err == err

    @pytest.mark.parametrize("command", sorted(CERTIFYING))
    def test_seed_zero_is_accepted(self, command, capsys):
        assert cli.main(CERTIFYING[command] + ["--seed", "0", "--samples", "500"]) == 0
        assert "(sampled: 512 triples, seed 0" in capsys.readouterr().out


HOSTILE = ("nan", "inf", "-inf", "1e308", "-1e308", "-0.5", "-3", "")
VALID = {
    "--x": "0.5", "--alpha": "0.5", "--s": "0.5", "--q": "2",
    "--tol": "1e-8", "--a": "0", "--b": "1",
}
POINT = ("--a", "--b", "--x", "--s")
COMMANDS = (
    [
        ("identity", ("--a", "--b", "--x", "--alpha", "--tol")),
        ("bound --thm t21", POINT + ("--alpha",)),
        ("bound --thm c13", POINT),
        ("bound --thm hh", ("--a", "--b", "--s")),
        ("certify --mode convex", ("--s",)),
    ]
    + [(f"bound --thm {t}", POINT + ("--alpha", "--q")) for t in ("t22", "t23", "t24")]
    + [(f"bound --thm {c}", POINT + ("--q",)) for c in ("c14", "c15", "c16")]
)


def _hostile_argvs(seed, per_command):
    """argv mixing valid values with NaN, inf, huge, negative and empty ones."""
    rng = random.Random(seed)
    argvs = []
    for command, options in COMMANDS:
        for _ in range(per_command):
            argv = command.split() + ["--f", rng.choice((U2, SQRT))]
            if command != "identity":
                argv += ["--samples", "500"]
            for opt in options:
                value = VALID[opt] if rng.random() < 0.75 else rng.choice(HOSTILE)
                # "--x -inf" reaches argparse as a flag, "--x=-inf" as a value
                argv += [f"{opt}={value}"] if rng.random() < 0.5 else [opt, value]
            argvs.append(argv)
    return argvs


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("argv", _hostile_argvs(seed=2026, per_command=16), ids=repr)
def test_hostile_argv_ends_in_exit_code_and_one_line(argv, capsys):
    code = cli.main(argv)
    err = capsys.readouterr().err
    assert code in set(cli.ExitCode)
    assert err == "" or (err.count("\n") == 1 and err.endswith("\n")), err


class TestBoundSlack:
    """lhs may pass rhs by the documented 1e-9 * (1 + |rhs|): over by half of
    that the check holds, over by twice that it fails."""

    SLACK = 1e-9  # written out: a test that reads sweep.VIOLATION_TOL moves with it
    POINT = ["--f", U2, "--a", "0", "--b", "1", "--s", "1"]

    @pytest.mark.parametrize("factor, code", [(0.5, 0), (2.0, 1)])
    def test_bound(self, factor, code, monkeypatch, capsys):
        real = cli.bound

        def over(tid, inst, *args):
            report = real(tid, inst, *args)
            band = self.SLACK * (1.0 + abs(report.rhs))
            return replace(report, lhs=report.rhs + factor * band)

        monkeypatch.setattr(cli, "bound", over)
        argv = ["bound", "--thm", "t21", *self.POINT, "--x", "0.5", "--alpha", "0.5"]
        assert cli.main(argv) == code
        assert capsys.readouterr().out.endswith("bound holds\n" if code == 0 else "bound VIOLATED\n")

    @pytest.mark.parametrize("side", ["left", "right"])
    @pytest.mark.parametrize("factor, code", [(0.5, 0), (2.0, 1)])
    def test_sandwich(self, side, factor, code, monkeypatch, capsys):
        real = cli.hh_sandwich_with_error

        def outside(*args):
            sandwich, err = real(*args)
            left, right = sandwich.left, sandwich.right
            band = self.SLACK * (1.0 + abs(right))
            mid = left - factor * band if side == "left" else right + factor * band
            return sandwich._replace(mid=mid), err

        monkeypatch.setattr(cli, "hh_sandwich_with_error", outside)
        assert cli.main(["bound", "--thm", "hh", *self.POINT]) == code
        capsys.readouterr()


NEG = "-3*(u-0)^0 + 1*(u-0)^1 on [0,1]"  # u - 3: every side of its sandwich is -2.5
FINITE = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def _lhs_rhs(draw):
    """A finite lhs and rhs, negatives included, whose margin rhs - lhs is
    finite and often within a few bands 1e-9 * (1 + |rhs|) of 0."""
    rhs = draw(st.sampled_from((0.0, -0.0, 1.0, -1.0, -2.5, 1e300, -1e300)) | FINITE)
    band = 1e-9 * (1.0 + abs(rhs))
    margin = draw(st.floats(-3.0, 3.0).map(lambda k: k * band) | FINITE)
    lhs = rhs - margin
    assume(math.isfinite(lhs) and math.isfinite(rhs - lhs))
    return lhs, rhs


class TestOneRule:
    """A sweep record's violation, summarize's count of it and the bound
    command's t21 and hh verdicts all read margin >= -1e-9 * (1 + |rhs|)."""

    POINT = ["--f", U2, "--a", "0", "--b", "1", "--s", "1"]

    def _verdicts(self, lhs, rhs):
        """(exit code, last line) of bound --thm t21 reporting this lhs and
        rhs, and of bound --thm hh with this mid and right (and left = -inf,
        so the right slack rhs - lhs is the sandwich's margin)."""
        real = cli.bound

        def fake_bound(*args):
            return replace(real(*args), lhs=lhs, rhs=rhs)

        def fake_sandwich(*args):
            return HHSandwich(-math.inf, lhs, rhs), 0.0

        got = []
        with mock.patch.object(cli, "bound", fake_bound), \
                mock.patch.object(cli, "hh_sandwich_with_error", fake_sandwich):
            for argv in (
                ["bound", "--thm", "t21", *self.POINT, "--x", "0.5", "--alpha", "0.5"],
                ["bound", "--thm", "hh", *self.POINT],
            ):
                out = io.StringIO()
                with contextlib.redirect_stdout(out):
                    code = cli.main(argv)
                got.append((code, out.getvalue().splitlines()[-1]))
        return got

    def test_a_tight_sandwich_below_zero_holds_in_the_sweep_and_in_bound(self, capsys, tmp_path):
        cfg = tmp_path / "neg.cfg"
        cfg.write_text(
            "alphas = 1\nsvals = 1\nxfracs = 0.5\nqvals = 2\ntheorems = hh\n"
            f"family.neg = {NEG}\n"
        )
        code = cli.main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "neg.csv")])
        last = capsys.readouterr().out.splitlines()[-1]
        assert (code, last) == (cli.ExitCode.OK, "certified = 1  errors = 0  violations = 0")
        (row,) = read_csv(tmp_path / "neg.csv")
        assert (row.rhs, row.margin, row.certified) == (-2.5, 0.0, True)
        code = cli.main(["bound", "--thm", "hh", f"--f={NEG}", "--a", "0", "--b", "1", "--s", "1"])
        last = capsys.readouterr().out.splitlines()[-1]
        assert (code, last) == (cli.ExitCode.OK, "sandwich holds")

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(_lhs_rhs(), st.booleans())
    def test_the_sweep_summarize_and_bound_agree(self, lhs_rhs, certified):
        lhs, rhs = lhs_rhs
        rec = SweepRecord(
            "T21", "f", 0.5, 1.0, 0.5, None, None, lhs, rhs, rhs - lhs, 1.0, certified, 0.0
        )
        violated = is_violation(rec)
        assert summarize([rec]).violations == violated
        codes = {code for code, _ in self._verdicts(lhs, rhs)}
        assert len(codes) == 1
        assert violated == (certified and codes == {cli.ExitCode.FAILURE})

    @pytest.mark.parametrize("lhs, rhs", [(math.nan, 1.0), (1.0, math.nan), (math.nan, math.nan)])
    def test_a_nan_lhs_or_rhs_is_violated(self, lhs, rhs):
        assert self._verdicts(lhs, rhs) == [(1, "bound VIOLATED"), (1, "sandwich VIOLATED")]


class TestParserCache:
    """One parser serves every main call of a process, built at the first."""

    ARGVS = (
        ["bound", "--thm", "t99", "--f", U2, "--a", "0", "--b", "1", "--s", "1"],
        [
            "bound", "--thm", "t21", "--f", U2, "--a", "0", "--b", "1",
            "--x", "0.5", "--alpha", "1", "--s", "1",
        ],
        ["--help"],
    )

    def _run_all(self, capsys, fresh: bool) -> list:
        got = []
        for argv in self.ARGVS:
            if fresh:
                cli._build_parser.cache_clear()
            code = cli.main(argv)
            got.append((code, *capsys.readouterr()))
        return got

    def test_one_build_gives_a_fresh_parsers_outputs(self, capsys):
        fresh = self._run_all(capsys, fresh=True)
        cli._build_parser.cache_clear()
        cached = self._run_all(capsys, fresh=False)
        info = cli._build_parser.cache_info()
        assert (info.misses, info.hits) == (1, len(self.ARGVS) - 1)
        assert cached == fresh
        assert [code for code, _, _ in cached] == [
            cli.ExitCode.USAGE, cli.ExitCode.OK, cli.ExitCode.OK
        ]

    def test_importing_builds_no_parser(self):
        proc = subprocess.run(
            [
                sys.executable, "-c",
                "import fracineq.cli as c; print(c._build_parser.cache_info().misses)",
            ],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "0\n"


class TestModuleEntryPoint:
    def test_python_dash_m(self):
        proc = subprocess.run(
            [sys.executable, "-m", "fracineq", "--help"],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 0
        assert "sweep" in proc.stdout
