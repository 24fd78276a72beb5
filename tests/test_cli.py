"""Exit codes and output of the command line front end."""

import subprocess
import sys

import pytest

import fracineq.cli as cli
from fracineq.errors import QuadratureToleranceError
from fracineq.hh_core import BoundReport, TheoremId
from fracineq.sweep import read_csv

U2 = "1*(u-0)^2 on [0,1]"
SQRT = "1*(u-0)^0.5 on [0,1]"

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
        def fake(inst, cfg, samples, seed):
            from fracineq.funcmodel import certify_pointwise

            cert = certify_pointwise(lambda u: 0.0 * u, 0.0, 1.0, 1.0, "convex", 16)
            return BoundReport(
                TheoremId.T21, lhs=2.0, rhs=1.0, margin=-1.0, ratio=2.0,
                params=inst, hypothesis_certified=cert.verdict,
                certification=cert, quad_error_est=0.0,
            )

        monkeypatch.setitem(cli._FRACTIONAL, "t21", fake)
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
            ["certify", "--f", SQRT, "--s", "0.75", "--mode", "convex",
             "--samples", "500", "--seed", "3"]
        )
        out = capsys.readouterr().out
        assert code == cli.ExitCode.FAILURE
        assert "(sampled: 512 triples, seed 3)" in out
        assert "worst triple" in out
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


class TestHostileInputs:
    """Malformed numbers end in exit 2 and one stderr line, never a traceback."""

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
                "p must be finite",
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
        ],
        ids=["tol-nan", "q-inf", "q-nan", "p-inf", "bound-overflow", "alpha-overflow"],
    )
    def test_usage_exit_with_one_line(self, argv, needle, capsys):
        code = cli.main(argv)
        err = capsys.readouterr().err
        assert code == cli.ExitCode.USAGE
        assert err.count("\n") == 1 and err.startswith("error: ")
        assert needle in err
        assert "Traceback" not in err

    def test_repeated_config_key_is_usage(self, capsys, tmp_path):
        cfg = tmp_path / "grid.cfg"
        cfg.write_text(TINY_CONFIG + "alphas = 2\n")
        code = cli.main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "o.csv")])
        err = capsys.readouterr().err
        assert code == cli.ExitCode.USAGE
        assert err == "error: key 'alphas' repeats line 1 (at line 7)\n"


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
