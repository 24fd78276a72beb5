"""Exit codes and output of the command line front end."""

import random
import subprocess
import sys

import pytest

import fracineq.cli as cli
from fracineq.errors import QuadratureToleranceError
from fracineq.hh_core import BOUNDS, FRACTIONAL_BOUNDS, BoundReport, TheoremId
from fracineq.sweep import read_csv

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
            (
                ["bound", "--thm", "t24", "--f", U2, "--a", "0", "--b", "1", "--x", "0.5",
                 "--alpha", "0.5", "--s", "1", "--q", "1e308"],
                "overflow",
            ),
            (
                ["bound", "--thm", "c16", "--f", U2, "--a", "0", "--b", "1", "--x", "0.5",
                 "--s", "1", "--q", "1e308"],
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
            "t24-q-overflow", "c16-q-overflow", "certify-overflow", "hh-overflow",
        ],
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


HOSTILE = ("nan", "inf", "-inf", "1e308", "-1e308", "-0.5", "-3", "")
VALID = {
    "--x": "0.5", "--alpha": "0.5", "--s": "0.5", "--q": "2",
    "--p": "2", "--tol": "1e-8", "--a": "0", "--b": "1",
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
    + [(f"bound --thm {t}", POINT + ("--alpha", "--q", "--p")) for t in ("t22", "t23", "t24")]
    + [(f"bound --thm {c}", POINT + ("--q", "--p")) for c in ("c14", "c15", "c16")]
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
