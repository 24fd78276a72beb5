"""Golden digests: the shipped sweep's outputs, a seeded deep grid's CSV and
the printed certificates of single queries.

A change that moves a byte of these outputs updates its digest here and
says why in CHANGES.md. The deep grid is perfbench's `deep_quadrature`
input for seed 101, made by the benchmark worker's own generator.
"""

import hashlib
import sys
from pathlib import Path

import fracineq.cli as cli

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import worker  # noqa: E402

SHIPPED_CSV = "96cf7f96de31b61ae0e8295876e125632828c5d1d84a75042436b41b008a29d2"
SHIPPED_SVG = "b8a5f4b1467e5c187bda4873e906551f6cf24459668f00847e32c6197fc5131e"
# --summary stdout, less the "wrote ... to PATH" lines that name the run's files
SHIPPED_SUMMARY = "0f4ab7b2b1fe505fc305a6984291030c0df9ec0590ed57251570658fdb9505ab"
DEEP_101_CSV = "257c29d78cde0183254e9c0bc2d3720633aab4f7be71ee6b19ea6625b6697752"
# exit code and stdout of each of CERTIFICATE_QUERIES, in order
CERTIFICATES = "8f0997205bdcb387e7b679091c0fa1a82589135e5b274666735d9722c3d096f6"

_U15 = "0.6666666666666666*(u-0)^1.5 on [0.01,1]"  # |f'| = u^0.5
_S025 = "0.8*(u-0)^1.25 on [0.01,1]"  # |f'| = u^0.25
_AB = ["--a", "0.01", "--b", "1"]
_INFLECTED = "1*(u-0)^3 + -1.5*(u-0)^2 on [0,1]"  # only a drawn triple refutes it

# every deciding step of a certificate: proved, refuted by a rule's witness,
# refuted at a boundary triple, sampled, and refuted by a drawn triple
CERTIFICATE_QUERIES = [
    ["certify", "--f", "1*(u-0)^0.5 on [0,1]", "--s", "0.5", "--mode", "convex"],
    ["certify", "--f", "1*(u-0)^2 on [0,1]", "--s", "0.5", "--mode", "concave"],
    ["certify", "--f", "1*(u-0)^0.25 on [0,1]", "--s", "1", "--mode", "convex"],
    ["certify", "--f", "1*(u-0)^0.25 on [0.01,1]", "--s", "0.5", "--mode", "convex"],
    ["certify", "--f", _INFLECTED, "--s", "1", "--mode", "convex",
     "--samples", "500", "--seed", "3"],
    ["bound", "--thm", "t21", "--f", _U15, *_AB, "--x", "0.4", "--alpha", "0.7", "--s", "0.5"],
    ["bound", "--thm", "t21", "--f", _S025, *_AB, "--x", "0.4", "--alpha", "0.7", "--s", "0.5"],
    ["bound", "--thm", "t22", "--f", _U15, *_AB, "--x", "0.4", "--alpha", "1.5", "--s", "1",
     "--q", "1.5"],
    ["bound", "--thm", "t22", "--f", _U15, *_AB, "--x", "0.4", "--alpha", "1.5", "--s", "1",
     "--q", "3"],
    ["bound", "--thm", "t23", "--f", _S025, *_AB, "--x", "0.6", "--alpha", "2", "--s", "0.5",
     "--q", "1.5"],
    ["bound", "--thm", "t24", "--f", _U15, *_AB, "--x", "0.6", "--alpha", "0.5", "--s", "0.5",
     "--q", "2"],
    ["bound", "--thm", "t24", "--f", _U15, *_AB, "--x", "0.6", "--alpha", "0.5", "--s", "1",
     "--q", "2"],
    ["bound", "--thm", "hh", "--f", "1*(u-0)^2 on [0,1]", "--a", "0", "--b", "1", "--s", "1"],
    ["bound", "--thm", "hh", "--f", "1*(u-0)^0.5 on [0,1]", "--a", "0", "--b", "1", "--s", "0.75"],
    ["bound", "--thm", "hh", "--f", _INFLECTED, "--a", "0", "--b", "1", "--s", "1",
     "--samples", "500", "--seed", "3"],
]


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_shipped_sweep_outputs(tmp_path, capsys):
    out, svg = tmp_path / "shipped.csv", tmp_path / "shipped.svg"
    assert cli.main(["sweep", "--out", str(out), "--summary", "--svg", str(svg)]) == 0
    printed = capsys.readouterr().out
    summary = "".join(ln for ln in printed.splitlines(True) if not ln.startswith("wrote "))
    assert _sha256(out.read_bytes()) == SHIPPED_CSV
    assert _sha256(svg.read_bytes()) == SHIPPED_SVG
    assert _sha256(summary.encode()) == SHIPPED_SUMMARY


def test_deep_quadrature_seed_101_csv(tmp_path, capsys):
    cfg, out = tmp_path / "deep.cfg", tmp_path / "deep.csv"
    cfg.write_text(worker.deep_config_text(101))
    assert cli.main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
    capsys.readouterr()
    assert _sha256(out.read_bytes()) == DEEP_101_CSV


def test_printed_certificates(capsys):
    parts = []
    for argv in CERTIFICATE_QUERIES:
        code = cli.main(argv)
        parts.append(f"{code}\n{capsys.readouterr().out}")
    printed = "".join(parts)
    for step in ("proved: ", "refuted: a nonnegative", "refuted: boundary triple",
                 "sampled: 20012 triples", "refuted: 512 triples"):
        assert step in printed
    assert _sha256(printed.encode()) == CERTIFICATES
