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

SHIPPED_CSV = "39ef7b061f6f85a0b12efc61a6e5ce6ff7dca7f3aece09d1d02f1ee14f1d06bf"
SHIPPED_SVG = "141e33a93520614aecb7b32b9da6339498707fc54590392655ddc4f83d90693d"
# --summary stdout, less the "wrote ... to PATH" lines that name the run's files
SHIPPED_SUMMARY = "9304a75a19d9ed223c1c2c57739be69e3c646a0ab58dee690f0d760384526574"
DEEP_101_CSV = "a850eb6db5fe4c4c0feade3208f4bcffa53bedcf9a9ed5bbd9ea06e90e806c1b"
# exit code and stdout of each of CERTIFICATE_QUERIES, in order
CERTIFICATES = "3715c0b82232dc3c16222f0291d22af1113cf13ff39ff644e7e682bba4d18e1c"

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
