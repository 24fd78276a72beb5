"""Golden digests: the shipped sweep's outputs and a seeded deep grid's CSV.

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

SHIPPED_CSV = "64b28d332ff911a60ff3a7609cef449ed56dd0e07d5c3b3b72a9e58402df8e0b"
SHIPPED_SVG = "d274c08d1061541a5a9343d8eb902000d17e3bd1676e3874a19f76d6aab2e87e"
# --summary stdout, less the "wrote ... to PATH" lines that name the run's files
SHIPPED_SUMMARY = "ebfada425534f5afcd6415e2ddf947ed99da700e531f5afd0e7b7d0c2989ccb5"
DEEP_101_CSV = "53d0ee51b3421c5f122c244b092982cf72b9674c2b67bdd4132eeccefcfb13fd"


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
