"""Smoke tests for the scripts under ``scripts/``, each run as its own process."""

import os
import subprocess
import sys
from pathlib import Path

import qwtrap
from qwtrap.cli import run

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run_script(name, *args):
    # a fresh interpreter that imports the same qwtrap this test did
    env = dict(os.environ)
    src_dir = str(Path(qwtrap.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src_dir, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / name), *map(str, args)],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return proc


def test_make_figures_matches_cli(tmp_path):
    run_script("make_figures.py", "--ids", 1, "--outdir", tmp_path / "script")
    cli_dir = tmp_path / "cli"
    cli_dir.mkdir()
    assert run(["figure", "--id", "1", "--out", str(cli_dir / "fig1.csv"), "--svg"]) == 0
    for name in ("fig1.csv", "fig1_arcs.csv", "fig1.svg"):
        assert (tmp_path / "script" / name).read_bytes() == (cli_dir / name).read_bytes(), name


def test_trapping_convergence_deviation_shrinks(tmp_path):
    out = tmp_path / "conv.csv"
    proc = run_script("trapping_convergence.py", "--id", 1, "--horizons", 50, 100, "--out", out)
    assert "trapping class strongly_trapped" in proc.stdout
    header, *rows = out.read_text().splitlines()
    assert header == "T,sup_deviation"
    assert [int(r.split(",")[0]) for r in rows] == [50, 100]
    devs = [float(r.split(",")[1]) for r in rows]
    assert 0.0 < devs[1] < devs[0]
