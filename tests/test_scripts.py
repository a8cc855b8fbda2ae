"""Smoke tests for the scripts under ``scripts/``, each run as its own process."""

import json
import os
import subprocess
import sys
from pathlib import Path

import qwtrap
from qwtrap.cli import run

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run_script(name, *args, status=0):
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
    assert proc.returncode == status, proc.stderr
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
    proc = run_script("trapping_convergence.py", "--id", 1, "--horizons", 50, 100, 1000, "--out", out)
    assert "trapping class strongly_trapped" in proc.stdout
    header, *rows = out.read_text().splitlines()
    assert header == "T,sup_deviation,late_deviation"
    assert [int(r.split(",")[0]) for r in rows] == [50, 100, 1000]
    devs = [float(r.split(",")[1]) for r in rows]
    assert 0.0 < devs[1] < devs[0]
    # the late window cancels the plain average's 1/T term: 3.96e-5 against 4.67e-4
    late = float(rows[2].split(",")[2])
    assert 0.0 < late < devs[2] / 5


def test_solver_survey_on_the_presets(tmp_path):
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    proc = run_script("solver_survey.py", "--presets-only", "--out", first)
    assert proc.stdout.startswith("7 fields, 20 phases, 0 unpaired, 0 uncertified, 3 strongly trapped;")
    rows = json.loads(first.read_text())
    assert [r["field"] for r in rows] == [f"preset {k}" for k in range(1, 8)]
    assert [len(r["phases"]) for r in rows] == [4, 2, 4, 2, 2, 2, 4]
    assert [r["strongly_trapped"] for r in rows] == [True, False, True, False, False, False, True]
    proc = run_script("solver_survey.py", "--presets-only", "--out", second, "--compare", first)
    assert "0 count differences, 0 verdict differences, largest phase gap 0," in proc.stdout
    assert not any("unpaired roots" in line for line in proc.stdout.splitlines())
    # a survey with one root fewer and a flipped verdict is reported, with exit
    # status 1; the dropped root's partner (2.526 for 5.668) is listed unpaired
    rows[0]["phases"].pop()
    rows[1]["strongly_trapped"] = True
    first.write_text(json.dumps(rows))
    proc = run_script("solver_survey.py", "--presets-only", "--out", second, "--compare", first, status=1)
    assert "count differs: preset 1" in proc.stdout and "verdict differs: preset 2" in proc.stdout
    assert proc.stdout.splitlines()[-1] == f"  unpaired roots: preset 1: 0 here, 1 in {first}"
    # a phase moved 1e-6 off its root is listed uncertified, and it and its
    # partner unpaired; the gap alone sets exit status 1
    rows = json.loads(second.read_text())
    rows[2]["phases"][0] += 1e-6
    first.write_text(json.dumps(rows))
    proc = run_script("solver_survey.py", "--presets-only", "--out", second, "--compare", first, status=1)
    assert "0 count differences, 0 verdict differences, largest phase gap 1e-06," in proc.stdout
    assert proc.stdout.splitlines()[-2:] == [
        f"  unpaired roots: preset 3: 0 here, 2 in {first}",
        f"  uncertified roots: preset 3: 0 here, 1 in {first}",
    ]


def test_walk_timing_prints_each_kernel_and_horizon():
    proc = run_script("walk_timing.py", "--id", 2, "--horizons", 5, 20)
    rows = [line.split() for line in proc.stdout.splitlines()[2:]]
    assert [(r[0], int(r[1])) for r in rows] == [
        ("evolve", 5), ("evolve", 20), ("time_averaged", 5), ("time_averaged", 20)
    ]
    for _, horizon, ms, us_per_step in rows:
        assert float(ms) > 0.0
        # the same time in both columns, up to the rounding of each
        assert abs(float(us_per_step) * int(horizon) / 1e3 - float(ms)) <= 5e-4 + 5e-3 * int(horizon) / 1e3


def test_walk_timing_runs_a_single_defect_field_of_given_modulus():
    proc = run_script("walk_timing.py", "--modulus", 0.3, "--horizons", 5)
    assert proc.stdout.splitlines()[0] == "single defect, |alpha| = 0.3: best of 5"
    rows = [line.split() for line in proc.stdout.splitlines()[2:]]
    assert [(r[0], int(r[1])) for r in rows] == [("evolve", 5), ("time_averaged", 5)]
    for value in ("0", "1.5"):
        assert "must be in (0, 1]" in run_script("walk_timing.py", "--modulus", value, status=2).stderr
