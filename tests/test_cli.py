"""Command-line interface: exit codes, formats, config parsing, stability."""

import json
import math
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import qwtrap
import qwtrap.cli as cli
from qwtrap.cli import EXIT_CHECK_FAILED, run
from qwtrap.models import ModelReport
from qwtrap.spectral import SpectralReport, is_strongly_trapped

REPO_ROOT = Path(__file__).resolve().parent.parent
R = 1.0 / math.sqrt(2.0)
HADAMARD = f"alpha = {R!r},0\nbeta = {R!r},0\ndelta = 0\n"


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text, header):
    lines = text.strip().splitlines()
    assert lines[0] == header, lines[0]
    return [tuple(float(v) for v in line.split(",")) for line in lines[1:]]


@pytest.fixture
def fig1_config(tmp_path):
    path = tmp_path / "field.ini"
    path.write_text(
        f"[minus]\n{HADAMARD}\n"
        f"[origin]\nalpha = {R!r},0\nbeta = 0,{R!r}\ndelta = 0\n\n"
        f"[plus]\n{HADAMARD}"
    )
    return str(path)


def test_simulate_zero_steps(capsys):
    code, out, _ = invoke(capsys, "simulate", "--steps", "0")
    assert code == 0
    assert out == "x,mass\n0,1\n"


@pytest.mark.parametrize(
    "argv",
    [("simulate", "--steps", "9"), ("limit", "--window", "4"), ("limit", "--window", "3", "--horizon", "200")],
    ids=["simulate", "limit", "limit-horizon"],
)
def test_simulate_formats_agree(capsys, argv):
    # the JSON output is the CSV table as one object per row, keyed by the header
    code, out_csv, _ = invoke(capsys, *argv)
    assert code == 0
    header, *lines = out_csv.splitlines()
    keys = header.split(",")
    rows = [tuple(float(v) for v in line.split(",")) for line in lines]
    code, out_json, _ = invoke(capsys, *argv, "--format", "json")
    assert code == 0
    payload = json.loads(out_json)
    assert [list(entry) for entry in payload] == [keys] * len(rows)
    for row, entry in zip(rows, payload):
        assert entry["x"] == int(row[0]) and isinstance(entry["x"], int)
        for key, value in zip(keys[1:], row[1:]):
            assert abs(entry[key] - value) <= 1e-14
    if argv[0] == "simulate":
        assert abs(sum(row[1] for row in rows) - 1.0) <= 1e-9
        # light cone: the trimmed output spans at most [-t, t]
        xs = [int(row[0]) for row in rows]
        assert min(xs) >= -9 and max(xs) <= 9


def test_simulate_respects_psi_and_rejects_non_unit(capsys):
    code, out, _ = invoke(capsys, "simulate", "--steps", "0", "--psi", "0,0,0,1")
    assert code == 0 and out == "x,mass\n0,1\n"
    code, _, err = invoke(capsys, "simulate", "--psi", "1,0,1,0")
    assert code == 1
    assert "unit norm" in err


def test_non_finite_psi_is_rejected_as_a_flag_error(capsys):
    # NaN compares false with any tolerance, so the norm check must fail on it
    for argv in (("simulate",), ("limit",), ("model", "--id", "1"), ("figure", "--id", "1")):
        for psi in ("nan,0,0,0", "0,0,inf,0"):
            code, out, err = invoke(capsys, *argv, f"--psi={psi}")
            assert code == 1 and out == "", (argv, psi)
            assert "--psi:" in err, (argv, psi, err)


def test_eigen_csv_and_json(capsys):
    code, out, _ = invoke(capsys, "eigen")
    assert code == 0
    rows = parse_csv(out, "lambda")
    assert len(rows) == 4  # fig1 reference field
    code, out_json, _ = invoke(capsys, "eigen", "--format", "json")
    phases = json.loads(out_json)
    assert len(phases) == 4
    for (lam,), ref in zip(rows, phases):
        assert abs(lam - ref) <= 1e-14
    assert phases == sorted(phases)


def test_limit_exact_origin_mass(capsys):
    code, out, _ = invoke(capsys, "limit", "--window", "5")
    assert code == 0
    rows = parse_csv(out, "x,mass")
    masses = {int(x): m for x, m in rows}
    assert abs(masses[0] - 2.0 / 9.0) <= 1e-10
    assert set(masses) == set(range(-5, 6))


def test_limit_with_horizon_columns(capsys):
    code, out, _ = invoke(capsys, "limit", "--window", "3", "--horizon", "200")
    assert code == 0
    rows = parse_csv(out, "x,mass,empirical")
    for _, exact, empirical in rows:
        assert abs(exact - empirical) <= 0.02


def test_config_field_matches_preset(capsys, fig1_config):
    psi = f"{R!r},0,{R!r},0"
    code, out_cfg, _ = invoke(capsys, "limit", "--window", "4", "--config", fig1_config, "--psi", psi)
    assert code == 0
    code, out_ref, _ = invoke(capsys, "limit", "--window", "4")
    assert code == 0
    assert out_cfg == out_ref  # same field, same state, byte-identical table


def test_trap_verdicts(capsys, tmp_path):
    code, out, _ = invoke(capsys, "trap", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["strongly_trapped"] is True
    assert doc["origin_rank"] == 2
    assert len(doc["eigenphases"]) == 4
    assert len(doc["origin_singular_values"]) == 2

    split = tmp_path / "split.ini"
    split.write_text(
        f"[minus]\n{HADAMARD}\n[plus]\nalpha = {R!r},0\nbeta = {R!r},0\ndelta = {math.pi!r}\n"
    )
    code, out, _ = invoke(capsys, "trap", "--format", "json", "--config", str(split))
    assert code == 0
    doc = json.loads(out)
    assert doc["strongly_trapped"] is False
    assert doc["origin_rank"] == 1
    assert len(doc["eigenphases"]) == 2

    code, out, _ = invoke(capsys, "trap", "--config", str(split))
    assert code == 0
    assert out.startswith("key,value\nstrongly_trapped,false\norigin_rank,1\n")


def test_trap_rank_agrees_with_the_verdict(capsys, monkeypatch):
    # origin values [1, 0] and [1, 1.5e-8] are independent for
    # is_strongly_trapped (minor 1.5e-8 > 1e-8), while their second singular
    # value (1.06e-8) sits below a relative threshold of 1e-8 * sqrt(2)
    def pair(lam, origin):
        vec = SimpleNamespace(value=lambda x: origin)
        return SimpleNamespace(lam=lam, vector=lambda: vec)

    pairs = (pair(0.5, (1.0, 0.0)), pair(3.6, (1.0, 1.5e-8)))
    monkeypatch.setattr(cli, "analyze", lambda field: SpectralReport(pairs, is_strongly_trapped(pairs)))
    code, out, _ = invoke(capsys, "trap", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["strongly_trapped"] is True and doc["origin_rank"] == 2
    assert len(doc["origin_singular_values"]) == 2
    code, out, _ = invoke(capsys, "trap")
    assert out.startswith("key,value\nstrongly_trapped,true\norigin_rank,2\n")


def test_model_json_report(capsys):
    code, out, _ = invoke(capsys, "model", "--id", "1", "--format", "json", "--window", "6")
    assert code == 0
    doc = json.loads(out)
    assert doc["model"] == 1 and doc["exists"] is True
    assert doc["trapping_class"] == "strongly_trapped"
    assert len(doc["eigenphases"]) == 4
    origin = next(e for e in doc["limit_distribution"] if e["x"] == 0)
    assert abs(origin["mass"] - 2.0 / 9.0) <= 1e-10
    assert all(abs(c - 1.0) <= 1e-8 for c in doc["norm_corrections"])


def test_model_json_builds_the_limit_profile_once(capsys, monkeypatch):
    calls = []
    original = ModelReport.limit_window

    def counting(self, lo, hi):
        calls.append((lo, hi))
        return original(self, lo, hi)

    monkeypatch.setattr(ModelReport, "limit_window", counting)
    code, out, _ = invoke(capsys, "model", "--id", "1", "--format", "json")
    assert code == 0
    assert len(json.loads(out)["limit_distribution"]) == 41
    assert calls == [(-20, 20)]


def test_model_ids_cover_families(capsys):
    for mid, expect in ((2, True), (3, False), (4, False), (5, True)):
        code, out, _ = invoke(capsys, "model", "--id", str(mid), "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["model"] == mid and doc["exists"] is True
        trapped = doc["trapping_class"] == "strongly_trapped"
        assert trapped is expect, (mid, doc["trapping_class"])


def test_figure_outputs_are_reproducible(tmp_path, capsys):
    def render(sub):
        sub.mkdir()
        out = sub / "fig1.csv"
        code = run(["figure", "--id", "1", "--steps", "40", "--out", str(out), "--svg"])
        capsys.readouterr()
        assert code == 0
        return {p.name: p.read_bytes() for p in sorted(sub.iterdir())}

    first = render(tmp_path / "a")
    second = render(tmp_path / "b")
    assert set(first) == {"fig1.csv", "fig1_arcs.csv", "fig1.svg"}
    assert first == second


def test_derived_outputs_stay_in_a_dotted_directory(tmp_path, capsys):
    # the arcs table and the chart take their extension from the file name,
    # never from a dot in a directory name
    out = tmp_path / "run.d"
    out.mkdir()
    assert run(["figure", "--id", "1", "--steps", "20", "--out", str(out / "fig1"), "--svg"]) == 0
    assert run(["simulate", "--steps", "20", "--out", str(out / "sim"), "--svg"]) == 0
    capsys.readouterr()
    assert sorted(p.name for p in out.iterdir()) == ["fig1", "fig1.svg", "fig1_arcs", "sim", "sim.svg"]
    assert [p.name for p in tmp_path.iterdir()] == ["run.d"]


def test_figure_csv_content(tmp_path, capsys):
    out = tmp_path / "fig4.csv"
    code = run(["figure", "--id", "4", "--steps", "30", "--window", "10", "--out", str(out)])
    capsys.readouterr()
    assert code == 0
    rows = parse_csv(out.read_text(), "x,mass_t30,nu_inf")
    assert len(rows) == 21
    assert all(abs(nu) <= 1e-12 for _, _, nu in rows)  # zero trapped mass
    arc_lines = (tmp_path / "fig4_arcs.csv").read_text().strip().splitlines()
    assert arc_lines[0] == "param,branch,lambda"
    assert len(arc_lines) > 50
    for line in arc_lines[1:]:
        p, branch, lam = line.split(",")
        float(p), float(lam)  # numeric columns parse
        assert branch  # branch tag is non-empty


def test_figure_json_document(capsys):
    code, out, _ = invoke(capsys, "figure", "--id", "2", "--steps", "10", "--window", "4", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["figure"] == 2 and doc["model"] == 2
    assert {e["x"] for e in doc["distribution"]} == set(range(-4, 5))
    assert all(set(a) == {"param", "branch", "lambda"} for a in doc["arcs"])


def test_verify_writes_json_lines(tmp_path, capsys):
    out = tmp_path / "checks.jsonl"
    code = run(["verify", "--horizon", "300", "--window", "8", "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 0
    assert "checks, 0 failed" in captured.err
    lines = out.read_text().strip().splitlines()
    docs = [json.loads(line) for line in lines]
    assert len(docs) == 48
    assert all(d["pass"] is True for d in docs)


def test_verify_exit_code_reports_failed_checks(tmp_path, capsys):
    # steps 2 .. 4 are far too few for the late-window averages to converge
    out = tmp_path / "checks.jsonl"
    code = run(["verify", "--horizon", "5", "--window", "8", "--out", str(out)])
    captured = capsys.readouterr()
    assert code == EXIT_CHECK_FAILED
    assert EXIT_CHECK_FAILED not in (0, 1, 2)  # apart from success and the error codes
    assert "48 checks, 7 failed" in captured.err
    docs = [json.loads(line) for line in out.read_text().strip().splitlines()]
    assert len(docs) == 48 and sum(not d["pass"] for d in docs) == 7


@pytest.mark.parametrize(
    "argv",
    [("model", "--id", "1"), ("figure", "--id", "1"), ("limit",), ("verify",)],
)
def test_negative_window_is_rejected(capsys, tmp_path, argv):
    out = tmp_path / "out.csv"
    code, stdout, err = invoke(capsys, *argv, "--window", "-1", "--out", str(out))
    assert code == 1 and stdout == ""
    assert "argument --window: must be >= 0, got -1" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, flag, value, minimum",
    [
        (("simulate",), "steps", "-1", 0),
        (("figure", "--id", "1"), "steps", "-1", 0),
        (("limit",), "horizon", "0", 1),
        (("verify",), "horizon", "0", 1),
        (("limit",), "horizon", "-5", 1),
    ],
)
def test_out_of_range_steps_and_horizon_are_rejected(capsys, tmp_path, argv, flag, value, minimum):
    out = tmp_path / "out.csv"
    code, stdout, err = invoke(capsys, *argv, f"--{flag}", value, "--out", str(out))
    assert code == 1 and stdout == ""
    assert f"argument --{flag}: must be >= {minimum}, got {value}" in err
    assert not out.exists()


def test_exit_code_one_on_invalid_input(capsys, tmp_path):
    bad = [
        ("model", "--id", "9"),
        ("model",),  # no id
        ("figure", "--id", "0"),
        ("simulate", "--psi", "1,0"),  # not four numbers
        ("simulate", "--psi", "a,b,c,d"),
        ("simulate", "--svg"),  # svg needs --out
        ("simulate", "--config", str(tmp_path / "missing.ini")),
        ("bogus",),  # unknown subcommand
    ]
    for argv in bad:
        code = run(list(argv))
        capsys.readouterr()
        assert code == 1, argv


def test_exit_code_one_on_bad_config(capsys, tmp_path):
    cases = {
        "unknown_section.ini": f"[minus]\n{HADAMARD}\n[plus]\n{HADAMARD}\n[weird]\nalpha = 1,0\nbeta = 0,0\n",
        "missing_alpha.ini": f"[minus]\nbeta = {R!r},0\n\n[plus]\n{HADAMARD}",
        "bad_middle.ini": f"[minus]\n{HADAMARD}\n[plus]\n{HADAMARD}\n[middle_x]\n{HADAMARD}",
        "conflict.ini": f"[minus]\n{HADAMARD}\n[plus]\n{HADAMARD}\n[origin]\n{HADAMARD}\n[middle_0]\n{HADAMARD}",
        "non_unitary.ini": f"[minus]\nalpha = 0.9,0\nbeta = 0.9,0\n\n[plus]\n{HADAMARD}",
        "no_minus.ini": f"[plus]\n{HADAMARD}",
        "bad_delta.ini": f"[minus]\nalpha = {R!r},0\nbeta = {R!r},0\ndelta = zzz\n\n[plus]\n{HADAMARD}",
    }
    for name, body in cases.items():
        path = tmp_path / name
        path.write_text(body)
        code, _, err = invoke(capsys, "eigen", "--config", str(path))
        assert code == 1, name
        assert err.startswith("error:"), name


def test_model_rejects_core_coins_off_the_origin(capsys, fig1_config):
    # a family report describes the single-defect field, not the one the config sets
    path = Path(fig1_config)
    path.write_text(path.read_text() + "\n[middle_3]\nalpha = 0.6,0\nbeta = 0.8,0\n")
    code, out, _ = invoke(capsys, "eigen", "--config", str(path))
    assert code == 0 and out
    code, out, err = invoke(capsys, "model", "--id", "1", "--config", str(path))
    assert code == 1 and out == ""
    assert "[middle_3]" in err and "single-defect" in err


def test_families_3_and_4_reject_an_origin_coin_unlike_plus(capsys, tmp_path):
    # families 3 and 4 take only [minus] and [plus]; a different [origin] would
    # be dropped silently although `trap` on the same file reads it
    plus = f"alpha = {R!r},0\nbeta = {-R!r},0\ndelta = 0\n"
    path = tmp_path / "field.ini"
    path.write_text(f"[minus]\n{HADAMARD}\n[origin]\nalpha = 0.6,0\nbeta = 0,0.8\ndelta = 2.0\n\n[plus]\n{plus}")
    for k in ("3", "4"):
        code, out, err = invoke(capsys, "model", "--id", k, "--config", str(path))
        assert code == 1 and out == "", k
        assert "[origin]" in err and "[plus]" in err, k
    path.write_text(f"[minus]\n{HADAMARD}\n[origin]\n{plus}\n[plus]\n{plus}")
    code, with_origin, _ = invoke(capsys, "model", "--id", "4", "--config", str(path))
    assert code == 0
    path.write_text(f"[minus]\n{HADAMARD}\n[plus]\n{plus}")
    code, without_origin, _ = invoke(capsys, "model", "--id", "4", "--config", str(path))
    assert code == 0 and with_origin == without_origin


def test_model_without_origin_reads_the_plus_coin_at_the_origin(capsys, tmp_path):
    # like every command, `model` reads an unset [origin] as the [plus] coin
    path = tmp_path / "field.ini"
    path.write_text(f"[minus]\n{HADAMARD}\n[plus]\n{HADAMARD}")
    without = {k: invoke(capsys, "model", "--id", k, "--config", str(path)) for k in ("1", "2", "5")}
    path.write_text(f"[minus]\n{HADAMARD}\n[origin]\n{HADAMARD}\n[plus]\n{HADAMARD}")
    for k in ("1", "2"):
        code, with_origin, _ = invoke(capsys, "model", "--id", k, "--config", str(path))
        assert code == 0 and with_origin
        assert without[k][:2] == (0, with_origin), k
    code, out, err = without["5"]
    assert code == 1 and out == ""
    assert "beta_o = 0" in err


def test_middle_0_sets_the_origin_coin_of_a_family(capsys, tmp_path, fig1_config):
    # [middle_0] and [origin] set the same site-0 coin, for `model` as for `eigen`
    as_middle = tmp_path / "middle.ini"
    as_middle.write_text(Path(fig1_config).read_text().replace("[origin]", "[middle_0]"))
    code, with_origin, _ = invoke(capsys, "model", "--id", "1", "--config", fig1_config)
    assert code == 0 and with_origin
    code, with_middle, _ = invoke(capsys, "model", "--id", "1", "--config", str(as_middle))
    assert code == 0 and with_middle == with_origin
    code, out, err = invoke(capsys, "model", "--id", "4", "--config", str(as_middle))
    assert code == 1 and out == ""
    assert "[origin]" in err and "[plus]" in err


def test_exit_code_two_on_degenerate_family(capsys, tmp_path):
    a_o = math.sqrt(1e-13)
    b_o = -math.sqrt(1.0 - 1e-13)
    path = tmp_path / "degenerate.ini"
    path.write_text(
        f"[minus]\n{HADAMARD}\n"
        f"[origin]\nalpha = {a_o!r},0\nbeta = {b_o!r},0\ndelta = 0\n\n"
        f"[plus]\n{HADAMARD}"
    )
    code, _, err = invoke(capsys, "model", "--id", "1", "--config", str(path))
    assert code == 2
    assert err.startswith("error:")


@pytest.mark.parametrize(
    "first, second", [("minus", "MINUS"), ("middle_1", "middle_01"), ("origin", "middle_0")]
)
def test_config_setting_one_coin_twice_is_rejected(capsys, tmp_path, first, second):
    path = tmp_path / "twice.ini"
    sections = dict.fromkeys(["minus", "plus", first, second])  # each name once
    path.write_text("".join(f"[{name}]\n{HADAMARD}\n" for name in sections))
    code, out, err = invoke(capsys, "trap", "--config", str(path))
    assert code == 1 and out == ""
    assert f"[{first}]" in err and f"[{second}]" in err


#: the flags each subcommand reads; every other flag is a usage error
DECLARED_FLAGS = {
    "simulate": {"config", "out", "format", "svg", "steps", "psi"},
    "eigen": {"config", "out", "format"},
    "limit": {"config", "out", "format", "svg", "horizon", "window", "psi"},
    "trap": {"config", "out", "format"},
    "model": {"config", "out", "format", "svg", "window", "id", "psi"},
    "verify": {"out", "horizon", "window"},
    "figure": {"out", "format", "svg", "steps", "window", "id", "psi"},
}
#: a value each flag would accept where it is declared (None for a switch)
FLAG_VALUES = {
    "config": "CONFIG", "out": "OUT", "format": "json", "svg": None, "steps": "3",
    "horizon": "300", "window": "3", "grid": "20000", "tol": "1e-12", "id": "1", "psi": "1,0,0,0",
}
#: arguments that make each subcommand succeed on its own
BASE_ARGV = {"model": ["--id", "1"], "figure": ["--id", "1"]}


def flag_argv(flag, tmp_path, config):
    value = FLAG_VALUES[flag]
    value = {"CONFIG": config, "OUT": str(tmp_path / "out.csv")}.get(value, value)
    return [f"--{flag}"] + ([] if value is None else [value])


@pytest.mark.parametrize("command", sorted(DECLARED_FLAGS))
def test_all_declared_flags_together_succeed(capsys, tmp_path, fig1_config, command):
    argv = [command, *BASE_ARGV.get(command, [])]
    for flag in sorted(DECLARED_FLAGS[command] - {"id"}):
        argv += flag_argv(flag, tmp_path, fig1_config)
    code, _, err = invoke(capsys, *argv)
    assert code == 0, err
    assert (tmp_path / "out.csv").exists()


@pytest.mark.parametrize("command", sorted(DECLARED_FLAGS))
def test_help_lists_exactly_the_declared_flags(capsys, command):
    code, out, _ = invoke(capsys, command, "--help")
    assert code == 0
    assert set(re.findall(r"--([a-z]+)", out)) - {"help"} == DECLARED_FLAGS[command]


@pytest.mark.parametrize(
    "command, flag",
    [(c, f) for c in sorted(DECLARED_FLAGS) for f in sorted(FLAG_VALUES) if f not in DECLARED_FLAGS[c]],
)
def test_undeclared_flag_is_a_usage_error(capsys, tmp_path, fig1_config, command, flag):
    argv = [command, *BASE_ARGV.get(command, []), *flag_argv(flag, tmp_path, fig1_config)]
    code, out, err = invoke(capsys, *argv)
    assert code == 1 and out == ""
    assert f"--{flag}" in err
    assert not list(tmp_path.glob("out*"))


def declared_console_script(name="qwtrap"):
    """The ``module:function`` target of ``[project.scripts].<name>`` in pyproject.toml."""
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    with open(REPO_ROOT / "pyproject.toml", "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"][name]
    module, _, func = target.partition(":")
    return module.strip(), func.strip()


def env_importing_this_qwtrap():
    """Environment whose fresh interpreters import the qwtrap this test did."""
    env = dict(os.environ)
    src_dir = str(Path(qwtrap.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src_dir, env.get("PYTHONPATH")) if p)
    return env


def test_console_entry_point(tmp_path):
    # The declared script target, run in a fresh interpreter that imports the
    # same qwtrap this test did; plus the installed script when one is on PATH.
    module, func = declared_console_script()
    launch = [sys.executable, "-c", f"from {module} import {func}; {func}()"]
    commands = [(launch, env_importing_this_qwtrap())]
    installed = shutil.which("qwtrap")
    if installed:
        commands.append(([installed], None))
    for prefix, cmd_env in commands:
        out = tmp_path / "sim.csv"
        proc = subprocess.run(
            [*prefix, "simulate", "--steps", "4", "--out", str(out)],
            capture_output=True,
            text=True,
            env=cmd_env,
        )
        assert proc.returncode == 0, (prefix, proc.stderr)
        rows = parse_csv(out.read_text(), "x,mass")
        assert abs(sum(m for _, m in rows) - 1.0) <= 1e-9
        out.unlink()
        proc = subprocess.run(
            [*prefix, "model", "--id", "9"], capture_output=True, text=True, env=cmd_env
        )
        assert proc.returncode == 1, (prefix, proc.stderr)


def test_fresh_process_output_matches_in_process(capsys):
    proc = subprocess.run(
        [sys.executable, "-c", "from qwtrap.cli import run; raise SystemExit(run(['eigen']))"],
        capture_output=True,
        text=True,
        env=env_importing_this_qwtrap(),
    )
    assert proc.returncode == 0
    code, out, _ = invoke(capsys, "eigen")
    assert code == 0
    assert proc.stdout == out
