"""Cross-validation harness: report semantics, ordering, determinism."""

import dataclasses
import io
import json
import math

import pytest

import qwtrap.spectral as spectral
import qwtrap.verification as verification
from qwtrap.algebra import TWO_PI, make_coin
from qwtrap.figures import PRESETS, preset
from qwtrap.models import ModelReport, TrappingClass
from qwtrap.spectral import RESIDUAL_ACCEPT, analyze, eigen_residual, limit_distribution
from qwtrap.verification import (
    CheckReport,
    check_eigen_residuals,
    check_limit_vs_simulation,
    phase_gap,
    run_all,
    write_reports,
)
from qwtrap.walk import WalkState

HORIZON = 400
WINDOW = 10


@pytest.fixture(scope="module")
def battery():
    return run_all(horizon=HORIZON, window=WINDOW)


def test_check_report_pass_semantics():
    assert CheckReport("n", "l", 0.5, 1.0).passed
    assert CheckReport("n", "l", 1.0, 1.0).passed  # boundary counts as pass
    assert not CheckReport("n", "l", 1.0 + 1e-15, 1.0).passed
    assert not CheckReport("n", "l", math.inf, 1.0).passed
    assert not CheckReport("n", "l", math.nan, 1.0).passed


def test_check_report_json_round_trip():
    rep = CheckReport("eigen_residual", "fig1[0]", 2.5e-12, 1e-9)
    data = json.loads(rep.to_json())
    assert data == {
        "name": "eigen_residual",
        "label": "fig1[0]",
        "metric": 2.5e-12,
        "threshold": 1e-9,
        "pass": True,
    }


def test_write_reports_json_lines():
    reps = (
        CheckReport("a", "x", 0.0, 1.0),
        CheckReport("b", "y", 2.0, 1.0),
    )
    buf = io.StringIO()
    write_reports(reps, buf)
    lines = buf.getvalue().splitlines()
    assert len(lines) == 2
    parsed = [json.loads(line) for line in lines]
    assert parsed[0]["name"] == "a" and parsed[0]["pass"] is True
    assert parsed[1]["name"] == "b" and parsed[1]["pass"] is False


def test_eigen_residuals_on_figure_phases(closed_of):
    rep = closed_of(1)
    checks = check_eigen_residuals(rep.field, rep.eigenphases, "fig1")
    assert len(checks) == 4
    assert all(c.passed for c in checks)
    assert [c.label for c in checks] == [f"fig1[{k}]" for k in range(4)]
    assert all(math.isfinite(c.metric) for c in checks)


def test_eigen_residuals_fail_off_eigenphase(closed_of):
    rep = closed_of(1)
    shifted = [lam + 1e-3 for lam in rep.eigenphases]
    checks = check_eigen_residuals(rep.field, shifted, "bad")
    assert all(not c.passed for c in checks)


def test_eigen_residuals_empty_phase_list(closed_of):
    assert check_eigen_residuals(closed_of(1).field, [], "none") == ()


def limit_of(pairs, psi):
    return limit_distribution(pairs, WalkState.point(*psi), window=(-WINDOW, WINDOW))


def test_limit_vs_simulation_single(closed_of, spectral_of):
    rep = closed_of(1)
    exact = limit_of(spectral_of(1).eigenpairs, rep.psi)
    check = check_limit_vs_simulation(rep.field, rep.psi, exact, horizon=HORIZON, label="fig1")
    assert check.name == "limit_vs_simulation"
    assert check.passed
    assert 0.0 < check.metric < 0.01


def test_limit_vs_simulation_fails_against_a_wrong_limit(closed_of, spectral_of):
    rep = closed_of(1)
    partial = limit_of(spectral_of(1).eigenpairs[1:], rep.psi)  # one eigenvector short
    assert not check_limit_vs_simulation(rep.field, rep.psi, partial, horizon=HORIZON).passed


def test_trapping_table_matches_catalogue(battery):
    checks = [r for r in battery if r.name == "trapping_table"]
    assert [c.label for c in checks] == [f"fig{k}" for k in range(1, 8)]
    assert all(c.metric == 0.0 and c.passed for c in checks)


def flipped_family_class(monkeypatch):
    verdict = ModelReport.trapping_class.fget
    flip = {
        TrappingClass.STRONGLY_TRAPPED: TrappingClass.NOT_STRONGLY_TRAPPED,
        TrappingClass.NOT_STRONGLY_TRAPPED: TrappingClass.STRONGLY_TRAPPED,
    }
    monkeypatch.setattr(ModelReport, "trapping_class", property(lambda rep: flip[verdict(rep)]))


def flipped_solver_verdict(monkeypatch):
    verdict = spectral.is_strongly_trapped
    monkeypatch.setattr(spectral, "is_strongly_trapped", lambda pairs: not verdict(pairs))


@pytest.mark.parametrize("wrong_route", [flipped_family_class, flipped_solver_verdict])
def test_trapping_table_fails_when_one_route_disagrees(monkeypatch, battery, wrong_route):
    wrong_route(monkeypatch)
    for got, want in zip(run_all(horizon=HORIZON, window=WINDOW), battery, strict=True):
        if got.name == "trapping_table":
            assert got.metric == 1.0 and not got.passed, got
        else:
            assert got == want


def test_run_all_full_battery_passes(battery):
    assert len(battery) == 48  # 20 residuals + 7 each of phase/mass/limit/table
    failures = [r for r in battery if not r.passed]
    assert failures == []
    assert all(math.isfinite(r.metric) for r in battery)


def test_run_all_canonical_order(battery):
    keys = [(r.name, r.label) for r in battery]
    assert keys == sorted(keys)
    assert len(set(keys)) == len(keys)


def test_run_all_deterministic(battery):
    again = run_all(horizon=HORIZON, window=WINDOW)
    assert again == battery  # exact float equality, byte-stable output
    buf_a, buf_b = io.StringIO(), io.StringIO()
    write_reports(battery, buf_a)
    write_reports(again, buf_b)
    assert buf_a.getvalue() == buf_b.getvalue()


def test_run_all_covers_every_figure(battery):
    for name in ("phase_match", "mass_identity", "limit_vs_simulation", "trapping_table"):
        labels = {r.label for r in battery if r.name == name}
        assert labels == {f"fig{k}" for k in range(1, 8)}, name
    residual_count = sum(r.name == "eigen_residual" for r in battery)
    assert residual_count == sum(len(preset(k).report().eigenphases) for k in range(1, 8))


def test_run_all_solves_each_field_once(monkeypatch):
    solve = spectral.find_eigenphases
    fields = []

    def counting(field, *args, **kwargs):
        fields.append(field)
        return solve(field, *args, **kwargs)

    monkeypatch.setattr(spectral, "find_eigenphases", counting)
    run_all(horizon=200)
    assert len(fields) == 7


def test_phase_gap_is_circular():
    assert phase_gap([], []) == 0.0
    assert phase_gap([0.1], [0.1, 0.2]) == math.inf
    a, b = 0.3, 0.30000000000000016
    assert phase_gap([a], [b]) == abs(a - b)  # as exact as the plain difference
    assert phase_gap([TWO_PI - 1e-9], [0.0]) == pytest.approx(1e-9, rel=1e-6)  # not 2*pi
    # one route puts the seam root last, the other first: paired across the seam
    assert phase_gap([1.0, 4.0, TWO_PI - 1e-9], [0.0, 1.0 + 1e-12, 4.0]) == pytest.approx(1e-9, rel=1e-3)
    assert phase_gap([1.0, 4.0], [1.0, 4.5]) == pytest.approx(0.5)


def _turned(p, c):
    """Preset ``p`` with every coin's delta moved by ``c``, which multiplies U by exp(i*c)."""
    coins = {k: getattr(p, k) for k in ("minus", "origin", "plus")}
    return dataclasses.replace(p, **{k: make_coin(v.alpha, v.beta, v.delta + c) for k, v in coins.items()})


def test_phase_match_on_presets_turned_onto_the_seam(monkeypatch):
    # the preset's first root lands on the 0/2*pi seam, or up to 2e-8 below it
    for p in PRESETS:
        root = p.report().eigenphases[0]
        for off in (0.0, -1e-9, -5e-9, -2e-8):
            monkeypatch.setattr(verification, "PRESETS", (_turned(p, off - root),))
            (match,) = [r for r in run_all(horizon=50) if r.name == "phase_match"]
            assert match.passed and match.metric <= 1e-12, (p.fig_id, off, match)


@pytest.mark.parametrize("off", [0.0, -1e-13, -1e-9, -5e-9, -2e-8, 1e-9])
def test_both_routes_certify_a_root_turned_next_to_the_seam(off):
    # a root just below 2*pi is read as 0 only within the solver's bracket
    # width, so that both routes re-check their residuals at a phase that
    # is still a root; a wider snap made analyze and closed_forms raise
    for p in PRESETS:
        q = _turned(p, off - p.report().eigenphases[0])
        field, rep = q.field(), q.report()
        solved = [pair.lam for pair in analyze(field).eigenpairs]
        closed = [form.lam for form in rep.closed_forms]
        assert phase_gap(solved, closed) <= 1e-12, (p.fig_id, off, solved, closed)
        assert max(eigen_residual(field, lam) for lam in solved + closed) < RESIDUAL_ACCEPT
