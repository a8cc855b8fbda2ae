"""Closed-form family evaluators cross-checked against the grid solver."""

import cmath
import hashlib
import math

import numpy as np
import pytest

from conftest import transfer_matrix
from qwtrap.algebra import TWO_PI, make_coin
from qwtrap.figures import SWEEP_POINTS, preset
from qwtrap.models import (
    FAMILY_TRAPPING,
    MODEL_FUNCTIONS,
    ConstraintError,
    DegeneracyError,
    TrappingClass,
    defect_closed_form,
    family_report,
    model1,
    model2,
    model3,
    model4,
    model5,
)
from qwtrap.spectral import (
    NoEigenvalueError,
    analyze,
    build_eigenvector,
    find_eigenphases,
    is_strongly_trapped,
    limit_distribution,
)
from qwtrap.walk import CoinField, WalkState, defect_field

R = 1.0 / math.sqrt(2.0)
C8 = math.sqrt(2.0 + math.sqrt(2.0)) / 2.0
S8 = math.sqrt(2.0 - math.sqrt(2.0)) / 2.0

FIG_IDS = (1, 2, 3, 4, 5, 6, 7)


def circ_gap(a: float, b: float) -> float:
    return abs((a - b + math.pi) % TWO_PI - math.pi)


def rand_coin(rng, delta, bb=None, arg_b=None):
    if bb is None:
        bb = float(rng.uniform(0.2, 0.95))
    aa = math.sqrt(1.0 - bb**2)
    pa = float(rng.uniform(0.0, TWO_PI))
    pb = float(rng.uniform(0.0, TWO_PI)) if arg_b is None else arg_b
    return make_coin(aa * cmath.exp(1j * pa), bb * cmath.exp(1j * pb), delta)


def rand_psi(rng):
    p = rng.normal(size=4)
    p /= np.linalg.norm(p)
    return complex(p[0], p[1]), complex(p[2], p[3])


def assert_report_consistent(rep, expect_count=None, expect_trapped=None):
    """Full dual-route check of one closed-form report against the solver."""
    found = find_eigenphases(rep.field)
    want = sorted(rep.eigenphases)
    assert len(found) == len(want), (found, want)
    if expect_count is not None:
        assert len(want) == expect_count
    for a, b in zip(found, want):
        assert circ_gap(a, b) <= 1e-8
    for lam in rep.eigenphases:
        assert abs(abs(cmath.exp(1j * lam)) - 1.0) <= 1e-12
    if not want:
        assert not rep.exists
        assert rep.nu_bar(*rep.psi, 0) == 0.0
        return
    for form in rep.closed_forms:
        assert abs(form.norm_correction - 1.0) <= 1e-8, form.norm_correction
        assert abs(form.vector.norm_sq_total() - 1.0) <= 1e-10
    pairs = [build_eigenvector(rep.field, lam) for lam in found]
    init = WalkState.point(*rep.psi)
    dist = limit_distribution(pairs, init, window=(-30, 30))
    p1, p2 = rep.psi
    worst = max(abs(dist.mass_at(x) - rep.nu_bar(p1, p2, x)) for x in range(-30, 31))
    assert worst <= 1e-8, worst
    if expect_trapped is not None:
        assert is_strongly_trapped(pairs) == expect_trapped
        want_class = (
            TrappingClass.STRONGLY_TRAPPED
            if expect_trapped
            else TrappingClass.NOT_STRONGLY_TRAPPED
        )
        assert rep.trapping_class is want_class


@pytest.mark.parametrize("fig_id", FIG_IDS)
def test_figure_reports_match_solver(closed_of, fig_id):
    expected_count = {1: 4, 2: 2, 3: 4, 4: 2, 5: 2, 6: 2, 7: 4}[fig_id]
    expected_trapped = {1: True, 2: False, 3: True, 4: False, 5: False, 6: False, 7: True}[fig_id]
    assert_report_consistent(closed_of(fig_id), expected_count, expected_trapped)


@pytest.mark.parametrize("fig_id", FIG_IDS)
def test_figure_eigenvectors_match_solver_up_to_phase(closed_of, spectral_of, fig_id):
    rep = closed_of(fig_id)
    for k, lam in enumerate(rep.eigenphases):
        # match by phase value, then fit the free global phase
        match = min(spectral_of(fig_id).eigenpairs, key=lambda p: circ_gap(p.lam, lam))
        assert circ_gap(match.lam, lam) <= 1e-8
        ref_vec = match.vector()
        got = rep.closed_forms[k].vector
        c = np.vdot(got.values(-6, 6).ravel(), ref_vec.values(-6, 6).ravel())
        c /= abs(c)
        for x in range(-30, 31):
            gap = np.max(np.abs(ref_vec.value(x) - c * got.value(x)))
            assert float(gap) <= 1e-8, f"fig{fig_id} lam={lam} x={x}"


@pytest.mark.parametrize("fig_id", FIG_IDS)
def test_figure_eigenvectors_satisfy_recurrence(closed_of, fig_id):
    rep = closed_of(fig_id)
    for k, lam in enumerate(rep.eigenphases):
        vec = rep.closed_forms[k].vector
        for x in range(-30, 30):
            jx = np.array([vec.value(x - 1)[0], vec.value(x)[1]])
            jx1 = np.array([vec.value(x)[0], vec.value(x + 1)[1]])
            t = transfer_matrix(rep.field.coin(x), lam)
            assert float(np.linalg.norm(jx1 - t @ jx)) <= 1e-10


def test_model1_fig1_scalars(closed_of):
    rep = closed_of(1)
    assert rep.scalars["A"] == 1.0
    assert rep.scalars["B"] == pytest.approx(0.5, abs=1e-15)
    assert rep.nu_bar(R, R, 0) == pytest.approx(2.0 / 9.0, abs=1e-12)
    assert rep.trapping_class is TrappingClass.STRONGLY_TRAPPED
    assert len(set(rep.branch_of)) == 2  # two branches, two phases each


def test_model2_fig2_single_branch(closed_of):
    rep = closed_of(2)
    assert rep.exists
    assert rep.branch_plus is False and rep.branch_minus is True
    # the caption state is orthogonal to the surviving branch
    assert abs(rep.coefficients["C_minus"]) <= 1e-15


def test_model2_fig3_both_branches(closed_of):
    rep = closed_of(3)
    assert rep.branch_plus is True and rep.branch_minus is True
    assert len(rep.eigenphases) == 4


def test_model3_fig4_zero_coefficient(closed_of):
    rep = closed_of(4)
    assert rep.exists
    assert abs(rep.coefficients["C"]) <= 1e-14
    assert rep.scalars["K"] > 0.0


def test_model4_fig5_scalars(closed_of):
    rep = closed_of(5)
    assert rep.scalars["P"] == pytest.approx(1.0, abs=1e-15)
    assert rep.scalars["K"] == pytest.approx(2.0, abs=1e-15)


def test_model5_fig6_fig7_branches(closed_of):
    assert closed_of(6).branch_plus is False and closed_of(6).branch_minus is True
    assert closed_of(7).branch_plus is True and closed_of(7).branch_minus is True


def test_model_report_accessors(closed_of):
    rep = closed_of(1)
    dist = rep.limit_window(-5, 5)
    assert dist.lo == -5 and dist.hi == 5
    assert dist.mass_at(0) == pytest.approx(2.0 / 9.0, abs=1e-12)


def test_reports_build_eigenvectors_only_on_first_use(monkeypatch):
    def unavailable(field, lam):
        raise AssertionError("eigenvector built")

    monkeypatch.setattr("qwtrap.models.defect_closed_form", unavailable)
    assert preset(1).sweep()
    rep = preset(1).report()
    assert rep.limit_window(-5, 5).mass_at(0) == pytest.approx(2.0 / 9.0, abs=1e-12)
    with pytest.raises(AssertionError, match="eigenvector built"):
        rep.closed_forms[0].vector.value(0)


def test_limit_window_clamps_roundoff_negatives(closed_of):
    # zero-trapped-mass states produce ~ -1e-17 formula noise; masses stay >= 0
    dist = closed_of(2).limit_window(-10, 10)
    assert float(dist.masses.min()) >= 0.0
    assert dist.total() <= 1e-12


def test_model1_nonexistence_agrees_with_solver():
    rep = model1(make_coin(R, R, 0.0), make_coin(R, R, 0.0), (1.0, 0.0))
    assert not rep.exists
    assert rep.eigenphases == ()
    assert rep.trapping_class is TrappingClass.NOT_STRONGLY_TRAPPED
    assert find_eigenphases(rep.field) == []


def test_model2_nonexistence():
    rep = model2(make_coin(R, R, 0.3), make_coin(R, R, 0.3), (1.0, 0.0))
    assert not rep.exists
    assert rep.branch_plus is False and rep.branch_minus is False
    assert find_eigenphases(rep.field) == []


def test_model3_nonexistence():
    rep = model3(make_coin(R, R, 0.1), make_coin(R, R, 0.1), (1.0, 0.0))
    assert not rep.exists
    assert find_eigenphases(rep.field) == []


def test_model4_nonexistence():
    rep = model4(make_coin(R, R, 0.2), make_coin(R, R, 0.2), (1.0, 0.0))
    assert not rep.exists


def test_model2_branch_toggle_across_boundary():
    common = make_coin(R, R, 0.0)
    live_plus = model2(common, make_coin(R, R, 0.1), (1.0, 0.0))
    assert live_plus.branch_plus is True and live_plus.branch_minus is False
    live_minus = model2(common, make_coin(R, R, -0.1), (1.0, 0.0))
    assert live_minus.branch_plus is False and live_minus.branch_minus is True
    for rep in (live_plus, live_minus):
        assert len(rep.eigenphases) == 2
        assert_report_consistent(rep)
        # nu_bar sums over exactly the stored (live) branch vectors
        psi = (0.6, 0.8j)
        init = WalkState.point(*psi)
        for x in (-4, 0, 3):
            direct = sum(
                abs(f.vector.overlap(init)) ** 2 * np.linalg.norm(f.vector.value(x)) ** 2 for f in rep.closed_forms
            )
            assert rep.nu_bar(psi[0], psi[1], x) == pytest.approx(direct, abs=1e-12)


def test_model5_branch_toggle_across_boundary():
    origin = make_coin(1.0, 0.0, 0.0)

    def build(delta):
        side = make_coin(R, R, delta)
        return model5(side, origin, make_coin(R, R, delta), (R, R))

    dead_plus = build(7.0 * math.pi / 4.0 - 0.05)
    assert dead_plus.branch_plus is False and dead_plus.branch_minus is True
    assert len(dead_plus.eigenphases) == 2
    both = build(7.0 * math.pi / 4.0 + 0.05)
    assert both.branch_plus is True and both.branch_minus is True
    assert len(both.eigenphases) == 4
    assert_report_consistent(dead_plus)
    assert_report_consistent(both)


def test_constraint_delta_mismatch_model1():
    with pytest.raises(ConstraintError):
        model1(make_coin(R, R, 0.0), make_coin(R, 1j * R, 0.1), (1.0, 0.0))


def test_constraint_beta_mismatch_model2():
    with pytest.raises(ConstraintError):
        model2(make_coin(R, R, 0.0), make_coin(R, 1j * R, 0.1), (1.0, 0.0))


def test_constraint_beta_argument_model3():
    with pytest.raises(ConstraintError):
        model3(make_coin(R, R, 0.0), make_coin(R, 1j * R, 0.5), (1.0, 0.0))


def test_constraint_delta_mismatch_model4():
    with pytest.raises(ConstraintError):
        model4(make_coin(R, R, 0.0), make_coin(R, -R, 0.3), (1.0, 0.0))


def test_constraint_model5_guards():
    side = make_coin(R, R, 0.0)
    with pytest.raises(ConstraintError):  # beta_o must vanish
        model5(side, make_coin(R, R, 0.0), side, (1.0, 0.0))
    with pytest.raises(ConstraintError):  # |beta_p| must equal |beta_m|
        model5(side, make_coin(1.0, 0.0, 0.0), make_coin(0.6, 0.8, 0.0), (1.0, 0.0))
    with pytest.raises(ConstraintError):  # delta_p must equal delta_m
        model5(side, make_coin(1.0, 0.0, 0.0), make_coin(R, R, 0.4), (1.0, 0.0))


def test_constraint_non_unit_state():
    with pytest.raises(ConstraintError):
        model1(make_coin(R, R, 0.0), make_coin(R, 1j * R, 0.0), (1.0, 1.0))


def test_constraint_reflecting_coin():
    blocked = make_coin(1e-13, math.sqrt(1.0 - 1e-26), 0.0)
    with pytest.raises(ConstraintError):
        model1(blocked, make_coin(R, 1j * R, 0.0), (1.0, 0.0))


@pytest.mark.parametrize(
    "fig_id, site, role", [(1, "plus", "minus"), (3, "plus", "minus"), (4, "origin", "plus"), (5, "origin", "plus")]
)
def test_family_report_rejects_a_coin_its_field_would_drop(fig_id, site, role):
    # families 1-4 take two coins; a third coin unlike the one the family's
    # field puts on that site is an error, not silently ignored
    p = preset(fig_id)
    coins = {"minus": p.minus, "origin": p.origin, "plus": p.plus, site: make_coin(0.6, 0.8j, 0.3)}
    with pytest.raises(ConstraintError) as exc:
        family_report(p.model_id, psi=p.psi, **coins)
    assert f"[{site}]" in str(exc.value) and f"[{role}]" in str(exc.value)


def test_family_report_checks_its_field_before_the_family_constraints():
    minus, plus = make_coin(R, R, 0.0), make_coin(R, 1j * R, 0.5)  # beta arguments differ
    with pytest.raises(ConstraintError, match="arg beta"):
        family_report(3, minus, plus, plus, (1.0, 0.0))
    with pytest.raises(ConstraintError) as exc:
        family_report(3, minus, make_coin(0.6, 0.8, 0.0), plus, (1.0, 0.0))
    assert "[origin]" in str(exc.value) and "[plus]" in str(exc.value)


#: rows of each preset's 720-point sweep; the sweep skips every field that
#: raises ConstraintError, so a field check that rejected a swept field
#: would silently drop rows
SWEEP_ROWS = {1: 2876, 2: 2156, 3: 2156, 4: 718, 5: 1438, 6: 2156, 7: 2156}


#: SHA-256 of every row of the seven preset sweeps, each float written
#: exactly (``float.hex``), so that a change to how a sweep builds its
#: coins must reproduce every row bit for bit
SWEEP_DIGEST = "1fcf2fe8e6e630090cabc8da51735b94a6a6921545cb2c722646bd801f1bbfcc"


def test_preset_sweeps_keep_every_row():
    assert {fig_id: len(preset(fig_id).sweep()) for fig_id in FIG_IDS} == SWEEP_ROWS


def test_preset_sweeps_keep_every_value():
    digest = hashlib.sha256()
    for fig_id in FIG_IDS:
        for val, label, lam in preset(fig_id).sweep():
            digest.update(f"{fig_id},{val.hex()},{label},{lam.hex()};".encode())
    assert digest.hexdigest() == SWEEP_DIGEST


def test_model1_degenerate_branches():
    # an origin reflection antiparallel to beta drives K to 0: the
    # two +- branches coalesce and the shared denominator vanishes
    b_o = -math.sqrt(1.0 - 1e-13)
    a_o = math.sqrt(1e-13)
    with pytest.raises(DegeneracyError):
        model1(make_coin(R, R, 0.0), make_coin(a_o, b_o, 0.0), (1.0, 0.0))


def test_model_function_table():
    assert set(MODEL_FUNCTIONS) == {1, 2, 3, 4, 5}
    assert MODEL_FUNCTIONS[1] is model1 and MODEL_FUNCTIONS[5] is model5
    assert FAMILY_TRAPPING[1] is TrappingClass.STRONGLY_TRAPPED
    assert FAMILY_TRAPPING[2] is TrappingClass.CONDITIONAL
    assert FAMILY_TRAPPING[3] is TrappingClass.NOT_STRONGLY_TRAPPED
    assert FAMILY_TRAPPING[4] is TrappingClass.NOT_STRONGLY_TRAPPED
    assert FAMILY_TRAPPING[5] is TrappingClass.CONDITIONAL
    assert TrappingClass.STRONGLY_TRAPPED.value == "strongly_trapped"


def test_random_parameters_all_families():
    rng = np.random.default_rng(31)
    for _ in range(3):
        dlt = float(rng.uniform(0.0, TWO_PI))
        assert_report_consistent(model1(rand_coin(rng, dlt), rand_coin(rng, dlt), rand_psi(rng)))
    for _ in range(3):
        common = rand_coin(rng, float(rng.uniform(0.0, TWO_PI)))
        origin = make_coin(
            abs(common.alpha) * cmath.exp(1j * rng.uniform(0.0, TWO_PI)),
            common.beta,
            float(rng.uniform(0.0, TWO_PI)),
        )
        assert_report_consistent(model2(common, origin, rand_psi(rng)))
    for k in range(3):
        arg_b = float(rng.uniform(0.0, TWO_PI))
        dp = float(rng.uniform(0.0, TWO_PI))
        dm = (dp + math.pi + float(rng.normal()) * 0.4) % TWO_PI if k % 3 else float(rng.uniform(0.0, TWO_PI))
        assert_report_consistent(
            model3(rand_coin(rng, dm, arg_b=arg_b), rand_coin(rng, dp, arg_b=arg_b), rand_psi(rng))
        )
    for _ in range(3):
        dlt = float(rng.uniform(0.0, TWO_PI))
        assert_report_consistent(model4(rand_coin(rng, dlt), rand_coin(rng, dlt), rand_psi(rng)))
    for _ in range(3):
        dlt = float(rng.uniform(0.0, TWO_PI))
        bb = float(rng.uniform(0.2, 0.95))
        origin = make_coin(cmath.exp(1j * rng.uniform(0.0, TWO_PI)), 0.0, float(rng.uniform(0.0, TWO_PI)))
        assert_report_consistent(
            model5(rand_coin(rng, dlt, bb=bb), origin, rand_coin(rng, dlt, bb=bb), rand_psi(rng))
        )


def test_derived_trapping_class_matches_origin_rank_route():
    # the verdict a report derives from FAMILY_TRAPPING and its branches,
    # against the solver's origin-rank test on the same field
    rng = np.random.default_rng(53)

    def coin(delta, aa=None, arg_b=None):
        aa = float(rng.uniform(0.2, 0.9)) if aa is None else aa
        return rand_coin(rng, delta, bb=math.sqrt(1.0 - aa**2), arg_b=arg_b)

    def angle():
        return float(rng.uniform(0.0, TWO_PI))

    def draw(fam):
        if fam == 1:
            dlt = angle()
            return model1(coin(dlt), coin(dlt), rand_psi(rng))
        if fam == 2:
            common = coin(angle())
            origin = make_coin(abs(common.alpha) * cmath.exp(1j * angle()), common.beta, angle())
            return model2(common, origin, rand_psi(rng))
        if fam == 3:
            arg_b = angle()
            return model3(coin(angle(), arg_b=arg_b), coin(angle(), arg_b=arg_b), rand_psi(rng))
        if fam == 4:
            dlt = angle()
            return model4(coin(dlt), coin(dlt), rand_psi(rng))
        dlt, aa = angle(), float(rng.uniform(0.2, 0.9))
        origin = make_coin(cmath.exp(1j * angle()), 0.0, angle())
        return model5(coin(dlt, aa), origin, coin(dlt, aa), rand_psi(rng))

    kinds = set()
    for k in range(60):
        rep = draw(1 + k % 5)
        trapped = analyze(rep.field).strongly_trapped
        assert (rep.trapping_class is TrappingClass.STRONGLY_TRAPPED) == trapped, (k, rep)
        if not rep.exists:
            kinds.add("none")
        elif rep.branch_plus is not None:
            kinds.add("both" if rep.branch_plus and rep.branch_minus else "one")
    assert kinds == {"none", "one", "both"}


def test_defect_closed_form_on_figure_field(closed_of, spectral_of):
    field = closed_of(1).field
    psi = closed_of(1).psi
    init = WalkState.point(*psi)
    pairs = spectral_of(1).eigenpairs
    dist = limit_distribution(pairs, init, window=(-20, 20))
    nu = np.zeros(41)
    for pair in pairs:
        form = defect_closed_form(field, pair.lam)
        assert abs(abs(form.m_factor) - 1.0) <= 1e-12
        assert abs(form.norm_correction - 1.0) <= 1e-8
        assert abs(form.vector.norm_sq_total() - 1.0) <= 1e-10
        ref = pair.vector()
        c = np.vdot(form.vector.values(-6, 6).ravel(), ref.values(-6, 6).ravel())
        c /= abs(c)
        for x in range(-30, 31):
            gap = np.max(np.abs(ref.value(x) - c * form.vector.value(x)))
            assert float(gap) <= 1e-8
            assert abs(form.norm_sq(x) - np.linalg.norm(ref.value(x)) ** 2) <= 1e-8
        ov = form.overlap_sq(*psi)
        manual = abs(np.vdot(form.vector.value(0), np.array(psi))) ** 2
        assert ov == pytest.approx(float(manual), abs=1e-12)
        nu += np.array([ov * form.norm_sq(x) for x in range(-20, 21)])
    worst = max(abs(dist.mass_at(x) - nu[x + 20]) for x in range(-20, 21))
    assert worst <= 1e-10


def test_defect_closed_form_random_fields():
    rng = np.random.default_rng(77)
    checked = 0
    while checked < 3:
        field = defect_field(
            rand_coin(rng, float(rng.uniform(0.0, TWO_PI))),
            rand_coin(rng, float(rng.uniform(0.0, TWO_PI))),
            rand_coin(rng, float(rng.uniform(0.0, TWO_PI))),
        )
        found = find_eigenphases(field)
        if not found:
            continue
        checked += 1
        for lam in found:
            form = defect_closed_form(field, lam)
            ref = build_eigenvector(field, lam).vector()
            assert abs(abs(form.m_factor) - 1.0) <= 1e-12
            assert abs(form.norm_correction - 1.0) <= 1e-8
            for x in range(-12, 13):
                assert abs(form.norm_sq(x) - np.linalg.norm(ref.value(x)) ** 2) <= 1e-8


def test_defect_closed_form_rejects_non_eigenphase(closed_of):
    with pytest.raises((NoEigenvalueError,)):
        defect_closed_form(closed_of(1).field, 0.3)


def test_defect_closed_form_rejects_inadmissible_phase():
    # as build_eigenvector does: a phase outside the admissible set is not an
    # eigenphase, rather than a NotInAdmissibleSetError from eigen_residual
    with pytest.raises(NoEigenvalueError, match="is not admissible") as info:
        defect_closed_form(preset(1).field(), math.pi / 2.0)
    assert type(info.value) is NoEigenvalueError


def test_defect_closed_form_requires_single_defect():
    h = make_coin(R, R)
    wide = CoinField(-2, 2, (h, h, h), h, h)
    with pytest.raises(ConstraintError):
        defect_closed_form(wide, 0.5)


def test_presets_and_sweeps_dispatch_through_model_functions(monkeypatch):
    # a wrapper placed in MODEL_FUNCTIONS (as a call tracer does) sees every
    # family report that a preset, its sweep or family_report builds
    calls = []
    for k, fn in list(MODEL_FUNCTIONS.items()):
        monkeypatch.setitem(MODEL_FUNCTIONS, k, lambda *a, k=k, fn=fn: calls.append(k) or fn(*a))
    for fig_id in range(1, 8):
        p = preset(fig_id)
        calls.clear()
        rep = p.report()
        p.sweep()
        assert calls == [p.model_id] * (1 + SWEEP_POINTS)
        again = family_report(p.model_id, p.minus, p.origin, p.plus, p.psi)
        assert again.eigenphases == rep.eigenphases
        assert np.array_equal(again.limit_window(-3, 3).masses, rep.limit_window(-3, 3).masses)
