"""Acceptance battery: ten pinned criteria with one printed verdict each.

Every criterion is computed from scratch here (no stored expected arrays
beyond the catalogue counts) and reduced to explicit metrics against
pinned tolerances.  The per-criterion verdict lines are printed in the
terminal summary by the hook in conftest.
"""

import cmath
import math

import numpy as np
import pytest

from conftest import random_coin, random_field, random_unit_psi, record_acceptance, transfer_matrix

from qwtrap.algebra import coin_matrix, make_coin
from qwtrap.figures import preset
from qwtrap.models import defect_closed_form
from qwtrap.spectral import (
    build_eigenvector,
    eigen_residual,
    find_eigenphases,
    is_strongly_trapped,
    limit_distribution,
    trapped_mass,
)
from qwtrap.verification import check_limit_vs_simulation
from qwtrap.walk import WalkState, time_averaged, uniform_field, window_for, evolve

R = 1.0 / math.sqrt(2.0)
TWO_PI = 2.0 * math.pi

FIG_IDS = (1, 2, 3, 4, 5, 6, 7)
EXPECTED_COUNTS = {1: 4, 2: 2, 3: 4, 4: 2, 5: 2, 6: 2, 7: 4}
EXPECTED_TRAPPING = {1: True, 2: False, 3: True, 4: False, 5: False, 6: False, 7: True}
ZERO_MASS_FIGS = (2, 4, 5, 6)

TITLES = {
    1: "norm preserved to 1e-12 over 200 steps, catalogue and random fields",
    2: "closed-form eigenphases give matching residuals below 1e-9",
    3: "grid solver finds exactly the closed-form point spectrum",
    4: "eigenvectors are unit fixed points of one walk step (both routes)",
    5: "origin limit mass 2/9 and horizon-2000 average within 0.01",
    6: "escaping cases: trapped mass < 1e-12 and averaged origin mass <= 5e-3",
    7: "strong-trapping verdicts match the catalogue on both routes",
    8: "windowed limit mass plus geometric tails equals trapped mass (1e-10)",
    9: "defect closed form matches solver profiles and weights to 1e-8",
    10: "transfer-matrix identities hold on 1000 random draws",
}

for _num, _title in TITLES.items():
    record_acceptance(_num, _title, False, "did not complete")


def circ_gap(a: float, b: float) -> float:
    return abs((a - b + math.pi) % TWO_PI - math.pi)


def _norm_drift_and_final(field, psi, t):
    """Max |norm^2 - 1| over t steps on a preallocated light-cone window."""
    lo, hi = window_for(t, (0, 0))
    coins = np.stack([coin_matrix(field.coin(x)) for x in range(lo, hi + 1)])
    amps = np.zeros((hi - lo + 1, 2), dtype=np.complex128)
    amps[-lo] = psi
    worst = 0.0
    for _ in range(t):
        mixed = np.einsum("xij,xj->xi", coins, amps)
        nxt = np.zeros_like(mixed)
        nxt[:-1, 0] = mixed[1:, 0]
        nxt[1:, 1] = mixed[:-1, 1]
        amps = nxt
        worst = max(worst, abs(float(np.sum(np.abs(amps) ** 2)) - 1.0))
    return worst, WalkState(lo, amps)


def test_a01_unitarity():
    rng = np.random.default_rng(987)
    cases = [(preset(k).field(), preset(k).psi) for k in FIG_IDS]
    cases += [(random_field(rng), random_unit_psi(rng)) for _ in range(10)]
    t = 200
    worst = 0.0
    tie = 0.0
    for field, psi in cases:
        drift, final = _norm_drift_and_final(field, psi, t)
        worst = max(worst, drift)
        ev = evolve(WalkState.point(*psi), field, t)
        gap = max(
            float(np.max(np.abs(final.amplitude(x) - ev.amplitude(x))))
            for x in range(-t, t + 1)
        )
        tie = max(tie, gap)
    ok = worst <= 1e-12 and tie <= 1e-12
    record_acceptance(
        1, TITLES[1], ok, f"max drift {worst:.2e} on {len(cases)} fields"
    )
    assert worst <= 1e-12
    assert tie <= 1e-12


def test_a02_closed_form_residuals(closed_of):
    worst = 0.0
    for fig_id in FIG_IDS:
        rep = closed_of(fig_id)
        for lam in rep.eigenphases:
            worst = max(worst, eigen_residual(rep.field, lam))
    ok = worst < 1e-9
    record_acceptance(2, TITLES[2], ok, f"max residual {worst:.2e}")
    assert worst < 1e-9


def test_a03_solver_completeness(closed_of, spectral_of):
    worst = 0.0
    ok = True
    for fig_id in FIG_IDS:
        found = [p.lam for p in spectral_of(fig_id).eigenpairs]
        want = sorted(closed_of(fig_id).eigenphases)
        if len(found) != EXPECTED_COUNTS[fig_id] or len(want) != len(found):
            ok = False
            continue
        worst = max(worst, max(circ_gap(a, b) for a, b in zip(found, want)))
    empty = find_eigenphases(uniform_field(make_coin(R, R)))
    ok = ok and worst <= 1e-8 and empty == []
    record_acceptance(
        3, TITLES[3], ok, f"max phase gap {worst:.2e}, uniform field: {len(empty)} phases"
    )
    assert empty == []
    assert ok


def _fixed_point_residual(field, lam, vec):
    h = vec.tail_halfwidth(1e-16)
    state = WalkState(-h - 2, vec.values(-h - 2, h + 2))
    out = evolve(state, field, 1)
    phase = cmath.exp(1j * lam)
    return max(
        float(np.linalg.norm(out.amplitude(x) - phase * vec.value(x)))
        for x in range(-h, h + 1)
    )


def test_a04_eigenvector_fixed_points(closed_of, spectral_of):
    worst_res = 0.0
    worst_norm = 0.0
    for fig_id in FIG_IDS:
        field = preset(fig_id).field()
        rep = closed_of(fig_id)
        for pair in spectral_of(fig_id).eigenpairs:  # solver route
            vec = pair.vector()
            worst_norm = max(worst_norm, abs(vec.norm_sq_total() - 1.0))
            worst_res = max(worst_res, _fixed_point_residual(field, pair.lam, vec))
        for lam, vec in ((f.lam, f.vector) for f in rep.closed_forms):  # closed-form route
            worst_norm = max(worst_norm, abs(vec.norm_sq_total() - 1.0))
            worst_res = max(worst_res, _fixed_point_residual(field, lam, vec))
    ok = worst_res <= 1e-8 and worst_norm <= 1e-10
    record_acceptance(
        4, TITLES[4], ok, f"max step residual {worst_res:.2e}, norm gap {worst_norm:.2e}"
    )
    assert worst_res <= 1e-8
    assert worst_norm <= 1e-10


def test_a05_reference_limit_distribution(closed_of, spectral_of):
    rep = closed_of(1)
    origin_gap = abs(rep.nu_bar(R, R, 0) - 2.0 / 9.0)
    exact = limit_distribution(spectral_of(1).eigenpairs, WalkState.point(*rep.psi), window=(-20, 20))
    check = check_limit_vs_simulation(rep.field, rep.psi, exact, horizon=2000)
    ok = origin_gap <= 1e-8 and check.passed
    record_acceptance(
        5, TITLES[5], ok,
        f"origin gap {origin_gap:.2e}, sup empirical gap {check.metric:.2e}",
    )
    assert origin_gap <= 1e-8
    assert check.passed, check


def test_a06_escaping_cases(spectral_of):
    worst_mass = 0.0
    worst_avg = 0.0
    for fig_id in ZERO_MASS_FIGS:
        src = preset(fig_id)
        init = WalkState.point(*src.psi)
        pairs = spectral_of(fig_id).eigenpairs
        worst_mass = max(worst_mass, trapped_mass(pairs, init))
        avg = time_averaged(init, src.field(), 2000)
        worst_avg = max(worst_avg, avg.mass_at(0))
    ok = worst_mass < 1e-12 and worst_avg <= 5e-3
    record_acceptance(
        6, TITLES[6], ok,
        f"max trapped mass {worst_mass:.2e}, max averaged origin mass {worst_avg:.2e}",
    )
    assert worst_mass < 1e-12
    assert worst_avg <= 5e-3


def test_a07_trapping_table(closed_of, spectral_of):
    ok = True
    for fig_id in FIG_IDS:
        got = is_strongly_trapped(spectral_of(fig_id).eigenpairs)
        closed = closed_of(fig_id).trapping_class.value == "strongly_trapped"
        if got != EXPECTED_TRAPPING[fig_id] or closed != EXPECTED_TRAPPING[fig_id]:
            ok = False
    record_acceptance(7, TITLES[7], ok, "7 verdicts, 2 routes each")
    assert ok


def test_a08_mass_identity(spectral_of):
    rng = np.random.default_rng(20260815)
    w = 30
    worst = 0.0
    for fig_id in FIG_IDS:
        pairs = spectral_of(fig_id).eigenpairs
        for _ in range(20):
            psi = random_unit_psi(rng)
            init = WalkState.point(*psi)
            dist = limit_distribution(pairs, init, window=(-w, w))
            tails = sum(
                abs(p.vector().overlap(init)) ** 2 * p.vector().mass_outside(-w, w)
                for p in pairs
            )
            gap = abs(dist.total() + tails - trapped_mass(pairs, init))
            worst = max(worst, gap)
    ok = worst <= 1e-10
    record_acceptance(8, TITLES[8], ok, f"max identity gap {worst:.2e} over 140 states")
    assert worst <= 1e-10


def test_a09_defect_closed_form(spectral_of):
    rng = np.random.default_rng(424242)
    worst_prof = 0.0
    worst_weight = 0.0
    for fig_id in FIG_IDS:
        field = preset(fig_id).field()
        for pair in spectral_of(fig_id).eigenpairs:
            form = defect_closed_form(field, pair.lam)
            ref = pair.vector()
            for x in range(-30, 31):
                worst_prof = max(worst_prof, abs(form.norm_sq(x) - np.linalg.norm(ref.value(x)) ** 2))
            for _ in range(5):
                psi = random_unit_psi(rng)
                wref = abs(ref.overlap(WalkState.point(*psi))) ** 2
                worst_weight = max(worst_weight, abs(form.overlap_sq(*psi) - wref))
    ok = worst_prof <= 1e-8 and worst_weight <= 1e-8
    record_acceptance(
        9, TITLES[9], ok,
        f"max profile gap {worst_prof:.2e}, max weight gap {worst_weight:.2e}",
    )
    assert worst_prof <= 1e-8
    assert worst_weight <= 1e-8


def test_a10_transfer_identities():
    rng = np.random.default_rng(55)
    worst_prod = 0.0
    worst_rec = 0.0
    worst_off = 0.0
    worst_diag = 0.0
    for _ in range(1000):
        c = random_coin(rng)
        lam = float(rng.uniform(0.0, TWO_PI))
        t = transfer_matrix(c, lam)
        zp, zm = np.linalg.eigvals(t)
        worst_prod = max(worst_prod, abs(zp * zm - c.alpha.conjugate() / c.alpha))
        td = t.conj().T
        # T is not normal: [T, T*] has zero diagonal and off-diagonal modulus
        # 4 |beta sin(lam - delta)| / |alpha|^2
        comm = t @ td - td @ t
        want = 4.0 * abs(c.beta) * abs(math.sin(lam - c.delta)) / abs(c.alpha) ** 2
        worst_off = max(worst_off, abs(abs(comm[0, 1]) - want), abs(abs(comm[1, 0]) - want))
        worst_diag = max(worst_diag, abs(comm[0, 0]), abs(comm[1, 1]))
        tilde0 = np.array([complex(*rng.normal(size=2)), complex(*rng.normal(size=2))])
        tilde1 = t @ tilde0
        lhs = coin_matrix(c) @ np.array([tilde1[0], tilde0[1]])
        rhs = cmath.exp(1j * lam) * np.array([tilde0[0], tilde1[1]])
        worst_rec = max(worst_rec, float(np.max(np.abs(lhs - rhs))))
    ok = worst_prod <= 1e-12 and worst_rec <= 1e-10 and worst_off <= 1e-10 and worst_diag <= 1e-12
    record_acceptance(
        10, TITLES[10], ok,
        f"eigenvalue product {worst_prod:.2e}, step relation {worst_rec:.2e}, "
        f"commutator off-diagonal {worst_off:.2e}, diagonal {worst_diag:.2e}",
    )
    assert worst_prod <= 1e-12
    assert worst_rec <= 1e-10
    assert worst_off <= 1e-10
    assert worst_diag <= 1e-12
