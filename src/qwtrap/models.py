"""Closed-form point spectra for five exactly solvable coin-field families.

Every family below is a two-phase field with at most one defect, so its
point spectrum and time-averaged limit distribution admit closed forms in
the coin parameters.  Each ``modelK`` function checks the family's
standing assumptions, decides existence, and returns a
:class:`ModelReport` carrying the eigenphases with their branch labels,
the family's derived scalars, and a closed-form evaluator for the limit
distribution of an origin-supported state.

``defect_closed_form`` is the general construction: given any admissible
eigenphase of a field with cuts at x = -1, +1 it produces the eigenvector,
its squared-norm profile, and the overlap weight without reference to a
particular family.  A report's ``closed_forms`` come from it, built on
first use, so a caller that reads only the phases (such as a figure
sweep) never builds a vector.

Families (``minus`` coin on x < 0, ``plus`` coin on x > 0):

1. plus = minus, origin shares the rotation phase delta
2. plus = minus, origin shares beta but rotates freely
3. origin = plus, beta arguments matched across the phases
4. origin = plus, rotation phases matched across the phases
5. reflectionless origin (beta_o = 0), equal beta moduli, matched deltas

``defect_closed_form`` renormalizes its eigenvector numerically and keeps
the correction factor; a correction away from 1 flags a transcription
error in its closed-form normalizer rather than silently biasing the
distribution.
"""

from __future__ import annotations

import cmath
import enum
import functools
import math
from dataclasses import dataclass, field as dc_field
from typing import Callable, Iterable, Mapping

import numpy as np

from .algebra import Coin
from .walk import CoinField, Distribution, defect_field
from .spectral import (
    GeometricVector,
    build_eigenvector,
    canonical_phase,
    circular_gap,
)

# Ties at an existence-condition boundary snap to the boundary value, and
# the open or closed endpoint then decides membership.
BOUNDARY_TOL = 1e-12

UNIT_PSI_TOL = 1e-10


class ConstraintError(ValueError):
    """Coin parameters violate a family's standing assumptions."""


class DegeneracyError(ArithmeticError):
    """A closed-form denominator vanishes; the family formulas are singular."""


class TrappingClass(enum.Enum):
    STRONGLY_TRAPPED = "strongly_trapped"
    NOT_STRONGLY_TRAPPED = "not_strongly_trapped"
    CONDITIONAL = "conditional"


#: Family-level classification: families 2 and 5 trap strongly only for the
#: parameter ranges where both branches exist.
FAMILY_TRAPPING: Mapping[int, TrappingClass] = {
    1: TrappingClass.STRONGLY_TRAPPED,
    2: TrappingClass.CONDITIONAL,
    3: TrappingClass.NOT_STRONGLY_TRAPPED,
    4: TrappingClass.NOT_STRONGLY_TRAPPED,
    5: TrappingClass.CONDITIONAL,
}


def _no_trapped_mass(q1: complex, q2: complex, x: int) -> float:
    return 0.0


@dataclass(frozen=True)
class ModelReport:
    """Closed-form spectral data for one family at concrete parameters.

    A family sets only what it computes: its ``scalars`` always and, when
    its point spectrum is nonempty, the ``eigenphases`` with index-aligned
    ``branch_of`` labels, the state's ``coefficients`` and
    ``nu_bar(psi1, psi2, x)``, the closed-form time-averaged limit
    distribution for a unit state at the origin (zero by default).
    ``branch_plus``/``branch_minus`` are the per-branch existence
    indicators of families 2 and 5, ``None`` for the other families.
    ``exists`` is derived as "has an eigenphase"; ``trapping_class`` is
    ``FAMILY_TRAPPING[model_id]``, with ``CONDITIONAL`` resolved to
    strongly trapped iff both branches exist, and is never strongly
    trapped without an eigenphase.

    ``closed_forms`` holds one :class:`DefectEigenForm` per eigenphase,
    index-aligned with ``eigenphases`` and built on first access by
    :func:`defect_closed_form`, so a report whose caller reads only the
    phases never builds a vector.  Each form carries the unit eigenvector
    (``vector``, numerically renormalized), the closed-form ``normalizer``
    and the ``norm_correction`` that normalizer left, expected to be 1
    within 1e-8.
    """

    model_id: int
    field: CoinField
    psi: tuple[complex, complex]
    scalars: Mapping[str, float]
    eigenphases: tuple[float, ...] = ()
    branch_of: tuple[str, ...] = ()
    coefficients: Mapping[str, float] = dc_field(default_factory=dict)
    nu_bar: Callable[[complex, complex, int], float] = dc_field(
        default=_no_trapped_mass, repr=False, compare=False
    )
    branch_plus: bool | None = None
    branch_minus: bool | None = None

    @property
    def exists(self) -> bool:
        return bool(self.eigenphases)

    @property
    def trapping_class(self) -> TrappingClass:
        verdict = FAMILY_TRAPPING[self.model_id]
        if verdict is TrappingClass.CONDITIONAL:
            both = self.branch_plus and self.branch_minus
            verdict = TrappingClass.STRONGLY_TRAPPED if both else TrappingClass.NOT_STRONGLY_TRAPPED
        return verdict if self.exists else TrappingClass.NOT_STRONGLY_TRAPPED

    @functools.cached_property
    def closed_forms(self) -> tuple[DefectEigenForm, ...]:
        return tuple(defect_closed_form(self.field, lam) for lam in self.eigenphases)

    def limit_window(self, lo: int, hi: int) -> Distribution:
        """Closed-form limit distribution of the stored state on a window."""
        p1, p2 = self.psi
        vals = np.array([self.nu_bar(p1, p2, x) for x in range(lo, hi + 1)])
        return Distribution(lo, np.maximum(vals, 0.0))


def _unit_psi(psi) -> tuple[complex, complex]:
    p1, p2 = complex(psi[0]), complex(psi[1])
    nsq = abs(p1) ** 2 + abs(p2) ** 2
    if not math.isfinite(nsq) or abs(nsq - 1.0) > UNIT_PSI_TOL:
        raise ConstraintError(f"initial state must be unit norm, got ||psi||^2 = {nsq!r}")
    return p1, p2


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ConstraintError(message)


def _require_transmitting(*coins: Coin) -> None:
    for c in coins:
        _require(abs(c.alpha) > BOUNDARY_TOL, "coin must transmit: alpha = 0 is outside every family")


def _same_angle(a: float, b: float) -> bool:
    return circular_gap(a, b) <= BOUNDARY_TOL


def _holds_strictly(margin: float) -> bool:
    """Strict inequality ``margin > 0`` with ties snapped to the boundary."""
    return margin > BOUNDARY_TOL


_BRANCHES = ((1.0, "plus"), (-1.0, "minus"))


def _pm_phases(branches: Iterable[tuple[str, complex]]) -> tuple[tuple[float, ...], tuple[str, ...]]:
    """Eigenphases ``+unit`` and ``-unit`` of each ``(label, unit)`` branch, with their labels."""
    phases, labels = [], []
    for label, unit in branches:
        phases += [canonical_phase(cmath.phase(unit)), canonical_phase(cmath.phase(-unit))]
        labels += [label, label]
    return tuple(phases), tuple(labels)


def _two_branch_nu_bar(coef, live, prefactor, amps, aa: float):
    """Limit distribution summed over the live branches s of families 2 and 5.

    Branch s contributes ``coef(q1, q2, s)`` at the origin and
    ``coef * prefactor[s] / |alpha|^2 * (|alpha|^2 / amps[s])^|x|`` off it.
    """

    def nu_bar(q1: complex, q2: complex, x: int) -> float:
        tot = 0.0
        for s in (1.0, -1.0):
            if not live[s]:
                continue
            prof = 1.0 if x == 0 else prefactor[s] / aa ** 2 * (aa ** 2 / amps[s]) ** abs(x)
            tot += coef(q1, q2, s) * prof
        return tot

    return nu_bar


def model1(common: Coin, origin: Coin, psi) -> ModelReport:
    """One defect, origin rotation phase matched to the common coin.

    Existence is |beta|^2 > Re(beta conj(beta_o)); the spectrum is then the
    four phases +-e^{i lambda_+-} and the walk traps strongly.
    """
    p1, p2 = _unit_psi(psi)
    _require(_same_angle(origin.delta, common.delta), "family 1 needs delta_o = delta")
    _require_transmitting(common, origin)
    field = defect_field(common, origin, common)
    a, b, dlt = common.alpha, common.beta, common.delta
    ao, bo = origin.alpha, origin.beta
    re = (b * bo.conjugate()).real
    im = (b * bo.conjugate()).imag
    A = 1.0 - re
    B = abs(b) ** 2 - re
    K = abs(b) ** 2 - re ** 2
    scalars = {"A": A, "B": B, "K": K}
    if not _holds_strictly(B):
        return ModelReport(1, field, (p1, p2), scalars)
    if K <= BOUNDARY_TOL:
        raise DegeneracyError("family 1: K = 0 collapses the two branch phases")
    rK = math.sqrt(K)
    sAB = math.sqrt(A + B)
    eid = cmath.exp(1j * dlt)
    phases, labels = _pm_phases((label, (A + 1j * s * rK) / sAB * eid) for s, label in _BRANCHES)

    pref = 2.0 * (B / (A + B)) ** 2
    ratio = abs(a) ** 2 / (A + B)
    base = abs(ao) ** 2 * abs(b) ** 2

    def coef(q1: complex, q2: complex, side: int) -> float:
        imx = (ao * b.conjugate() * q1 * q2.conjugate()).imag
        amp = abs(q1) ** 2 if side > 0 else abs(q2) ** 2
        return base + 2.0 * im ** 2 * amp + 2.0 * side * im * imx

    def nu_bar(q1: complex, q2: complex, x: int) -> float:
        if x == 0:
            return pref
        side = 1 if x > 0 else -1
        return pref * A * coef(q1, q2, side) / (abs(a) ** 2 * K) * ratio ** abs(x)

    coefficients = {"C_plus": coef(p1, p2, 1), "C_minus": coef(p1, p2, -1)}
    return ModelReport(1, field, (p1, p2), scalars, phases, labels, coefficients, nu_bar)


def model2(common: Coin, origin: Coin, psi) -> ModelReport:
    """One defect, origin shares beta with the common coin, delta_o free.

    Branch s in {+, -} exists iff gamma_s < |beta| where
    gamma_s = |beta| cos(delta - delta_o) + s |alpha| sin(delta - delta_o);
    strong trapping iff both branches exist.
    """
    p1, p2 = _unit_psi(psi)
    _require(abs(origin.beta - common.beta) <= BOUNDARY_TOL, "family 2 needs beta_o = beta")
    _require(abs(common.beta) > BOUNDARY_TOL, "family 2 needs beta != 0")
    _require_transmitting(common, origin)
    field = defect_field(common, origin, common)
    a, b, dlt = common.alpha, common.beta, common.delta
    ao, dlo = origin.alpha, origin.delta
    aa, bb = abs(a), abs(b)
    w = cmath.exp(1j * (dlt - dlo))
    gammas = {1.0: bb * w.real + aa * w.imag, -1.0: bb * w.real - aa * w.imag}
    live = {s: _holds_strictly(bb - g) for s, g in gammas.items()}
    amps = {s: 1.0 - 2.0 * bb * g + bb ** 2 for s, g in gammas.items()}
    scalars = {
        "gamma_plus": gammas[1.0],
        "gamma_minus": gammas[-1.0],
        "A_plus": amps[1.0],
        "A_minus": amps[-1.0],
    }
    if not any(live.values()):
        return ModelReport(2, field, (p1, p2), scalars, branch_plus=False, branch_minus=False)

    def eig_unit(s: float) -> complex:
        num = cmath.exp(1j * dlt) - bb * (bb + 1j * s * aa) * cmath.exp(1j * dlo)
        return num / abs(num)

    phases, labels = _pm_phases((label, eig_unit(s)) for s, label in _BRANCHES if live[s])

    def coef(q1: complex, q2: complex, s: float) -> float:
        if not live[s]:
            return 0.0
        imx = (ao * b.conjugate() * q1 * q2.conjugate()).imag
        g = gammas[s]
        return bb * (bb - g) ** 2 * (aa * bb + 2.0 * s * imx) / (aa * amps[s] ** 2)

    coefficients = {"C_plus": coef(p1, p2, 1.0), "C_minus": coef(p1, p2, -1.0)}
    nu_bar = _two_branch_nu_bar(coef, live, {s: 1.0 - bb * g for s, g in gammas.items()}, amps, aa)
    return ModelReport(2, field, (p1, p2), scalars, phases, labels, coefficients, nu_bar, live[1.0], live[-1.0])


def model3(minus: Coin, plus: Coin, psi) -> ModelReport:
    """Two phases, origin coin equal to the plus coin, matched beta arguments.

    Existence is cos(delta_p - delta_m) < |beta_p||beta_m| - |alpha_p||alpha_m|;
    the two phases +-e^{i lambda} share an origin direction, so the walk never
    traps strongly.
    """
    p1, p2 = _unit_psi(psi)
    _require(abs(minus.beta) > BOUNDARY_TOL and abs(plus.beta) > BOUNDARY_TOL, "family 3 needs beta_m, beta_p != 0")
    _require(
        _same_angle(cmath.phase(minus.beta), cmath.phase(plus.beta)),
        "family 3 needs arg beta_p = arg beta_m",
    )
    _require_transmitting(minus, plus)
    field = defect_field(minus, plus, plus)
    ap, bp, dp = plus.alpha, plus.beta, plus.delta
    am, bm, dm = minus.alpha, minus.beta, minus.delta
    bbp, bbm = abs(bp), abs(bm)
    aap, aam = abs(ap), abs(am)
    cd, sd = math.cos(dp - dm), math.sin(dp - dm)
    P = bbp * cd - bbm
    M = bbp - bbm * cd
    K = (cd - bbp * bbm - aap * aam) * (cd - bbp * bbm + aap * aam)
    scalars = {"P": P, "M": M, "K": K}
    if not _holds_strictly(bbp * bbm - aap * aam - cd):
        return ModelReport(3, field, (p1, p2), scalars)
    den = bbp * M - bbm * P
    if den <= BOUNDARY_TOL:
        raise DegeneracyError("family 3: |beta_p| M - |beta_m| P = 0 makes the limit distribution singular")
    rK = math.sqrt(K)
    num = bbp * cmath.exp(1j * dm) - bbm * cmath.exp(1j * dp)
    phases, labels = _pm_phases([("pair", num / abs(num))])
    # squared moduli of the transfer eigenvalues on each side
    zin2 = abs((P + bbp * rK) / (ap * math.sqrt(den))) ** 2
    zout2 = abs((M + bbm * rK) / (am * math.sqrt(den))) ** 2

    def coef(q1: complex, q2: complex) -> float:
        ip = ap * bm.conjugate() * q1 * q2.conjugate()
        c_psi = (ip.real - bbm * bbp * abs(q1) ** 2) * rK - sd * ip.imag
        return (
            4.0 * bbm * bbp ** 2 * K
            * (aap ** 2 * bbm * den - 2.0 * (P + bbp * rK) * c_psi)
            / (aap ** 2 * den ** 4)
        )

    def nu_bar(q1: complex, q2: complex, x: int) -> float:
        C = coef(q1, q2)
        if x >= 0:
            return C * P * (P + bbp * rK) / aap ** 2 * zin2 ** x
        return C * M * (M + bbm * rK) / aam ** 2 * zout2 ** x

    return ModelReport(3, field, (p1, p2), scalars, phases, labels, {"C": coef(p1, p2)}, nu_bar)


def model4(minus: Coin, plus: Coin, psi) -> ModelReport:
    """Two phases, origin coin equal to the plus coin, matched rotation phases.

    With P = |beta_p|^2 - Re(beta_m conj(beta_p)) and M the mirror quantity,
    existence is PM > 0; the spectrum is the pair +-e^{i lambda} and the walk
    never traps strongly.
    """
    p1, p2 = _unit_psi(psi)
    _require(_same_angle(plus.delta, minus.delta), "family 4 needs delta_p = delta_m")
    _require_transmitting(minus, plus)
    field = defect_field(minus, plus, plus)
    ap, bp, dlt = plus.alpha, plus.beta, plus.delta
    am, bm = minus.alpha, minus.beta
    aap, aam = abs(ap), abs(am)
    cross = bm * bp.conjugate()
    re, im = cross.real, cross.imag
    P = abs(bp) ** 2 - re
    M = abs(bm) ** 2 - re
    K = (re + aap * aam - 1.0) * (re - aap * aam - 1.0)
    scalars = {"P": P, "M": M, "K": K}
    if not _holds_strictly(P * M):
        return ModelReport(4, field, (p1, p2), scalars)
    rK = math.sqrt(K)
    PM = P + M  # equals |beta_p - beta_m|^2 and K + im^2
    phases, labels = _pm_phases([("pair", cmath.exp(1j * dlt) * (rK + 1j * im) / abs(bp - bm))])
    # squared moduli of the transfer eigenvalues on each side
    zin2 = abs((-P + rK) / (ap * math.sqrt(PM))) ** 2
    zout2 = abs((M + rK) / (am * math.sqrt(PM))) ** 2

    def coef(q1: complex, q2: complex) -> float:
        ipd = ap * (bp.conjugate() - bm.conjugate()) * q1 * q2.conjugate()
        return (
            4.0 * P ** 2 * M ** 2
            * (PM * aap ** 2 + 2.0 * (ipd.real - P * abs(q1) ** 2) * (rK - P))
            / (PM ** 4 * aap ** 2 * rK)
        )

    def nu_bar(q1: complex, q2: complex, x: int) -> float:
        C = coef(q1, q2)
        if x >= 0:
            return C * (rK - P) / aap ** 2 * zin2 ** x
        return C * (M + rK) / aam ** 2 * zout2 ** x

    return ModelReport(4, field, (p1, p2), scalars, phases, labels, {"C": coef(p1, p2)}, nu_bar)


def model5(minus: Coin, origin: Coin, plus: Coin, psi) -> ModelReport:
    """Two phases around a reflectionless origin coin (beta_o = 0).

    The beta moduli agree across the phases and delta_p = delta_m = delta.
    With gamma = delta_o + (arg beta_p - arg beta_m)/2, branch + exists iff
    sin(delta - gamma) > -|beta| and branch - iff sin(delta - gamma) < |beta|
    (endpoints excluded); strong trapping iff both branches exist.
    """
    p1, p2 = _unit_psi(psi)
    _require(abs(origin.beta) <= BOUNDARY_TOL, "family 5 needs beta_o = 0")
    _require(
        abs(abs(plus.beta) - abs(minus.beta)) <= BOUNDARY_TOL,
        "family 5 needs |beta_p| = |beta_m|",
    )
    _require(_same_angle(plus.delta, minus.delta), "family 5 needs delta_p = delta_m")
    _require(abs(plus.beta) > BOUNDARY_TOL, "family 5 needs beta != 0")
    _require_transmitting(minus, plus)
    field = defect_field(minus, origin, plus)
    ap, bp, dlt = plus.alpha, plus.beta, plus.delta
    am, bm = minus.alpha, minus.beta
    ao, dlo = origin.alpha, origin.delta
    bb = abs(bp)
    aa = abs(ap)
    gam = dlo + (cmath.phase(bp) - cmath.phase(bm)) / 2.0
    sg = math.sin(dlt - gam)
    live = {1.0: _holds_strictly(sg + bb), -1.0: _holds_strictly(bb - sg)}
    amps = {s: 1.0 + 2.0 * s * bb * sg + bb ** 2 for s in (1.0, -1.0)}
    scalars = {"gamma": gam, "sin_margin": sg, "A_plus": amps[1.0], "A_minus": amps[-1.0]}
    if not any(live.values()):
        return ModelReport(5, field, (p1, p2), scalars, branch_plus=False, branch_minus=False)

    def eig_unit(s: float) -> complex:
        num = cmath.exp(1j * dlt) + 1j * s * bb * cmath.exp(1j * gam)
        return num / abs(num)

    phases, labels = _pm_phases((label, eig_unit(s)) for s, label in _BRANCHES if live[s])

    def coef(q1: complex, q2: complex, s: float) -> float:
        if not live[s]:
            return 0.0
        imx = (cmath.exp(1j * (dlo - gam)) * ao * bm.conjugate() * q1 * q2.conjugate()).imag
        return (bb + s * sg) ** 2 * (bb ** 2 - 2.0 * s * bb * imx) / amps[s] ** 2

    coefficients = {"C_plus": coef(p1, p2, 1.0), "C_minus": coef(p1, p2, -1.0)}
    nu_bar = _two_branch_nu_bar(coef, live, {s: 1.0 + s * bb * sg for s in (1.0, -1.0)}, amps, aa)
    return ModelReport(5, field, (p1, p2), scalars, phases, labels, coefficients, nu_bar, live[1.0], live[-1.0])


MODEL_FUNCTIONS = {1: model1, 2: model2, 3: model3, 4: model4, 5: model5}

#: the coins that family k puts on the minus side, the origin and the plus
#: side of its defect field; it takes ``dict.fromkeys(FAMILY_FIELD[k])``.
#: The one statement of each layout: ``family_report`` and the figure sweeps read it.
FAMILY_FIELD: Mapping[int, tuple[str, str, str]] = {
    1: ("minus", "origin", "minus"),
    2: ("minus", "origin", "minus"),
    3: ("minus", "plus", "plus"),
    4: ("minus", "plus", "plus"),
    5: ("minus", "origin", "plus"),
}


def family_report(model_id: int, minus: Coin, origin: Coin, plus: Coin, psi) -> ModelReport:
    """Report of family ``model_id`` on the defect field ``minus | origin | plus``.

    A field the family does not describe (``FAMILY_FIELD``: families 1 and
    2 need ``plus == minus``, families 3 and 4 ``origin == plus``) raises
    :class:`ConstraintError` naming both coins, before the family function
    checks its own constraints.  That function is looked up in
    ``MODEL_FUNCTIONS`` at call time, so a wrapper placed there sees every
    family report.
    """
    coins = {"minus": minus, "origin": origin, "plus": plus}
    layout = FAMILY_FIELD[model_id]
    for site, role in zip(coins, layout):
        _require(coins[site] == coins[role], f"family {model_id} needs the [{site}] coin equal to the [{role}] coin")
    return MODEL_FUNCTIONS[model_id](*(coins[role] for role in dict.fromkeys(layout)), psi)


@dataclass(frozen=True)
class DefectEigenForm:
    """Eigenvector and limit-distribution weights at one defect eigenphase.

    Works for any single-defect field, with the asymptotics entering only
    through the contracting and expanding transfer eigenvalues.  ``m_factor``
    is the unit-modulus matching factor between the decaying half-line
    solutions; ``normalizer`` the closed-form squared-norm reciprocal.
    ``norm_sq(x)`` and ``overlap_sq(psi1, psi2)`` evaluate the closed forms
    directly, independent of the stored vector.
    """

    lam: float
    m_factor: complex
    normalizer: float
    vector: GeometricVector
    norm_correction: float
    origin_coin: Coin

    def norm_sq(self, x: int) -> float:
        N = self.normalizer
        bo = self.origin_coin.beta
        reB = (bo * self.m_factor).real
        if x == 0:
            return N * (1.0 + reB)
        if x >= 1:
            r = abs(self.vector.zeta_in) ** 2
            return N * ((1.0 + abs(bo) ** 2) / 2.0 + reB) * (1.0 + 1.0 / r) * r ** x
        rho2 = abs(self.vector.zeta_out) ** 2
        return N * (1.0 - abs(bo) ** 2) / 2.0 * (1.0 + rho2) * rho2 ** x

    def overlap_sq(self, psi1: complex, psi2: complex) -> float:
        ao, bo = self.origin_coin.alpha, self.origin_coin.beta
        M = self.m_factor
        reB = (bo * M).real
        val = (
            (1.0 - abs(bo) ** 2)
            + 2.0 * (abs(bo) ** 2 + reB) * abs(psi1) ** 2
            - 2.0 * (ao * (M + bo.conjugate()) * psi1 * complex(psi2).conjugate()).real
        )
        return self.normalizer / 2.0 * val


def defect_closed_form(field: CoinField, lam: float) -> DefectEigenForm:
    """Closed-form eigenvector data at one eigenphase of a single-defect field.

    The phase must already be an eigenphase: :func:`build_eigenvector`
    certifies it, raising :class:`NoEigenvalueError` otherwise.
    """
    _require(field.x_minus == -1 and field.x_plus == 1, "field must have its only defect at the origin")
    pair = build_eigenvector(field, lam)
    lam, zeta_in, zeta_out = pair.lam, pair.raw.zeta_in, pair.raw.zeta_out
    minus, origin = field.left, field.coin(0)
    ao, bo, dlo = origin.alpha, origin.beta, origin.delta
    # unit-modulus matching factor between the half-line solutions
    M = (
        (minus.alpha * zeta_out - cmath.exp(1j * (lam - minus.delta)))
        / minus.beta
        * cmath.exp(-1j * (lam - dlo))
    )
    r = abs(zeta_in) ** 2
    rho2 = abs(zeta_out) ** 2
    reB = (bo * M).real
    invN = (
        ((1.0 - abs(bo) ** 2) * (1.0 - r) + (1.0 + abs(bo) ** 2) * (1.0 - 1.0 / rho2))
        / ((1.0 - r) * (1.0 - 1.0 / rho2))
        + 2.0 * reB / (1.0 - r)
    )
    if invN <= 0.0:
        raise DegeneracyError(f"nonpositive squared norm 1/N = {invN!r} at phase {lam!r}")
    N = 1.0 / invN
    root = math.sqrt(N / 2.0)
    eo = cmath.exp(1j * (lam - dlo))
    v_plus = root * np.array([eo * (1.0 + bo * M), -(bo.conjugate() + M) / zeta_in])
    v0 = root * np.array([eo * (1.0 + bo * M), -eo * ao * M])
    v_minus = root * np.array([ao * zeta_out, -eo * ao * M])
    gv = GeometricVector(
        plus_cut=1,
        minus_cut=-1,
        zeta_in=zeta_in,
        zeta_out=zeta_out,
        plus_coef=v_plus,
        minus_coef=v_minus,
        middle=np.array([v0]),
    )
    c = math.sqrt(gv.norm_sq_total())
    return DefectEigenForm(
        lam=lam,
        m_factor=M,
        normalizer=N,
        vector=gv.scaled(1.0 / c),
        norm_correction=c,
        origin_coin=origin,
    )
