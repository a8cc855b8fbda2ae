"""Reference parameter sets fig1..fig7 shared by tests and the CLI.

Each preset bundles one concrete coin field from the five closed-form
families, the initial state used alongside it, and the expected
strong-trapping verdict.  The presets are the single source of these
values; everything downstream (verification checks, acceptance tests,
the ``figure`` command) reads them from here.

``FigurePreset.sweep`` traces the eigenvalue arcs over ``SWEEP_POINTS``
values of the one angle that governs existence for the preset's family,
all moduli fixed: ``sweep_param`` names the angle and the coins it turns,
and ``FAMILY_FIELD`` places the coins.  It records the closed-form
eigenphases wherever the spectrum is nonempty and skips values where the
family formulas degenerate (isolated branch collisions).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .algebra import Coin, TWO_PI, make_coin
from .walk import CoinField, defect_field
from .models import FAMILY_FIELD, ConstraintError, DegeneracyError, ModelReport, family_report

_R = 1.0 / math.sqrt(2.0)
# components of the reflection-free states used with figs 4 and 5
_COS8 = math.sqrt(2.0 + math.sqrt(2.0)) / 2.0
_SIN8 = math.sqrt(2.0 - math.sqrt(2.0)) / 2.0

#: sweep values per full turn of the swept angle
SWEEP_POINTS = 720

#: the angle each ``sweep_param`` turns, and the coins it turns it on
_SWEEPS = {
    "arg_beta_o": ("arg_beta", ("origin",)),
    "arg_beta_p": ("arg_beta", ("plus",)),
    "delta_p": ("delta", ("plus",)),
    "delta": ("delta", ("minus", "plus")),
}


@dataclass(frozen=True)
class FigurePreset:
    """One reference parameter set with its expected qualitative behavior."""

    fig_id: int
    model_id: int
    title: str
    minus: Coin
    origin: Coin
    plus: Coin
    psi: tuple[complex, complex]
    strongly_trapped: bool
    sweep_param: str

    def field(self) -> CoinField:
        return defect_field(self.minus, self.origin, self.plus)

    def report(self, psi: tuple[complex, complex] | None = None) -> ModelReport:
        """Closed-form family report, for the preset state unless overridden."""
        psi = psi if psi is not None else self.psi
        return family_report(self.model_id, self.minus, self.origin, self.plus, psi)

    def _swept(self, val: float) -> tuple[Coin, Coin, Coin]:
        """The family's site coins with the swept angle set to ``val``, every modulus kept."""
        angle, turned = _SWEEPS[self.sweep_param]
        coins = {"minus": self.minus, "origin": self.origin, "plus": self.plus}
        for role in (r for r in turned if r in FAMILY_FIELD[self.model_id]):  # families 1-2 set no plus coin
            c = coins[role]
            beta, delta = (abs(c.beta) * cmath.exp(1j * val), c.delta) if angle == "arg_beta" else (c.beta, val)
            coins[role] = make_coin(c.alpha, beta, delta)
        return tuple(coins[role] for role in FAMILY_FIELD[self.model_id])

    def sweep(self) -> tuple[tuple[float, str, float], ...]:
        """Rows ``(sweep_value, branch, eigenphase)`` over a full angle turn."""
        rows: list[tuple[float, str, float]] = []
        for k in range(SWEEP_POINTS):
            val = k * TWO_PI / SWEEP_POINTS
            try:
                rep = family_report(self.model_id, *self._swept(val), self.psi)
            except (ConstraintError, DegeneracyError):
                continue
            for lam, label in zip(rep.eigenphases, rep.branch_of):
                rows.append((val, label, lam))
        return tuple(rows)


PRESETS: tuple[FigurePreset, ...] = (
    FigurePreset(
        fig_id=1,
        model_id=1,
        title="single defect, origin beta rotated a quarter turn",
        minus=make_coin(_R, _R, 0.0),
        origin=make_coin(_R, 1j * _R, 0.0),
        plus=make_coin(_R, _R, 0.0),
        psi=(_R, _R),
        strongly_trapped=True,
        sweep_param="arg_beta_o",
    ),
    FigurePreset(
        fig_id=2,
        model_id=2,
        title="single defect, quarter-turn coin phase, one live branch",
        minus=make_coin(_R, _R, math.pi / 2),
        origin=make_coin(_R, _R, 0.0),
        plus=make_coin(_R, _R, math.pi / 2),
        psi=(_R, -1j * _R),
        strongly_trapped=False,
        sweep_param="delta",
    ),
    FigurePreset(
        fig_id=3,
        model_id=2,
        title="single defect, half-turn coin phase, both branches live",
        minus=make_coin(_R, _R, math.pi),
        origin=make_coin(_R, _R, 0.0),
        plus=make_coin(_R, _R, math.pi),
        psi=(_R, -1j * _R),
        strongly_trapped=True,
        sweep_param="delta",
    ),
    FigurePreset(
        fig_id=4,
        model_id=3,
        title="two phases, opposite coin phases, matched beta arguments",
        minus=make_coin(_R, _R, 0.0),
        origin=make_coin(_R, _R, math.pi),
        plus=make_coin(_R, _R, math.pi),
        psi=(_COS8, -_SIN8),
        strongly_trapped=False,
        sweep_param="delta_p",
    ),
    FigurePreset(
        fig_id=5,
        model_id=4,
        title="two phases, opposite beta signs, matched coin phases",
        minus=make_coin(_R, _R, 0.0),
        origin=make_coin(_R, -_R, 0.0),
        plus=make_coin(_R, -_R, 0.0),
        psi=(_COS8, _SIN8),
        strongly_trapped=False,
        sweep_param="arg_beta_p",
    ),
    FigurePreset(
        fig_id=6,
        model_id=5,
        title="reflectionless origin between twisted phases, one live branch",
        minus=make_coin(_R, _R, 0.0),
        origin=make_coin(1.0, 0.0, 0.0),
        plus=make_coin(_R, 1j * _R, 0.0),
        psi=(_R, _R * cmath.exp(1j * math.pi / 4)),
        strongly_trapped=False,
        sweep_param="delta",
    ),
    FigurePreset(
        fig_id=7,
        model_id=5,
        title="reflectionless origin between twisted phases, both branches live",
        minus=make_coin(_R, _R, math.pi / 4),
        origin=make_coin(1.0, 0.0, 0.0),
        plus=make_coin(_R, 1j * _R, math.pi / 4),
        psi=(_R, _R),
        strongly_trapped=True,
        sweep_param="delta",
    ),
)


def preset(fig_id: int) -> FigurePreset:
    if not 1 <= fig_id <= len(PRESETS):
        raise ValueError(f"figure id must be 1..{len(PRESETS)}, got {fig_id}")
    return PRESETS[fig_id - 1]
