"""Cross-validation harness binding the three computation routes.

Every quantity here is computed at least twice: eigenphases by the
closed forms and by the grid solver, limit distributions by the spectral
formula and by averaging the walk over the second half of a finite
horizon, trapping verdicts by the family classification and by the
origin-rank test.  Checks reduce each comparison to a single scalar
metric with a pinned threshold; a check passes exactly when its metric
is finite and at most the threshold.

``run_all`` executes the full battery over the figure catalogue: it solves
each preset's field once and hands that spectrum to every check
(``eigen_residual``, ``phase_match``, ``mass_identity``,
``limit_vs_simulation``, and ``trapping_table``, which counts the routes
whose verdict differs from the catalogue's).  Reports come in canonical
order (check name, then label), so repeated runs produce identical output
byte for byte.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import IO, Iterable, Sequence

from .walk import CoinField, Distribution, WalkState, evolve, time_averaged
from .spectral import (
    RESIDUAL_ACCEPT,
    analyze,
    circular_gap,
    eigen_residual,
    find_eigenphases,  # noqa: F401  (bench/test_bench.py reaches the solver through this module)
    limit_distribution,
    trapped_mass,
    NotInAdmissibleSetError,
)
from .models import TrappingClass
from .figures import PRESETS

PHASE_MATCH_THRESHOLD = 1e-8
# bench/workloads.py::check_average also reads this bound, so tightening it
# changes the benchmark's ``cesaro`` gate too; tests pin the presets tighter.
LIMIT_VS_SIM_THRESHOLD = 0.01
MASS_IDENTITY_THRESHOLD = 1e-10
DEFAULT_HORIZON = 1000
DEFAULT_WINDOW = 20


@dataclass(frozen=True)
class CheckReport:
    """One named comparison; passes iff the metric stays under the threshold."""

    name: str
    label: str
    metric: float
    threshold: float

    @property
    def passed(self) -> bool:
        return math.isfinite(self.metric) and self.metric <= self.threshold

    def to_json(self) -> str:
        return json.dumps(
            {
                "name": self.name,
                "label": self.label,
                "metric": self.metric,
                "threshold": self.threshold,
                "pass": self.passed,
            }
        )


def write_reports(reports: Iterable[CheckReport], stream: IO[str]) -> None:
    """One JSON object per line, in the order given."""
    for rep in reports:
        stream.write(rep.to_json() + "\n")


def check_eigen_residuals(
    field: CoinField, phases: Sequence[float], label: str = ""
) -> tuple[CheckReport, ...]:
    """Residual of the matching generator at each phase; eigenphases give 0."""
    out = []
    for k, lam in enumerate(phases):
        try:
            metric = eigen_residual(field, lam)
        except NotInAdmissibleSetError:
            metric = math.inf
        out.append(
            CheckReport("eigen_residual", f"{label}[{k}]", metric, RESIDUAL_ACCEPT)
        )
    return tuple(out)


def phase_gap(found: Sequence[float], want: Sequence[float]) -> float:
    """Largest circular gap between two phase lists in ``[0, 2*pi)``; ``inf`` if counts differ.

    Both lists are sorted and paired at the cyclic shift with the smallest
    largest gap, so a root that one route puts just below ``2*pi`` and the
    other at 0 is paired across the seam.
    """
    if len(found) != len(want):
        return math.inf
    found, want = sorted(found), sorted(want)
    gaps = (
        max(circular_gap(a, b) for a, b in zip(found, want[k:] + want[:k]))
        for k in range(len(want))
    )
    return min(gaps, default=0.0)


def check_limit_vs_simulation(
    field: CoinField,
    psi: tuple[complex, complex],
    exact: Distribution,
    horizon: int = DEFAULT_HORIZON,
    label: str = "",
) -> CheckReport:
    """Late-window time average from ``psi`` against its limit distribution ``exact``.

    The walk runs ``h = horizon // 2`` steps unrecorded and is then
    averaged over steps ``h .. horizon - 1``.  That average equals the
    Richardson extrapolant ``2 A_T - A_{T/2}`` of the plain averages
    ``A_T`` (exactly so for even ``horizon``), which cancels their
    ``c(x)/T`` remainder.  The metric is the largest pointwise gap on
    ``exact``'s window.  An empty point spectrum makes ``exact``
    identically zero, so the check also covers the escaping (zero
    trapped mass) cases.
    """
    h = horizon // 2
    empirical = time_averaged(evolve(WalkState.point(*psi), field, h), field, horizon - h)
    metric = max(
        abs(empirical.mass_at(x) - exact.mass_at(x)) for x in range(exact.lo, exact.hi + 1)
    )
    return CheckReport("limit_vs_simulation", label, metric, LIMIT_VS_SIM_THRESHOLD)


def run_all(
    horizon: int = DEFAULT_HORIZON,
    window: int = DEFAULT_WINDOW,
) -> tuple[CheckReport, ...]:
    """Full battery over the figure catalogue, canonically ordered."""
    reports: list[CheckReport] = []
    for preset in PRESETS:
        label = f"fig{preset.fig_id}"
        field = preset.field()
        rep = preset.report()
        reports.extend(check_eigen_residuals(field, rep.eigenphases, label))

        spectrum = analyze(field)
        pairs = spectrum.eigenpairs
        gap = phase_gap([p.lam for p in pairs], rep.eigenphases)
        reports.append(CheckReport("phase_match", label, gap, PHASE_MATCH_THRESHOLD))

        initial = WalkState.point(*preset.psi)
        exact = limit_distribution(pairs, initial, window=(-window, window))
        tail = sum(
            abs(vec.overlap(initial)) ** 2 * vec.mass_outside(-window, window)
            for vec in (pair.vector() for pair in pairs)
        )
        mass_gap = abs(exact.total() + tail - trapped_mass(pairs, initial))
        reports.append(
            CheckReport("mass_identity", label, mass_gap, MASS_IDENTITY_THRESHOLD)
        )

        reports.append(check_limit_vs_simulation(field, preset.psi, exact, horizon, label))
        closed = rep.trapping_class is TrappingClass.STRONGLY_TRAPPED
        wrong = sum(v != preset.strongly_trapped for v in (spectrum.strongly_trapped, closed))
        reports.append(CheckReport("trapping_table", label, float(wrong), 0.0))
    return tuple(sorted(reports, key=lambda r: (r.name, r.label)))
