"""Spectral and direct analysis of trapping in two-state walks on the line.

The package splits into six layers:

``algebra``
    validated SU(2)-times-phase coin parameters and exact 2x2 helpers.
``walk``
    direct evolution of the walk operator on a finite light cone,
    probability and time-averaged distributions.
``spectral``
    transfer-matrix point-spectrum machinery: admissible phase arcs,
    eigenphase search, geometric eigenvectors, limit distributions,
    strong-trapping classification.
``models``
    closed-form eigendata for five solvable coin-field families plus the
    single-defect closed form, each cross-checkable against ``spectral``.
``figures``
    pinned parameter presets used by the experiment scripts and the
    verification harness.
``verification``
    end-to-end consistency checks (residuals, phase match, mass
    identity, limit vs simulated distribution, trapping verdicts) with
    JSON-line reports.

The package namespace exports the documented API, the names listed in
the README's Library section; every other public name is imported from
its own module (``qwtrap.spectral.circular_gap``, ``qwtrap.figures.PRESETS``).
"""

from .algebra import Coin, make_coin
from .walk import (
    CoinField,
    Distribution,
    WalkState,
    defect_field,
    evolve,
    probability,
    time_averaged,
    uniform_field,
)
from .spectral import (
    EigenPair,
    GeometricVector,
    analyze,
    build_eigenvector,
    find_eigenphases,
    is_strongly_trapped,
    limit_distribution,
)
from .models import (
    ConstraintError,
    DefectEigenForm,
    DegeneracyError,
    FAMILY_TRAPPING,
    ModelReport,
    defect_closed_form,
    model1,
    model2,
    model3,
    model4,
    model5,
)
from .verification import run_all

__version__ = "0.1.0"

__all__ = [
    "Coin",
    "make_coin",
    "CoinField",
    "Distribution",
    "WalkState",
    "defect_field",
    "uniform_field",
    "evolve",
    "probability",
    "time_averaged",
    "EigenPair",
    "GeometricVector",
    "analyze",
    "build_eigenvector",
    "find_eigenphases",
    "is_strongly_trapped",
    "limit_distribution",
    "ConstraintError",
    "DefectEigenForm",
    "DegeneracyError",
    "FAMILY_TRAPPING",
    "ModelReport",
    "defect_closed_form",
    "model1",
    "model2",
    "model3",
    "model4",
    "model5",
    "run_all",
    "__version__",
]
