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
    end-to-end consistency checks (residuals, phase match, limit vs
    simulated distribution, mass identities) with JSON-line reports.
"""

from .algebra import (
    Coin,
    TWO_PI,
    coin_matrix,
    make_coin,
)
from .walk import (
    CoinField,
    Distribution,
    WalkState,
    defect_field,
    evolve,
    probability,
    step,
    time_averaged,
    uniform_field,
    window_for,
)
from .spectral import (
    DEDUPE_TOL,
    EigenPair,
    GeometricVector,
    INDEPENDENCE_TOL,
    NoEigenvalueError,
    NotInAdmissibleSetError,
    RESIDUAL_ACCEPT,
    SpectralReport,
    TransferEigen,
    admissible_arcs,
    analyze,
    build_eigenvector,
    contracting_zeta,
    discriminant,
    eigen_residual,
    expanding_zeta,
    find_eigenphases,
    in_admissible_set,
    is_strongly_trapped,
    limit_distribution,
    transfer_eigen,
    transfer_matrix,
    trapped_mass,
)
from .models import (
    ConstraintError,
    DefectEigenForm,
    DegeneracyError,
    FAMILY_ROLES,
    FAMILY_TRAPPING,
    MODEL_FUNCTIONS,
    ModelReport,
    TrappingClass,
    defect_closed_form,
    family_report,
    model1,
    model2,
    model3,
    model4,
    model5,
)
from .figures import FigurePreset, PRESETS, preset
from .verification import CheckReport, run_all, write_reports

__version__ = "0.1.0"

__all__ = [
    "Coin",
    "TWO_PI",
    "coin_matrix",
    "make_coin",
    "CoinField",
    "Distribution",
    "WalkState",
    "defect_field",
    "evolve",
    "probability",
    "step",
    "time_averaged",
    "uniform_field",
    "window_for",
    "DEDUPE_TOL",
    "EigenPair",
    "GeometricVector",
    "INDEPENDENCE_TOL",
    "NoEigenvalueError",
    "NotInAdmissibleSetError",
    "RESIDUAL_ACCEPT",
    "SpectralReport",
    "TransferEigen",
    "admissible_arcs",
    "analyze",
    "build_eigenvector",
    "contracting_zeta",
    "discriminant",
    "eigen_residual",
    "expanding_zeta",
    "find_eigenphases",
    "in_admissible_set",
    "is_strongly_trapped",
    "limit_distribution",
    "transfer_eigen",
    "transfer_matrix",
    "trapped_mass",
    "ConstraintError",
    "DefectEigenForm",
    "DegeneracyError",
    "FAMILY_ROLES",
    "FAMILY_TRAPPING",
    "MODEL_FUNCTIONS",
    "ModelReport",
    "TrappingClass",
    "defect_closed_form",
    "family_report",
    "model1",
    "model2",
    "model3",
    "model4",
    "model5",
    "FigurePreset",
    "PRESETS",
    "preset",
    "CheckReport",
    "run_all",
    "write_reports",
    "__version__",
]
