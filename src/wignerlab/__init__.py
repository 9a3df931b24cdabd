"""Phase-space analysis of sampled quantum states.

Discrete cross-Wigner transforms computed by per-slice FFT, weighted-norm
integrability verdicts, marginal and covariance extraction with a
transform-side cross-check, and density-matrix ensemble equivalence through
partial isometries.
"""

from .ensemble import (
    ClosureReport,
    DensityMatrix,
    Ensemble,
    EnsembleOperator,
    PartialIsometry,
    build_A,
    density_matrix,
    density_matrix_direct,
    feichtinger_closure_check,
    find_partial_isometry,
    hermite_basis,
    project_to_basis,
    spectral_ensemble,
)
from .grid import (
    CheckError,
    PhaseSpaceField,
    PhaseSpaceGrid,
    PositionGrid,
    SampledState,
    catalog_state,
    field_integral,
    hermite_functions,
    make_grid,
    make_self_reciprocal_grid,
    read_state_csv,
    state_norm,
    state_overlap,
    trapezoid_weights,
    write_state_csv,
)
from .modspace import (
    DivergingStateError,
    WeightedNormReport,
    cutoff_ladder,
    diagnostic_grid_warning,
    feichtinger_diagnostic,
    modulation_norm,
    weighted_l1_norm,
)
from .moments import (
    CovarianceReport,
    MarginalReport,
    characteristic_function,
    covariance,
    marginals,
)
from .wigner import (
    apply_metaplectic,
    cross_wigner,
    hermiticity_residual,
    mixed_wigner,
    overlap_identity_check,
    symplectic_matrix,
    wigner,
)

__version__ = "0.1.0"

__all__ = [
    "CheckError",
    "ClosureReport",
    "CovarianceReport",
    "DensityMatrix",
    "DivergingStateError",
    "Ensemble",
    "EnsembleOperator",
    "MarginalReport",
    "PartialIsometry",
    "PhaseSpaceField",
    "PhaseSpaceGrid",
    "PositionGrid",
    "SampledState",
    "WeightedNormReport",
    "apply_metaplectic",
    "build_A",
    "catalog_state",
    "characteristic_function",
    "covariance",
    "cross_wigner",
    "cutoff_ladder",
    "density_matrix",
    "density_matrix_direct",
    "diagnostic_grid_warning",
    "feichtinger_closure_check",
    "feichtinger_diagnostic",
    "field_integral",
    "find_partial_isometry",
    "hermite_basis",
    "hermite_functions",
    "hermiticity_residual",
    "make_grid",
    "make_self_reciprocal_grid",
    "marginals",
    "mixed_wigner",
    "modulation_norm",
    "overlap_identity_check",
    "project_to_basis",
    "read_state_csv",
    "spectral_ensemble",
    "state_norm",
    "state_overlap",
    "symplectic_matrix",
    "trapezoid_weights",
    "weighted_l1_norm",
    "wigner",
    "write_state_csv",
    "__version__",
]
