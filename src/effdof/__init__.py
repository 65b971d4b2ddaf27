"""Effective degrees of freedom for weighted sums of variance components.

Public API re-exported from the submodules:

* :mod:`effdof.estimators` -- the df estimators, Kish effective sample size
  and the weight summaries beside it.
* :mod:`effdof.applications` -- jackknife, multiple-imputation and two-sample
  wrappers around the corrected estimator.
* :mod:`effdof.montecarlo` -- the reproducible chi-square simulation harness.
"""

__version__ = "0.1.0"

from .applications import (
    MiVariance,
    TwoSampleSummary,
    jackknife_df,
    leave_one_out_pseudo_values,
    mi_total_df,
    mi_total_variance,
    welch_corrected_df,
    welch_satterthwaite_df,
)
from .errors import AllZeroWeights, DegenerateComponents, LengthMismatch, ParseError
from .estimators import (
    ComponentSet,
    DfEstimate,
    Variant,
    boardman_df,
    corrected_df,
    design_effect,
    kish_neff,
    relvariance,
    satterthwaite_df,
)
from .montecarlo import (
    GridResult,
    SimCell,
    SimConfig,
    WeightMode,
    run_grid,
    run_grid_detailed,
    sample_component_variance,
)

__all__ = [
    "__version__",
    "AllZeroWeights",
    "ComponentSet",
    "DegenerateComponents",
    "DfEstimate",
    "GridResult",
    "LengthMismatch",
    "MiVariance",
    "ParseError",
    "SimCell",
    "SimConfig",
    "TwoSampleSummary",
    "Variant",
    "WeightMode",
    "boardman_df",
    "corrected_df",
    "design_effect",
    "jackknife_df",
    "kish_neff",
    "leave_one_out_pseudo_values",
    "mi_total_df",
    "mi_total_variance",
    "relvariance",
    "run_grid",
    "run_grid_detailed",
    "sample_component_variance",
    "satterthwaite_df",
    "welch_corrected_df",
    "welch_satterthwaite_df",
]
