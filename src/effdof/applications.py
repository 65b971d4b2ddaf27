"""Application wrappers that map common settings onto the corrected df estimator.

Each wrapper documents the component set it induces and delegates to
:func:`effdof.estimators.corrected_df` (or the classic estimator for the
uncorrected baseline), so the core formulas live in one place.
"""

from __future__ import annotations

import math
import numbers
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass

from .errors import DegenerateComponents
from .estimators import (
    ComponentSet,
    VarianceComponent,
    _unit_scaled,
    corrected_df,
    satterthwaite_df,
)

__all__ = [
    "PseudoValueSet",
    "MiVariance",
    "TwoSampleSummary",
    "jackknife_df",
    "leave_one_out_pseudo_values",
    "mi_total_variance",
    "mi_total_df",
    "welch_corrected_df",
    "welch_satterthwaite_df",
]


def _check_real(name: str, x, *, positive: bool = False) -> None:
    """Raise a ValueError naming ``name`` unless ``x`` is a finite real number
    that is > 0 (``positive``) or >= 0."""
    if not isinstance(x, numbers.Real):
        raise ValueError(f"{name} must be a real number, got {x!r}")
    if not math.isfinite(x) or x < 0 or (positive and x == 0):
        bound = "> 0" if positive else ">= 0"
        raise ValueError(f"{name} must be finite and {bound}, got {x!r}")


@dataclass(frozen=True)
class PseudoValueSet:
    """Leave-one-out recomputations T_k of a statistic.

    Needs at least two values, not all identical (a constant statistic leaves
    the jackknife df as 0/0).
    """

    pseudo_values: tuple[float, ...]

    def __init__(self, pseudo_values: Iterable[float]):
        vals = tuple(float(v) for v in pseudo_values)
        if len(vals) < 2:
            raise ValueError("need at least two pseudo-values")
        if any(not math.isfinite(v) for v in vals):
            raise ValueError("pseudo-values must be finite")
        if all(v == vals[0] for v in vals):
            raise DegenerateComponents(
                "all pseudo-values are identical; jackknife df is undefined"
            )
        object.__setattr__(self, "pseudo_values", vals)

    def __len__(self) -> int:
        return len(self.pseudo_values)


def jackknife_df(pv: PseudoValueSet | Sequence[float]) -> float:
    """Corrected effective df of a jackknife variance estimate.

    With centered deviations d_k = T_k - mean(T), each squared deviation is a
    one-df variance component (the common (K-1)/K factor cancels in the
    ratio), so the corrected estimator collapses to

        3 * (sum d_k^2)^2 / sum d_k^4  -  2.

    Always at least 1, since ``sum d^4 <= (sum d^2)^2``. The pseudo-values
    are rescaled by a power of two first, so any finite magnitude gives the
    same value.
    """
    if not isinstance(pv, PseudoValueSet):
        pv = PseudoValueSet(pv)
    ts = _unit_scaled(pv.pseudo_values)
    mean = math.fsum(ts) / len(ts)
    d2 = [(t - mean) ** 2 for t in ts]
    sum_d2 = math.fsum(d2)
    sum_d4 = math.fsum(x * x for x in d2)
    if sum_d4 == 0.0:
        raise DegenerateComponents(
            "all pseudo-values are identical; jackknife df is undefined"
        )
    return 3.0 * sum_d2 * sum_d2 / sum_d4 - 2.0


def leave_one_out_pseudo_values(
    statistic: Callable[[Sequence[float]], float],
    observations: Sequence[float],
) -> PseudoValueSet:
    """Build the pseudo-values T_k = statistic(observations without the k-th).

    Convenience plumbing for callers holding raw observations; the df formula
    itself only consumes the T_k.
    """
    obs = list(observations)
    if len(obs) < 2:
        raise ValueError("need at least two observations to jackknife")
    return PseudoValueSet(
        statistic(obs[:k] + obs[k + 1:]) for k in range(len(obs))
    )


@dataclass(frozen=True)
class MiVariance:
    """Sampling and imputation variance of a multiply-imputed estimator.

    ``num_imputations`` is the number M of imputed datasets; the imputation
    variance carries M - 1 degrees of freedom. ``sampling_dof`` is supplied by
    the caller (it may itself come from :func:`jackknife_df` when the sampling
    variance is a resampling estimate).
    """

    sampling_variance: float
    sampling_dof: float
    imputation_variance: float
    num_imputations: int

    def __post_init__(self):
        _check_real("sampling_variance", self.sampling_variance)
        _check_real("sampling_dof", self.sampling_dof, positive=True)
        _check_real("imputation_variance", self.imputation_variance)
        if not isinstance(self.num_imputations, int) or isinstance(self.num_imputations, bool):
            raise ValueError("num_imputations must be an integer")
        if self.num_imputations < 2:
            raise ValueError("num_imputations must be at least 2")
        if self.sampling_variance + self.imputation_variance <= 0:
            raise DegenerateComponents(
                "sampling and imputation variance are both zero"
            )

    @property
    def imputation_weight(self) -> float:
        """(M + 1) / M, the inflation on the between-imputation variance
        (identical to the 1 + 1/M convention)."""
        m = self.num_imputations
        return (m + 1) / m


def _mi_components(mi: MiVariance) -> ComponentSet:
    return ComponentSet([
        VarianceComponent(1.0, mi.sampling_variance, mi.sampling_dof),
        VarianceComponent(mi.imputation_weight, mi.imputation_variance,
                          mi.num_imputations - 1),
    ])


def mi_total_variance(mi: MiVariance) -> float:
    """Total variance ``Var(sampling) + (M+1)/M * Var(imputation)``."""
    return mi.sampling_variance + mi.imputation_weight * mi.imputation_variance


def mi_total_df(mi: MiVariance) -> float:
    """Corrected effective df of the multiple-imputation total variance.

    Exactly :func:`corrected_df` on the two components
    ``(1, Var_sampling, nu_sampling)`` and
    ``((M+1)/M, Var_imputation, M-1)``. Collapses to ``sampling_dof`` when the
    imputation variance is zero and to ``M - 1`` when the sampling variance is
    zero.
    """
    return corrected_df(_mi_components(mi)).value


@dataclass(frozen=True)
class TwoSampleSummary:
    """Sizes and sample variances of two independent samples."""

    n1: int
    n2: int
    s1_sq: float
    s2_sq: float

    def __post_init__(self):
        for name, n in (("n1", self.n1), ("n2", self.n2)):
            if not isinstance(n, int) or isinstance(n, bool) or n < 2:
                raise ValueError(f"{name} must be an integer >= 2, got {n!r}")
        _check_real("s1_sq", self.s1_sq)
        _check_real("s2_sq", self.s2_sq)
        if self.s1_sq + self.s2_sq <= 0:
            raise DegenerateComponents("both sample variances are zero")


def _welch_components(ts: TwoSampleSummary) -> ComponentSet:
    # weights 1/N_k on the sample variances, df N_k - 1
    return ComponentSet([
        VarianceComponent(1.0 / ts.n1, ts.s1_sq, ts.n1 - 1),
        VarianceComponent(1.0 / ts.n2, ts.s2_sq, ts.n2 - 1),
    ])


def welch_corrected_df(ts: TwoSampleSummary) -> float:
    """Corrected df for the sample-size weighted pooled variance of two samples.

        (S1^2/N1 + S2^2/N2)^2
        --------------------------------------------------  -  2
        S1^4/(N1^2 (nu1+2)) + S2^4/(N2^2 (nu2+2))

    with nu_i = N_i - 1; exactly :func:`corrected_df` on the induced
    components.
    """
    return corrected_df(_welch_components(ts)).value


def welch_satterthwaite_df(ts: TwoSampleSummary) -> float:
    """Classic (uncorrected) df for the two-sample pooled variance.

    Same weights as :func:`welch_corrected_df` but with the plain ``nu_i``
    denominators and no shift; provided for side-by-side comparison.
    """
    return satterthwaite_df(_welch_components(ts)).value
