"""Application wrappers that map common settings onto the corrected df estimator.

Each wrapper documents the component set it induces and delegates to
:func:`effdof.estimators.corrected_df` (or the classic estimator for the
uncorrected baseline), so the core formulas live in one place.

Inputs are plain numbers: :func:`jackknife_df` takes a sequence of
pseudo-values (and :func:`leave_one_out_pseudo_values` returns them as a tuple
of floats), while :class:`MiVariance` and :class:`TwoSampleSummary` hold the
summary numbers of their setting. Every field goes through the shared checks
in :mod:`effdof.errors`, so a string, a bool or a non-finite value raises a
ValueError naming the field; integer fields accept any ``numbers.Integral``
(numpy integers included) except ``bool``.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass

from .errors import DegenerateComponents, check_int, check_real
from .estimators import (
    ComponentSet,
    _unit_scaled,
    corrected_df,
    satterthwaite_df,
)

__all__ = [
    "MiVariance",
    "TwoSampleSummary",
    "jackknife_df",
    "leave_one_out_pseudo_values",
    "mi_total_variance",
    "mi_total_df",
    "welch_corrected_df",
    "welch_satterthwaite_df",
]


def _checked_pseudo_values(values: Iterable[float]) -> tuple[float, ...]:
    """Finite real pseudo-values as floats: at least two, not all identical
    (a constant statistic leaves the jackknife df as 0/0)."""
    ts = tuple(check_real("pseudo-value", v) for v in values)
    if len(ts) < 2:
        raise ValueError("need at least two pseudo-values")
    if all(t == ts[0] for t in ts):
        raise DegenerateComponents(
            "all pseudo-values are identical; jackknife df is undefined"
        )
    return ts


def jackknife_df(pv: Iterable[float]) -> float:
    """Corrected effective df of a jackknife variance estimate.

    ``pv`` holds the pseudo-values, the leave-one-out recomputations T_k of
    a statistic: at least two finite real numbers, not all identical. With
    centered deviations d_k = T_k - mean(T), each squared deviation is a
    one-df variance component (the common (K-1)/K factor cancels in the
    ratio), so the corrected estimator collapses to

        3 * (sum d_k^2)^2 / sum d_k^4  -  2.

    Always at least 1, since ``sum d^4 <= (sum d^2)^2``. The pseudo-values
    are rescaled by a power of two first, so any finite magnitude gives the
    same value.
    """
    ts = _unit_scaled(_checked_pseudo_values(pv))
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
) -> tuple[float, ...]:
    """The pseudo-values T_k = statistic(observations without the k-th), as floats.

    Convenience plumbing for callers holding raw observations; the df formula
    itself only consumes the T_k. They get the same checks as the input of
    :func:`jackknife_df`.
    """
    obs = list(observations)
    if len(obs) < 2:
        raise ValueError("need at least two observations to jackknife")
    return _checked_pseudo_values(
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
        for name, positive in (("sampling_variance", False), ("sampling_dof", True),
                               ("imputation_variance", False)):
            value = check_real(name, getattr(self, name), 0.0, strict=positive)
            object.__setattr__(self, name, value)
        object.__setattr__(self, "num_imputations",
                           check_int("num_imputations", self.num_imputations, 2))
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
    return ComponentSet((1.0, mi.imputation_weight),
                        (mi.sampling_variance, mi.imputation_variance),
                        (mi.sampling_dof, mi.num_imputations - 1))


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
        for name in ("n1", "n2"):
            object.__setattr__(self, name, check_int(name, getattr(self, name), 2))
        for name in ("s1_sq", "s2_sq"):
            object.__setattr__(self, name, check_real(name, getattr(self, name), 0.0))
        if self.s1_sq + self.s2_sq <= 0:
            raise DegenerateComponents("both sample variances are zero")


def _welch_components(ts: TwoSampleSummary) -> ComponentSet:
    # weights 1/N_k on the sample variances, df N_k - 1
    return ComponentSet((1.0 / ts.n1, 1.0 / ts.n2), (ts.s1_sq, ts.s2_sq),
                        (ts.n1 - 1, ts.n2 - 1))


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
