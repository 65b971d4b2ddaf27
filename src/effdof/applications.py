"""Application wrappers that map common settings onto the corrected df estimator.

Each wrapper documents the component set it induces. The MI and two-sample
wrappers delegate to :func:`effdof.estimators.corrected_df` (or the classic
estimator for the uncorrected baseline), so the core formulas live in one
place. :func:`jackknife_df` evaluates the same formula in closed form on
pseudo-values rescaled by a power of two; the tests check that it equals
``corrected_df`` on the induced one-df components.

Inputs are plain numbers: :func:`jackknife_df` takes the pseudo-values as
given, computed by the caller from its statistic, while :class:`MiVariance`
and :class:`TwoSampleSummary` hold the summary numbers of their setting. Every
field goes through the shared checks in :mod:`effdof.errors`, so a string, a
bool or a non-finite value raises a :class:`~effdof.errors.FieldError` naming
the field (and, for a pseudo-value, its 0-based index); integer fields accept
any ``numbers.Integral`` (numpy integers included) except ``bool``.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Iterable

from .errors import DegenerateComponents, _Record, check_int, check_real, check_reals
from .estimators import (
    ComponentSet,
    _all_equal,
    _unit_scaled,
    corrected_df,
    satterthwaite_df,
)

__all__ = [
    "MiVariance",
    "TwoSampleSummary",
    "jackknife_df",
    "mi_total_variance",
    "mi_total_df",
    "welch_corrected_df",
    "welch_satterthwaite_df",
]


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
    same value. The deviations are taken in two passes: d_k = T_k - mean(T),
    then d_k minus their own mean, which removes the rounding of mean(T), so a
    large common offset in the T_k costs no digits.
    """
    ts = check_reals("pseudo-value", pv)
    if len(ts) < 2:
        raise ValueError("need at least two pseudo-values")
    if _all_equal(ts, ts[0]):  # a constant statistic leaves the df as 0/0
        raise DegenerateComponents("all pseudo-values are identical; jackknife df is undefined")
    ts = _unit_scaled(ts)
    n = len(ts)
    mean = math.fsum(ts) / n
    # the corrected two-pass form (Chan, Golub & LeVeque, 1983): t - mean is
    # exact when t is within a factor 2 of the mean (Sterbenz), so the
    # deviations share the mean's rounding error, and their own mean removes it
    ds = [t - mean for t in ts]
    shift = math.fsum(ds) / n
    d2 = [(d := e - shift) * d for e in ds]
    sum_d2 = math.fsum(d2)
    # > 0: the values are not all equal, and scaled so no deviation underflows
    sum_d4 = math.fsum(map(operator.mul, d2, d2))
    return 3.0 * sum_d2 * sum_d2 / sum_d4 - 2.0


class MiVariance(_Record):
    """Sampling and imputation variance of a multiply-imputed estimator.

    ``num_imputations`` is the number M of imputed datasets; the imputation
    variance carries M - 1 degrees of freedom. ``sampling_dof`` is supplied by
    the caller (it may itself come from :func:`jackknife_df` when the sampling
    variance is a resampling estimate). Both variances may be zero: the total
    variance is then 0.0, and :func:`mi_total_df` raises ``DegenerateComponents``.
    """

    __slots__ = ("sampling_variance", "sampling_dof", "imputation_variance",
                 "num_imputations")
    sampling_variance: float
    sampling_dof: float
    imputation_variance: float
    num_imputations: int

    def __init__(self, sampling_variance: float, sampling_dof: float,
                 imputation_variance: float, num_imputations: int):
        sampling_variance = check_real("sampling_variance", sampling_variance, 0.0)
        sampling_dof = check_real("sampling_dof", sampling_dof, 0.0, strict=True)
        imputation_variance = check_real("imputation_variance", imputation_variance, 0.0)
        num_imputations = check_int("num_imputations", num_imputations, 2)
        self._freeze(sampling_variance, sampling_dof, imputation_variance, num_imputations)

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
    """Total variance ``Var(sampling) + (M+1)/M * Var(imputation)``.

    Raises ``OverflowError`` when the total exceeds the largest float.
    """
    total = mi.sampling_variance + mi.imputation_weight * mi.imputation_variance
    if not math.isfinite(total):
        raise OverflowError("total variance overflows a float")
    return total


def mi_total_df(mi: MiVariance) -> float:
    """Corrected effective df of the multiple-imputation total variance.

    Exactly :func:`corrected_df` on the two components
    ``(1, Var_sampling, nu_sampling)`` and
    ``((M+1)/M, Var_imputation, M-1)``. Collapses to ``sampling_dof`` when the
    imputation variance is zero and to ``M - 1`` when the sampling variance is
    zero.
    """
    return corrected_df(_mi_components(mi)).value


class TwoSampleSummary(_Record):
    """Sizes and sample variances of two independent samples. Both variances
    may be zero; the Welch df functions then raise ``DegenerateComponents``."""

    __slots__ = ("n1", "n2", "s1_sq", "s2_sq")
    n1: int
    n2: int
    s1_sq: float
    s2_sq: float

    def __init__(self, n1: int, n2: int, s1_sq: float, s2_sq: float):
        n1, n2 = check_int("n1", n1, 2), check_int("n2", n2, 2)
        s1_sq, s2_sq = check_real("s1_sq", s1_sq, 0.0), check_real("s2_sq", s2_sq, 0.0)
        self._freeze(n1, n2, s1_sq, s2_sq)


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
