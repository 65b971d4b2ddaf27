"""Effective degrees of freedom for weighted sums of independent variance components.

A complex variance estimate is a linear combination

    S^2 = sum_k w_k * S_k^2,    nu_k * S_k^2 / sigma_k^2 ~ chi^2(nu_k),

and the question is which chi-square df best describes S^2. Three
moment-matching answers are implemented:

* ``satterthwaite_df``  -- the classic plug-in ratio
  ``(sum w_k S_k^2)^2 / sum (w_k S_k^2)^2 / nu_k``; biased downward when the
  component df are small.
* ``corrected_df``      -- the same ratio with ``nu_k + 2`` in the denominator
  and a trailing ``- 2``, which accounts for ``E[S^4] = sigma^4 (nu+2)/nu``
  instead of treating fourth moments as known.
* ``boardman_df``       -- the corrected ratio without the ``- 2`` shift.

The module also provides Kish's effective sample size ``(sum w)^2 / sum w^2``
and the weight summaries beside it (relvariance and design effect).

All estimators are scale invariant in the weights, invariant under component
reordering (sums use ``math.fsum``), and pure functions safe for concurrent
use. Degrees of freedom are real-valued throughout; nothing requires
integrality.
"""

from __future__ import annotations

import enum
import math
from collections.abc import Iterable, Sequence
from dataclasses import dataclass

from .errors import AllZeroWeights, DegenerateComponents, LengthMismatch

__all__ = [
    "VarianceComponent",
    "ComponentSet",
    "Variant",
    "DfEstimate",
    "satterthwaite_df",
    "corrected_df",
    "boardman_df",
    "kish_neff",
    "design_effect",
    "relvariance",
]


def _as_float(name: str, x) -> float:
    try:
        value = float(x)
    except (TypeError, ValueError):
        raise ValueError(f"{name} must be a real number, got {x!r}") from None
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")
    return value


@dataclass(frozen=True)
class VarianceComponent:
    """One (weight, variance estimate, df) triple of a complex variance estimate.

    ``variance`` is the component estimate S_k^2 (or a known sigma_k^2), with
    ``dof`` degrees of freedom behind it. Weights and variances must be
    nonnegative; dof must be strictly positive (real-valued is fine).
    """

    weight: float
    variance: float
    dof: float

    def __post_init__(self):
        object.__setattr__(self, "weight", _as_float("weight", self.weight))
        object.__setattr__(self, "variance", _as_float("variance", self.variance))
        object.__setattr__(self, "dof", _as_float("dof", self.dof))
        if self.weight < 0:
            raise ValueError(f"weight must be >= 0, got {self.weight}")
        if self.variance < 0:
            raise ValueError(f"variance must be >= 0, got {self.variance}")
        if self.dof <= 0:
            raise ValueError(f"dof must be > 0, got {self.dof}")

    @property
    def weighted_variance(self) -> float:
        """The product w_k * S_k^2 this component contributes to the sum."""
        return self.weight * self.variance


@dataclass(frozen=True)
class ComponentSet:
    """Ordered collection of variance components entering one combined estimate.

    At least one component must contribute a positive weighted variance;
    otherwise every df estimator is degenerate and construction raises
    :class:`DegenerateComponents`. Components with ``weight * variance == 0``
    are permitted and simply drop out of the sums.
    """

    components: tuple[VarianceComponent, ...]

    def __init__(self, components: Iterable[VarianceComponent]):
        comps = tuple(components)
        if not comps:
            raise ValueError("a ComponentSet needs at least one component")
        for c in comps:
            if not isinstance(c, VarianceComponent):
                raise TypeError(f"expected VarianceComponent, got {type(c).__name__}")
        if all(c.weighted_variance == 0.0 for c in comps):
            raise DegenerateComponents(
                "all weighted variances are zero; df estimators are undefined"
            )
        object.__setattr__(self, "components", comps)

    @classmethod
    def from_arrays(
        cls,
        weights: Sequence[float],
        variances: Sequence[float],
        dofs: Sequence[float],
    ) -> "ComponentSet":
        if not (len(weights) == len(variances) == len(dofs)):
            raise LengthMismatch(
                f"weights ({len(weights)}), variances ({len(variances)}) and "
                f"dofs ({len(dofs)}) must have equal lengths"
            )
        return cls(
            VarianceComponent(w, v, d) for w, v, d in zip(weights, variances, dofs)
        )

    def __len__(self) -> int:
        return len(self.components)

    def __iter__(self):
        return iter(self.components)


class Variant(enum.Enum):
    """Which df estimator produced a :class:`DfEstimate`."""

    SATTERTHWAITE = "satterthwaite"
    CORRECTED = "corrected"
    BOARDMAN = "boardman"

    @property
    def shift(self) -> float:
        """Constant subtracted from the moment ratio (2 for CORRECTED, else 0)."""
        return 2.0 if self is Variant.CORRECTED else 0.0


@dataclass(frozen=True)
class DfEstimate:
    """A df estimate together with the ratio it came from.

    ``value`` equals ``numerator / denominator - variant.shift`` (exactly for
    sets with a single contributing component, to floating precision
    otherwise), where the numerator is ``(sum_k w_k S_k^2)^2`` and the
    denominator is the variant-specific sum.
    """

    variant: Variant
    value: float
    numerator: float
    denominator: float

    def __post_init__(self):
        if self.value <= 0 or not math.isfinite(self.value):
            raise DegenerateComponents(
                f"{self.variant.value} df estimate is not positive "
                f"({self.value!r}); input components are degenerate"
            )


def _checked_weights(weights: Iterable[float]) -> tuple[float, ...]:
    """Finite nonnegative weights as floats, at least one of them positive."""
    ws = tuple(_as_float("weight", w) for w in weights)
    if not ws:
        raise ValueError("a weight vector needs at least one weight")
    if any(w < 0 for w in ws):
        raise ValueError("weights must be nonnegative")
    if all(w == 0.0 for w in ws):
        raise AllZeroWeights("all weights are zero")
    return ws


def _unit_scaled(xs: Sequence[float]) -> list[float]:
    """``xs`` times the power of two that brings max|x| into [0.5, 1).

    Multiplying by a power of two is exact, so a scale-invariant ratio of
    sums of powers of these values equals the unscaled one wherever that
    neither overflows nor underflows, and stays in range where it would.
    """
    _, exponent = math.frexp(max(map(abs, xs)))
    # 2**1023 is the largest power of two a float holds; a subnormal max
    # times it is still at least 2**-51, far from underflow when squared
    factor = math.ldexp(1.0, min(-exponent, 1023))
    return [x * factor for x in xs]


def _single_positive(cs: ComponentSet) -> VarianceComponent | None:
    """The unique component with positive weighted variance, if there is one."""
    found = None
    for c in cs:
        if c.weighted_variance > 0.0:
            if found is not None:
                return None
            found = c
    return found


def _ratio_estimate(cs: ComponentSet, variant: Variant, dof_offset: float) -> DfEstimate:
    """Shared core: numerator (sum_k w_k S_k^2)^2 over sum_k (w_k S_k^2)^2 / (nu_k + offset).

    When only one component contributes, the ratio is exactly nu + offset and
    the estimate is evaluated directly, so single-component sets round-trip
    without floating error.
    """
    only = _single_positive(cs)
    if only is not None:
        # ratio is exactly nu + offset here; evaluating it directly keeps
        # single-component sets (and K=1 in particular) free of rounding
        aa = only.weighted_variance ** 2
        value = only.dof + (dof_offset - variant.shift)
        return DfEstimate(variant, value, aa, aa / (only.dof + dof_offset))
    a = [c.weighted_variance for c in cs]
    numerator = math.fsum(a) ** 2
    denominator = math.fsum(x * x / (c.dof + dof_offset) for x, c in zip(a, cs))
    if denominator == 0.0:
        raise DegenerateComponents(
            "all weighted variances are zero; df estimators are undefined"
        )
    return DfEstimate(variant, numerator / denominator - variant.shift,
                      numerator, denominator)


def satterthwaite_df(cs: ComponentSet) -> DfEstimate:
    """Classic moment-matching df of ``sum_k w_k S_k^2``.

    Returns ``(sum_k w_k S_k^2)^2 / sum_k (w_k S_k^2)^2 / nu_k`` as a
    :class:`DfEstimate`. Always at least ``min_k nu_k``; known to
    underestimate the effective df when the nu_k are small.

    Raises:
        DegenerateComponents: if every weighted variance is zero.
    """
    return _ratio_estimate(cs, Variant.SATTERTHWAITE, 0.0)


def corrected_df(cs: ComponentSet) -> DfEstimate:
    """Small-sample corrected df of ``sum_k w_k S_k^2``.

    Uses ``nu_k + 2`` denominators and subtracts 2 from the ratio:

        (sum_k w_k S_k^2)^2 / sum_k (w_k S_k^2)^2 / (nu_k + 2)  -  2

    The estimate is always at least ``min_k nu_k`` and converges to
    :func:`satterthwaite_df` as the component df grow.

    Raises:
        DegenerateComponents: if every weighted variance is zero.
    """
    return _ratio_estimate(cs, Variant.CORRECTED, 2.0)


def boardman_df(cs: ComponentSet) -> DfEstimate:
    """The corrected ratio without the final ``- 2`` shift.

    Definitionally ``boardman_df(cs).value == corrected_df(cs).value + 2``.
    """
    return _ratio_estimate(cs, Variant.BOARDMAN, 2.0)


def kish_neff(weights) -> float:
    """Kish effective sample size ``(sum_k w_k)^2 / sum_k w_k^2``.

    Equals the number of observations for uniform positive weights (returned
    exactly in that case) and is bounded by 1 below and by the count of
    strictly positive weights above. Weights are rescaled by a power of two
    first, so any finite magnitude gives the same value.

    Raises:
        AllZeroWeights: if every weight is zero.
    """
    ws = _checked_weights(weights)
    if all(w == ws[0] for w in ws):
        return float(len(ws))
    ws = _unit_scaled(ws)
    total = math.fsum(ws)
    return total * total / math.fsum(w * w for w in ws)


def relvariance(weights) -> float:
    """Relative variance of the weights: ``mean((w_k / wbar - 1)^2)``.

    Zero exactly when all weights are equal (returned exactly in that case),
    positive otherwise.

    Raises:
        AllZeroWeights: if every weight is zero.
    """
    ws = _checked_weights(weights)
    if all(w == ws[0] for w in ws):
        return 0.0
    ws = _unit_scaled(ws)
    mean = math.fsum(ws) / len(ws)
    return math.fsum((w / mean - 1.0) ** 2 for w in ws) / len(ws)


def design_effect(weights) -> float:
    """Variance inflation from unequal weighting: ``1 + relvariance(w)``.

    Satisfies ``design_effect(w) * kish_neff(w) == len(w)`` up to floating
    tolerance.
    """
    return 1.0 + relvariance(weights)
