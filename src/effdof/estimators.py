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

Inputs are plain numbers. The df estimators take a :class:`ComponentSet`,
three float tuples ``weights``, ``variances`` and ``dofs`` checked on
construction; the weight summaries take any sequence of weights. Every entry
must be a finite real number (``bool`` and strings are refused), and a bad one
raises a ValueError naming it, e.g. ``component 3: dof must be > 0, got 0.0``.

All estimators are scale invariant in the weights, invariant under component
reordering (sums use ``math.fsum``), and pure functions safe for concurrent
use. Degrees of freedom are real-valued throughout; nothing requires
integrality.
"""

from __future__ import annotations

import enum
import math
import operator
from collections.abc import Iterable, Sequence
from dataclasses import dataclass

from .errors import (AllZeroWeights, DegenerateComponents, LengthMismatch,
                     check_real)

__all__ = [
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


def _check_field(field: str, x) -> float:
    """One ``weight``, ``variance`` or ``dof`` entry as a float.

    Weights and variances must be finite and >= 0, dofs finite and > 0
    (real-valued is fine); the ValueError names the field.
    """
    return check_real(field, x, 0.0, strict=field == "dof")


@dataclass(frozen=True)
class ComponentSet:
    """The (w_k, S_k^2, nu_k) triples entering one combined estimate, as three tuples.

    ``weights[k]``, ``variances[k]`` and ``dofs[k]`` belong to component k:
    ``variances[k]`` is the estimate S_k^2 (or a known sigma_k^2) with
    ``dofs[k]`` degrees of freedom behind it. Construction checks every entry
    (see :meth:`from_arrays`) and stores the three tuples as floats.
    """

    weights: tuple[float, ...]
    variances: tuple[float, ...]
    dofs: tuple[float, ...]

    def __init__(self, weights: Sequence[float], variances: Sequence[float],
                 dofs: Sequence[float]):
        if not (len(weights) == len(variances) == len(dofs)):
            raise LengthMismatch(
                f"weights ({len(weights)}), variances ({len(variances)}) and "
                f"dofs ({len(dofs)}) must have equal lengths"
            )
        ws, vs, ds = [], [], []
        for k, (w, v, d) in enumerate(zip(weights, variances, dofs)):
            try:
                ws.append(_check_field("weight", w))
                vs.append(_check_field("variance", v))
                ds.append(_check_field("dof", d))
            except ValueError as exc:
                raise ValueError(f"component {k}: {exc}") from None
        if not ws:
            raise ValueError("a ComponentSet needs at least one component")
        if not any(map(operator.mul, ws, vs)):
            raise DegenerateComponents(
                "all weighted variances are zero; df estimators are undefined"
            )
        object.__setattr__(self, "weights", tuple(ws))
        object.__setattr__(self, "variances", tuple(vs))
        object.__setattr__(self, "dofs", tuple(ds))

    @classmethod
    def from_arrays(
        cls,
        weights: Sequence[float],
        variances: Sequence[float],
        dofs: Sequence[float],
    ) -> "ComponentSet":
        """Check the three equal-length sequences in one pass and build the set.

        Every weight and variance must be a finite real number >= 0 and every
        dof a finite real number > 0 (``bool`` and strings are refused). A
        bad entry raises a ValueError naming its 0-based index and field, for
        example ``component 3: dof must be > 0, got 0.0``. Components with
        ``weight * variance == 0`` are permitted and drop out of the sums,
        but at least one must be positive, else :class:`DegenerateComponents`.

        Raises:
            LengthMismatch: if the sequences differ in length.
        """
        return cls(weights, variances, dofs)

    def __len__(self) -> int:
        return len(self.weights)


class Variant(enum.Enum):
    """Which df estimator produced a :class:`DfEstimate`, with the two constants
    that define it: ``dof_offset`` added to each nu_k in the denominator and
    ``shift`` subtracted from the ratio."""

    SATTERTHWAITE = ("satterthwaite", 0.0, 0.0)
    CORRECTED = ("corrected", 2.0, 2.0)
    BOARDMAN = ("boardman", 2.0, 0.0)

    def __new__(cls, value: str, dof_offset: float, shift: float):
        member = object.__new__(cls)
        member._value_ = value
        member.dof_offset = dof_offset
        member.shift = shift
        return member


@dataclass(frozen=True)
class DfEstimate:
    """A df estimate together with the ratio it came from.

    ``value`` equals ``numerator / denominator - variant.shift`` (exactly for
    sets with a single contributing component, to floating precision
    otherwise), where the numerator is ``(sum_k w_k S_k^2)^2`` and the
    denominator is ``sum_k (w_k S_k^2)^2 / (nu_k + variant.dof_offset)``.
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
    ws = tuple(check_real("weight", w) for w in weights)
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


def _single_positive(a: Sequence[float]) -> int | None:
    """Index of the only positive entry of ``a``, if there is exactly one."""
    found = None
    for k, x in enumerate(a):
        if x > 0.0:
            if found is not None:
                return None
            found = k
    return found


def _ratio_estimate(cs: ComponentSet, variant: Variant) -> DfEstimate:
    """Shared core: (sum_k w_k S_k^2)^2 over sum_k (w_k S_k^2)^2 / (nu_k + dof_offset),
    minus the shift, with both constants taken from ``variant``.
    """
    offset = variant.dof_offset
    a = list(map(operator.mul, cs.weights, cs.variances))
    only = _single_positive(a)
    if only is not None:
        # ratio is exactly nu + offset here; evaluating it directly keeps
        # single-component sets (and K=1 in particular) free of rounding
        aa = a[only] ** 2
        dof = cs.dofs[only]
        value = dof + (offset - variant.shift)
        return DfEstimate(variant, value, aa, aa / (dof + offset))
    numerator = math.fsum(a) ** 2
    denominator = math.fsum(x * x / (d + offset) for x, d in zip(a, cs.dofs))
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
    return _ratio_estimate(cs, Variant.SATTERTHWAITE)


def corrected_df(cs: ComponentSet) -> DfEstimate:
    """Small-sample corrected df of ``sum_k w_k S_k^2``.

    Uses ``nu_k + 2`` denominators and subtracts 2 from the ratio:

        (sum_k w_k S_k^2)^2 / sum_k (w_k S_k^2)^2 / (nu_k + 2)  -  2

    The estimate is always at least ``min_k nu_k`` and converges to
    :func:`satterthwaite_df` as the component df grow.

    Raises:
        DegenerateComponents: if every weighted variance is zero.
    """
    return _ratio_estimate(cs, Variant.CORRECTED)


def boardman_df(cs: ComponentSet) -> DfEstimate:
    """The corrected ratio without the final ``- 2`` shift.

    Definitionally ``boardman_df(cs).value == corrected_df(cs).value + 2``.
    """
    return _ratio_estimate(cs, Variant.BOARDMAN)


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
