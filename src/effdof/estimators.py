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
and the design effect ``1 + relvariance`` of the weights beside it.

Inputs are plain numbers: the df estimators take a :class:`ComponentSet`
(its docstring lists the checks), the weight summaries any sequence of
weights. A bad entry raises an :class:`~effdof.errors.FieldError` carrying its
``field`` and 0-based ``index``, e.g. ``index 1: weight must be >= 0, got
-1.0``. A set forms the sums of the df estimators' ratio when it is built,
and only an estimator that needs a sum that over- or underflows raises.

All estimators are scale invariant in the weights, invariant under component
reordering (sums use ``math.fsum``), and pure functions safe for concurrent
use. The weight summaries scale the weights by a power of two only when
some weight lies outside [2**-250, 2**250] (or is zero): inside that range
every sum, square and quotient they form is a normal float, where scaling by
a power of two changes no bit, and outside it the scaling keeps them in
range. Degrees of freedom are real-valued throughout; nothing requires
integrality.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Iterable, Sequence
from itertools import compress, count, repeat

from .errors import DegenerateComponents, _Record, check_reals

__all__ = [
    "ComponentSet",
    "DfEstimate",
    "satterthwaite_df",
    "corrected_df",
    "boardman_df",
    "kish_neff",
    "design_effect",
]


class ComponentSet(_Record):
    """The (w_k, S_k^2, nu_k) triples entering one combined estimate, as three tuples.

    ``weights[k]``, ``variances[k]`` and ``dofs[k]`` belong to component k:
    ``variances[k]`` is the estimate S_k^2 (or a known sigma_k^2) with
    ``dofs[k]`` degrees of freedom behind it. Construction checks the three
    equal-length sequences and stores them as tuples of floats. Every weight
    and variance must be a finite real number >= 0 and every dof a finite
    real number > 0 (``bool`` and strings are refused). The weights are
    checked first, then the variances, then the dofs; the first bad entry
    raises a :class:`~effdof.errors.FieldError` whose ``field`` is
    ``"weight"``, ``"variance"`` or ``"dof"`` and whose ``index`` is the
    0-based component, with the message ``component 3: dof must be > 0, got
    0.0`` for example. Components with a zero weight or variance are
    permitted and drop out of the sums, but at least one must have both
    positive, else :class:`DegenerateComponents` (the one degenerate-set
    check). Sequences of different lengths raise a ``ValueError``.

    A set forms its ratio's numerator and both denominators, the classic one
    over nu_k and the corrected one over nu_k + 2, when it is built, and is
    never written to again, so threads may share it. Each sum is kept as the
    float it rounds to (``inf`` or ``0.0`` outside the float range): only an
    estimator that needs it raises. A lone contributor (the only positive
    product, or where every product underflows the only positive pair) has an
    exact df even if its sums read 0.0.
    """

    __slots__ = ("weights", "variances", "dofs", "_numerator", "_classic", "_corrected",
                 "_only")
    weights: tuple[float, ...]
    variances: tuple[float, ...]
    dofs: tuple[float, ...]

    def __init__(self, weights: Sequence[float], variances: Sequence[float],
                 dofs: Sequence[float]):
        if not (len(weights) == len(variances) == len(dofs)):
            raise ValueError(f"weights ({len(weights)}), variances ({len(variances)}) "
                             f"and dofs ({len(dofs)}) must have equal lengths")
        weights = check_reals("weight", weights, 0.0, label="component")
        variances = check_reals("variance", variances, 0.0, label="component")
        dofs = check_reals("dof", dofs, 0.0, strict=True, label="component")
        if not weights:
            raise ValueError("a ComponentSet needs at least one component")
        products = tuple(map(operator.mul, weights, variances))
        # the contributors: the positive products, or, where every product
        # underflows, the positive (w, v) pairs; a set with none is degenerate
        contributors = compress(count(), products if any(products)
                                else map(min, weights, variances))
        only, second = next(contributors, None), next(contributors, None)
        if only is None:
            raise DegenerateComponents("all weighted variances are zero; df estimators are undefined")
        squares = tuple(map(operator.mul, products, products))
        self._freeze(weights, variances, dofs, _fsum(products, square=True),
                     # d + 0.0 == d for every dof d > 0, so the classic form skips the add
                     _fsum(map(operator.truediv, squares, dofs)),
                     _fsum(map(operator.truediv, squares, map(operator.add, dofs, repeat(2.0)))),
                     only if second is None else None)


# the constructor under another name, which perfbench's library workload calls
ComponentSet.from_arrays = ComponentSet


class DfEstimate(_Record):
    """A df estimate together with the ratio it came from.

    ``variant`` names the estimator: ``"satterthwaite"``, ``"corrected"`` or
    ``"boardman"``. ``value`` equals ``numerator / denominator - shift`` to
    floating precision, where the numerator is ``(sum_k w_k S_k^2)^2``, the
    denominator is ``sum_k (w_k S_k^2)^2 / (nu_k + offset)``, and the offset
    and shift are 0 and 0 (satterthwaite), 2 and 2 (corrected) or 2 and 0
    (boardman). With a single contributing component ``value`` is exact, even
    when its product underflows, and the two sums may read ``inf`` or ``0.0``.
    A ``value`` outside (0, inf) raises ``OverflowError``: it comes from an
    overflow, an underflow or the ``- 2`` cancelling, never from degenerate
    input.
    """

    __slots__ = ("variant", "value", "numerator", "denominator")
    variant: str
    value: float
    numerator: float
    denominator: float

    def __init__(self, variant: str, value: float, numerator: float, denominator: float):
        if not 0.0 < value < math.inf:
            raise OverflowError(f"{variant} df estimate overflows a float"
                                if value == math.inf else
                                f"{variant} df estimate is not positive ({value!r})")
        self._freeze(variant, value, numerator, denominator)


def _all_equal(xs: tuple[float, ...], value: float) -> bool:
    """Whether every entry of the nonempty ``xs`` equals ``value``.

    ``count`` compares in C; testing the last entry first settles the usual
    unequal case without a scan.
    """
    return xs[-1] == value and xs.count(value) == len(xs)


def _require_positive_weight(ws: tuple[float, ...]) -> None:
    """Raise unless the checked weights ``ws`` hold at least one positive entry."""
    if not ws:
        raise ValueError("a weight vector needs at least one weight")
    if _all_equal(ws, 0.0):
        raise DegenerateComponents("all weights are zero")


def _unit_scaled(xs: Sequence[float]) -> list[float]:
    """``xs`` times the power of two that brings max|x| into [0.5, 1).

    Multiplying by a power of two is exact, so a scale-invariant ratio of
    sums of powers of these values equals the unscaled one wherever that
    neither overflows nor underflows, and stays in range where it would.
    """
    # max|x| without a float per entry: the larger of max(xs) and -min(xs)
    _, exponent = math.frexp(max(max(xs), -min(xs)))
    # 2**1023 is the largest power of two a float holds; a subnormal max
    # times it is still at least 2**-51, far from underflow when squared
    factor = math.ldexp(1.0, min(-exponent, 1023))
    return [x * factor for x in xs]


def _scaled_if_needed(ws: tuple[float, ...]) -> Sequence[float]:
    """The weights ``ws`` for the weight summaries: ``ws`` itself when every
    weight lies in [2**-250, 2**250], else :func:`_unit_scaled` of them (a zero
    weight is outside).

    Inside that range the squares lie in [2**-500, 2**500]. Unit-scaled, the
    largest weight is in [0.5, 1) and none is below 2**-500 of it, so they lie
    in [2**-501, 1) and their squares in [2**-1002, 1). Every sum, square and
    quotient the summaries form is then a normal float with or without the
    scaling, and there a correctly rounded operation (``fsum`` included)
    commutes with a power of two: skipping the scaling changes no bit.
    """
    if 2.0 ** -250 <= min(ws) and max(ws) <= 2.0 ** 250:
        return ws
    return _unit_scaled(ws)


def _fsum(xs: Iterable[float], square: bool = False) -> float:
    """``math.fsum(xs)``, squared if ``square``; ``inf`` where that overflows."""
    try:
        total = math.fsum(xs)
        # ** 2, not *: * moves the last bit of some typical estimates (ROADMAP, Settled)
        return total ** 2 if square else total
    except OverflowError:
        return math.inf


def _ratio_estimate(cs: ComponentSet, variant: str, denominator: float, offset: float,
                    shift: float) -> DfEstimate:
    """Shared core: (sum_k w_k S_k^2)^2 over sum_k (w_k S_k^2)^2 / (nu_k + offset),
    minus ``shift``, as the :class:`DfEstimate` named ``variant``.

    The numerator comes from ``cs``, and ``denominator`` is the one of its two
    sums that matches ``offset``. Unless a single component contributes, whose
    estimate is exact, a sum outside (0, inf) raises an ``OverflowError``
    naming the variant and the sum, e.g. ``satterthwaite df denominator
    overflows a float`` or ``corrected df numerator underflows to zero``.
    """
    numerator = cs._numerator
    if cs._only is not None:
        # with one contributor the ratio is exactly nu + offset, whatever its
        # sums read: single-component sets (K=1 in particular) are free of
        # rounding
        dof = cs.dofs[cs._only]
        return DfEstimate(variant, dof + (offset - shift), numerator,
                          numerator / (dof + offset))
    for name, total in (("numerator", numerator), ("denominator", denominator)):
        if not 0.0 < total < math.inf:
            fault = "overflows a float" if total else "underflows to zero"
            raise OverflowError(f"{variant} df {name} {fault}")
    return DfEstimate(variant, numerator / denominator - shift, numerator, denominator)


def satterthwaite_df(cs: ComponentSet) -> DfEstimate:
    """Classic moment-matching df of ``sum_k w_k S_k^2``.

    Returns ``(sum_k w_k S_k^2)^2 / sum_k (w_k S_k^2)^2 / nu_k`` as a
    :class:`DfEstimate`. Always at least ``min_k nu_k``; known to
    underestimate the effective df when the nu_k are small.

    Raises:
        OverflowError: if a sum or the estimate leaves the float range.
    """
    return _ratio_estimate(cs, "satterthwaite", cs._classic, 0.0, 0.0)


def corrected_df(cs: ComponentSet) -> DfEstimate:
    """Small-sample corrected df of ``sum_k w_k S_k^2``.

    Uses ``nu_k + 2`` denominators and subtracts 2 from the ratio:

        (sum_k w_k S_k^2)^2 / sum_k (w_k S_k^2)^2 / (nu_k + 2)  -  2

    The estimate is always at least ``min_k nu_k`` and converges to
    :func:`satterthwaite_df` as the component df grow.

    Raises:
        OverflowError: if a sum or the estimate leaves the float range, or
            the ``- 2`` cancels to an estimate that is not positive.
    """
    return _ratio_estimate(cs, "corrected", cs._corrected, 2.0, 2.0)


def boardman_df(cs: ComponentSet) -> DfEstimate:
    """The corrected ratio without the final ``- 2`` shift.

    Definitionally ``boardman_df(cs).value == corrected_df(cs).value + 2``.
    """
    return _ratio_estimate(cs, "boardman", cs._corrected, 2.0, 0.0)


def kish_neff(weights) -> float:
    """Kish effective sample size ``(sum_k w_k)^2 / sum_k w_k^2``.

    Equals the number of observations for uniform positive weights (returned
    exactly in that case) and is bounded by 1 below and by the count of
    strictly positive weights above. Any finite magnitude gives the same
    value: when a weight lies outside [2**-250, 2**250] (or is zero), the
    weights are scaled by a power of two first; inside that range the scaling
    would change no bit, so it is skipped.

    Raises:
        DegenerateComponents: if every weight is zero.
    """
    return _kish_neff(check_reals("weight", weights, 0.0))


def _kish_neff(ws: tuple[float, ...]) -> float:
    """:func:`kish_neff` of weights already through ``check_reals``."""
    _require_positive_weight(ws)
    if _all_equal(ws, ws[0]):
        return float(len(ws))
    ws = _scaled_if_needed(ws)
    total = math.fsum(ws)
    return total * total / math.fsum(map(operator.mul, ws, ws))


def _relvariance(ws: tuple[float, ...]) -> float:
    """Relative variance ``mean((w_k / wbar - 1)^2)`` of weights already through
    ``check_reals``: exactly 0.0 when all are equal, positive otherwise."""
    _require_positive_weight(ws)
    if _all_equal(ws, ws[0]):
        return 0.0
    ws = _scaled_if_needed(ws)
    mean = math.fsum(ws) / len(ws)
    return math.fsum((w / mean - 1.0) ** 2 for w in ws) / len(ws)


def design_effect(weights) -> float:
    """Variance inflation from unequal weighting: ``1 + relvariance(w)``, the
    relvariance being ``mean((w_k / wbar - 1)^2)`` (Kish, 1965).

    Exactly 1.0 for equal weights; ``design_effect(w) * kish_neff(w) ==
    len(w)`` up to floating tolerance. Scaled like :func:`kish_neff`.

    Raises:
        DegenerateComponents: if every weight is zero.
    """
    return 1.0 + _relvariance(check_reals("weight", weights, 0.0))
