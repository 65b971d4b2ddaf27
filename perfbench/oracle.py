"""Exact rational reference values for the estimators, independent of the package.

Every input float is an exact binary fraction, so sums and ratios are computed
in integers and ``fractions.Fraction`` without rounding. The formulas are the
documented ones (README "What it computes"); nothing here calls effdof.
"""

from __future__ import annotations

from collections import defaultdict
from fractions import Fraction


def _scaled(xs) -> tuple[list[int], int]:
    """Integers X_k and one power of two D with x_k = X_k / D exactly."""
    pairs = [float(x).as_integer_ratio() for x in xs]
    den = max(q for _, q in pairs)
    return [p * (den // q) for p, q in pairs], den


def _ratio(a: list, dofs, offset) -> tuple[Fraction, Fraction, Fraction]:
    """(sum a)^2 / sum a^2 / (dof + offset) with its numerator and denominator."""
    groups: dict = defaultdict(int)
    for x, d in zip(a, dofs):  # one division per distinct dof keeps this fast
        groups[d] += x * x
    numerator = Fraction(sum(a)) ** 2
    denominator = sum((Fraction(s) / (Fraction(d) + offset) for d, s in groups.items()),
                      Fraction(0))
    return numerator / denominator, numerator, denominator


def df_estimates(weights, variances, dofs) -> dict[str, tuple[Fraction, Fraction, Fraction]]:
    """Exact (value, numerator, denominator) of the three df estimators."""
    w, w_den = _scaled(weights)
    v, v_den = _scaled(variances)
    a = [x * y for x, y in zip(w, v)]  # w_k v_k times (w_den v_den)
    scale = Fraction(1, (w_den * v_den) ** 2)
    ratio, num, den = _ratio(a, dofs, 0)
    satt = (ratio, num * scale, den * scale)
    ratio, num, den = _ratio(a, dofs, 2)
    return {
        "satterthwaite": satt,
        "corrected": (ratio - 2, num * scale, den * scale),
        "boardman": (ratio, num * scale, den * scale),
    }


def kish_and_deff(weights) -> tuple[Fraction, Fraction]:
    """Kish n_eff (sum w)^2 / sum w^2 and design effect 1 + relvariance(w).

    The design effect equals K sum w^2 / (sum w)^2, which makes the identity
    ``kish * deff == K`` exact.
    """
    w, _ = _scaled(weights)
    total, squares = sum(w), sum(x * x for x in w)
    return Fraction(total * total, squares), Fraction(len(w) * squares, total * total)


def jackknife(values) -> Fraction:
    """3 (sum d^2)^2 / sum d^4 - 2 with d the deviations from the mean."""
    t, _ = _scaled(values)
    n, total = len(t), sum(t)
    d2 = [(n * x - total) ** 2 for x in t]  # n * 2**e * d_k, squared
    return Fraction(3 * sum(d2) ** 2, sum(x * x for x in d2)) - 2


def mi(sampling_variance, sampling_dof, imputation_variance, m) -> tuple[Fraction, Fraction]:
    """Total variance and corrected df of a multiple-imputation estimate."""
    a = [Fraction(sampling_variance), Fraction(m + 1, m) * Fraction(imputation_variance)]
    value = _ratio(a, [sampling_dof, m - 1], 2)[0] - 2
    return a[0] + a[1], value


def welch(n1, n2, s1_sq, s2_sq) -> tuple[Fraction, Fraction]:
    """Classic and corrected df of S1^2/N1 + S2^2/N2 with df N_k - 1."""
    a = [Fraction(s1_sq) / n1, Fraction(s2_sq) / n2]
    dofs = [n1 - 1, n2 - 1]
    return _ratio(a, dofs, 0)[0], _ratio(a, dofs, 2)[0] - 2


def close(value: float, exact: Fraction, rel: float = 1e-10) -> bool:
    """``value`` agrees with the exact result to ``rel`` relative error."""
    return abs(Fraction(value) - exact) <= rel * abs(exact)
