"""Independent reference forms the tests compare the library against."""

import math

import numpy as np

from effdof import ComponentSet, DegenerateComponents

# E[mean_satt] of the ideal-case cell K = 2 in closed form, keyed by nu. With
# two components of df nu, p = a_1 / (a_1 + a_2) ~ Beta(nu/2, nu/2) and the
# classic df is nu / (p^2 + (1 - p)^2), so its mean is
# nu * E[1 / (p^2 + (1 - p)^2)]; for nu = 2 (p uniform) that is pi, and for
# nu = 1 (p arcsine distributed) sqrt(2)
K2_MEAN_SATT = {1.0: math.sqrt(2.0), 2.0: math.pi, 4.0: 6.0 * math.pi - 12.0,
                8.0: 70.0 * math.pi - 616.0 / 3.0}


def satterthwaite_df_harmonic(cs: ComponentSet) -> float:
    """Harmonic-mean form of :func:`effdof.satterthwaite_df`, kept as a cross-check.

    Writing m for the mean weighted variance, the classic estimate equals
    ``K * H(q_k)`` with ``q_k = nu_k * (m / (w_k S_k^2))^2`` and H the harmonic
    mean. The algebra divides by each weighted variance, so every
    ``w_k * S_k^2`` must be strictly positive here even though
    :func:`effdof.satterthwaite_df` tolerates zeros.

    Raises:
        DegenerateComponents: if any ``w_k * S_k^2`` is zero.
    """
    a = [w * v for w, v in zip(cs.weights, cs.variances)]
    if any(x <= 0.0 for x in a):
        raise DegenerateComponents(
            "the harmonic form requires every weighted variance to be positive"
        )
    k = len(a)
    mean_wv = math.fsum(a) / k
    q = [d * (mean_wv / x) ** 2 for x, d in zip(a, cs.dofs)]
    return k * (k / math.fsum(1.0 / qk for qk in q))


def k2_mean_satt_quadrature(nu: float, nodes: int = 400) -> float:
    """E[mean_satt] of the ideal-case cell K = 2 by Gauss-Legendre quadrature
    over p ~ Beta(nu/2, nu/2), a cross-check of :data:`K2_MEAN_SATT`.

    For a whole shape nu/2 >= 1 the Beta density is a polynomial, so the rule
    converges fast. Below shape c = nu/2 = 1 the density is singular at 0 and
    1, so the rule runs over (0, 1/2), doubled as the integrand is symmetric
    about 1/2, in s with p = s^(1/c) / 2 (that is s^(2/nu) / 2), which turns
    p^(c - 1) dp into the constant 2^-c / c ds. Other shapes keep endpoint
    terms that the rule resolves poorly.
    """
    c = nu / 2.0
    x, w = np.polynomial.legendre.leggauss(nodes)
    log_beta = 2.0 * math.lgamma(c) - math.lgamma(2.0 * c)
    if c < 1.0:
        p = ((x + 1.0) / 2.0) ** (1.0 / c) / 2.0
        density = np.exp((c - 1.0) * np.log1p(-p) - log_beta) * 2.0 ** -c / c * 2.0
    else:
        p = (x + 1.0) / 2.0
        density = np.exp((c - 1.0) * np.log(p * (1.0 - p)) - log_beta)
    return nu * float(np.sum(w / 2.0 * density / (p * p + (1.0 - p) ** 2)))
