"""Independent reference forms the tests compare the library against."""

import math

from effdof import ComponentSet, DegenerateComponents


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
    a = [c.weighted_variance for c in cs]
    if any(x <= 0.0 for x in a):
        raise DegenerateComponents(
            "the harmonic form requires every weighted variance to be positive"
        )
    k = len(a)
    mean_wv = math.fsum(a) / k
    q = [c.dof * (mean_wv / x) ** 2 for x, c in zip(a, cs)]
    return k * (k / math.fsum(1.0 / qk for qk in q))
