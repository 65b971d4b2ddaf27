"""Effective degrees of freedom for weighted sums of variance components.

Public API re-exported from the submodules, each of which lists its public
names in ``__all__``:

* :mod:`effdof.errors` -- the exception types the estimators raise.
* :mod:`effdof.estimators` -- the df estimators, Kish effective sample size
  and the weight summaries beside it.
* :mod:`effdof.applications` -- jackknife, multiple-imputation and two-sample
  wrappers around the corrected estimator.
* :mod:`effdof.montecarlo` -- the reproducible chi-square simulation harness.
"""

__version__ = "0.1.0"

from . import applications, errors, estimators, montecarlo
from .applications import *  # noqa: F403
from .errors import *  # noqa: F403
from .estimators import *  # noqa: F403
from .montecarlo import *  # noqa: F403

__all__ = ["__version__", *errors.__all__, *estimators.__all__, *applications.__all__,
           *montecarlo.__all__]
