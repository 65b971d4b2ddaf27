"""Effective degrees of freedom for weighted sums of variance components.

Public API re-exported from the submodules, each of which lists its public
names in ``__all__``:

* :mod:`effdof.errors` -- the exception raised on degenerate input.
* :mod:`effdof.estimators` -- the df estimators, Kish effective sample size
  and the design effect beside it.
* :mod:`effdof.applications` -- jackknife, multiple-imputation and two-sample
  wrappers around the corrected estimator.
* :mod:`effdof.montecarlo` -- the reproducible chi-square simulation harness.

The first three load with the package. ``montecarlo`` and its names load on
first use, so the closed-form estimators start without numpy or the thread
pool behind the simulation.
"""

__version__ = "0.1.0"

from . import applications, errors, estimators
from .applications import *  # noqa: F403
from .errors import *  # noqa: F403
from .estimators import *  # noqa: F403

# montecarlo.__all__, spelled out so listing the names does not load the module
_MONTECARLO_NAMES = ("SimConfig", "SimCell", "GridResult", "run_grid_detailed")

__all__ = ["__version__", *errors.__all__, *estimators.__all__, *applications.__all__,
           *_MONTECARLO_NAMES]


def __getattr__(name: str):
    if name == "montecarlo" or name in _MONTECARLO_NAMES:
        import importlib

        # not ``from . import montecarlo``: that looks the name up on this
        # package first, which calls this function again without end
        montecarlo = importlib.import_module(".montecarlo", __name__)
        return montecarlo if name == "montecarlo" else getattr(montecarlo, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, "montecarlo"})
