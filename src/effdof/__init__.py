"""Effective degrees of freedom for weighted sums of variance components.

Public API re-exported from the submodules, each of which lists its public
names in ``__all__``:

* :mod:`effdof.errors` -- the exception raised on degenerate input.
* :mod:`effdof.estimators` -- the df estimators, Kish effective sample size
  and the design effect beside it.
* :mod:`effdof.applications` -- jackknife, multiple-imputation and two-sample
  wrappers around the corrected estimator.
* :mod:`effdof.montecarlo` -- the reproducible chi-square simulation harness.

Only ``errors`` loads with the package. The other three, and their names, load
on first use: ``effdof simulate`` compiles neither the estimators nor the
wrappers, and the closed-form estimators start without numpy or the thread
pool behind the simulation.
"""

__version__ = "0.1.0"

from . import errors
from .errors import *  # noqa: F403

# each name that loads on first use, and each such submodule's own name, mapped
# to that submodule; its __all__ is spelled out so listing the names loads nothing
_LAZY = {name: module for module, names in (
    ("estimators", ("ComponentSet", "DfEstimate", "satterthwaite_df", "corrected_df",
                    "boardman_df", "kish_neff", "design_effect")),
    ("applications", ("MiVariance", "TwoSampleSummary", "jackknife_df", "mi_total_variance",
                      "mi_total_df", "welch_corrected_df", "welch_satterthwaite_df")),
    ("montecarlo", ("SimConfig", "SimCell", "GridResult", "run_grid_detailed")),
) for name in (module, *names)}

__all__ = ["__version__", *errors.__all__,
           *(name for name, module in _LAZY.items() if name != module)]


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    # not ``from . import estimators``: that looks the name up on this package
    # first, which calls this function again without end
    value = importlib.import_module("." + _LAZY[name], __name__)
    if name != _LAZY[name]:
        value = getattr(value, name)
    globals()[name] = value  # a plain attribute from now on: later lookups skip this
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAZY})
