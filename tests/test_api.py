"""The package's public names: each submodule's ``__all__``, re-exported once."""

import effdof
from effdof import applications, errors, estimators, montecarlo

PUBLIC = {
    "__version__",
    # errors
    "AllZeroWeights", "DegenerateComponents", "LengthMismatch", "ParseError",
    # estimators
    "ComponentSet", "DfEstimate", "Variant", "boardman_df", "corrected_df",
    "design_effect", "kish_neff", "relvariance", "satterthwaite_df",
    # applications
    "MiVariance", "TwoSampleSummary", "jackknife_df", "leave_one_out_pseudo_values",
    "mi_total_df", "mi_total_variance", "welch_corrected_df", "welch_satterthwaite_df",
    # montecarlo
    "GridResult", "SimCell", "SimConfig", "WeightMode", "run_grid_detailed",
    "sample_component_variance",
}


def test_public_names_are_exactly_the_paper_and_cli_surface():
    assert len(effdof.__all__) == len(set(effdof.__all__)) == 28
    assert set(effdof.__all__) == PUBLIC


def test_every_public_name_resolves_to_its_submodule_object():
    for name in effdof.__all__:
        getattr(effdof, name)
    for module in (errors, estimators, applications, montecarlo):
        for name in module.__all__:
            assert getattr(effdof, name) is getattr(module, name), name
    assert effdof.__version__ == "0.1.0"

