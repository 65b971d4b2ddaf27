"""Worked examples and error contracts for the core estimators.

Expected values are frozen from hand arithmetic, cross-checked with an
independent direct-formula script before being asserted here.
"""

import math

import numpy as np
import pytest

from effdof import (
    AllZeroWeights,
    ComponentSet,
    DegenerateComponents,
    LengthMismatch,
    Variant,
    boardman_df,
    corrected_df,
    design_effect,
    kish_neff,
    relvariance,
    satterthwaite_df,
)
from effdof.errors import FieldError
from oracles import satterthwaite_df_harmonic

REL = 1e-12


def cset(weights, variances, dofs):
    return ComponentSet.from_arrays(weights, variances, dofs)


class TestDfEstimators:
    def test_single_component_is_exact_fixed_point(self):
        # K=1 cancels everything: all ratios are nu (+2 for the unshifted form)
        cs = cset([1.0], [3.7], [5.0])
        assert satterthwaite_df(cs).value == 5.0
        assert corrected_df(cs).value == 5.0
        assert boardman_df(cs).value == 7.0

    def test_two_component_hand_case(self):
        """w=(1,1), S2=(1,2), nu=(4,4).

        numerator (1+2)^2 = 9
        classic denominator 1/4 + 4/4 = 1.25          -> 7.2
        corrected denominator 1/6 + 4/6 = 5/6          -> 10.8, shifted 8.8
        """
        cs = cset([1, 1], [1, 2], [4, 4])
        satt = satterthwaite_df(cs)
        assert satt.variant is Variant.SATTERTHWAITE
        assert satt.numerator == pytest.approx(9.0, rel=REL)
        assert satt.denominator == pytest.approx(1.25, rel=REL)
        assert satt.value == pytest.approx(7.2, rel=REL)

        corr = corrected_df(cs)
        assert corr.variant is Variant.CORRECTED
        assert corr.denominator == pytest.approx(5.0 / 6.0, rel=REL)
        assert corr.value == pytest.approx(8.8, rel=REL)

        assert boardman_df(cs).value == pytest.approx(10.8, rel=REL)

    def test_equal_variance_reduces_to_kish_form(self):
        # equal S2 and nu cancel: classic value = nu * (sum w)^2 / sum w^2
        w = [0.5, 1.5, 2.0, 0.25]
        nu = 7.0
        cs = cset(w, [3.3] * 4, [nu] * 4)
        neff = kish_neff(w)
        assert satterthwaite_df(cs).value == pytest.approx(nu * neff, rel=REL)
        assert corrected_df(cs).value == pytest.approx((nu + 2) * neff - 2, rel=REL)

    def test_boardman_is_corrected_plus_two(self):
        cs = cset([1, 2, 3], [0.5, 1.0, 2.5], [3, 9, 27])
        assert boardman_df(cs).value == pytest.approx(
            corrected_df(cs).value + 2.0, rel=REL
        )

    def test_value_matches_ratio_record(self):
        rng = np.random.default_rng(101)
        for _ in range(50):
            k = rng.integers(1, 9)
            cs = cset(rng.uniform(0.1, 5, k), rng.uniform(0.1, 5, k),
                      rng.uniform(0.5, 50, k))
            for est in (satterthwaite_df(cs), corrected_df(cs), boardman_df(cs)):
                shift = 2.0 if est.variant is Variant.CORRECTED else 0.0
                assert est.value == pytest.approx(
                    est.numerator / est.denominator - shift, rel=REL
                )

    def test_zero_weight_components_drop_out(self):
        base = cset([1, 1], [1, 2], [4, 4])
        padded = cset([1, 0, 1, 2], [1, 9, 2, 0], [4, 1, 4, 2])
        assert satterthwaite_df(padded).value == pytest.approx(
            satterthwaite_df(base).value, rel=REL
        )
        assert corrected_df(padded).value == pytest.approx(
            corrected_df(base).value, rel=REL
        )

    def test_all_degenerate_components_rejected(self):
        with pytest.raises(DegenerateComponents):
            cset([0, 1], [1, 0], [4, 4])


class TestHarmonicForm:
    def test_matches_classic_on_hand_case(self):
        cs = cset([1, 1], [1, 2], [4, 4])
        assert satterthwaite_df_harmonic(cs) == pytest.approx(7.2, rel=REL)

    def test_equal_weighted_variances_give_k_times_nu(self):
        # w*S2 identical across components -> every q_k = nu -> K * nu
        cs = cset([2.0, 1.0, 4.0], [1.0, 2.0, 0.5], [3.0, 3.0, 3.0])
        assert satterthwaite_df_harmonic(cs) == pytest.approx(9.0, rel=REL)

    def test_single_component_returns_dof(self):
        assert satterthwaite_df_harmonic(cset([2], [1.5], [11])) == pytest.approx(
            11.0, rel=REL
        )

    def test_rejects_zero_weighted_variance(self):
        with pytest.raises(DegenerateComponents):
            satterthwaite_df_harmonic(cset([1, 0], [1, 1], [4, 4]))


class TestKishNeff:
    def test_uniform_weights_give_count(self):
        assert kish_neff([1, 1, 1, 1]) == 4.0
        assert kish_neff([0.1] * 7) == 7.0

    def test_zero_weights_reduce_count(self):
        assert kish_neff([1, 1, 0, 0]) == 2.0

    def test_bounds(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            w = rng.uniform(0, 3, rng.integers(1, 30))
            w[0] = max(w[0], 1e-6)
            neff = kish_neff(w)
            n_pos = int((w > 0).sum())
            assert 1.0 - 1e-12 <= neff <= n_pos * (1 + 1e-12)

    def test_random_normal_weight_average(self):
        # Normal(1, 0.3) weights at K=16 concentrate near 14.74 on average
        rng = np.random.default_rng(31)
        w = rng.normal(1.0, 0.3, size=(60_000, 16))
        while (w <= 0).any():
            w[w <= 0] = rng.normal(1.0, 0.3, size=int((w <= 0).sum()))
        mean_neff = np.mean([kish_neff(row) for row in w])
        assert mean_neff == pytest.approx(14.74, abs=0.05)

    def test_all_zero_rejected(self):
        with pytest.raises(AllZeroWeights):
            kish_neff([0.0, 0.0])

    @pytest.mark.parametrize("scale", [5e-324, 1e-200, 1e200])
    def test_extreme_magnitudes(self, scale):
        # (1 + 2)^2 / (1 + 4) at any scale; unscaled, the squares of 1e200
        # overflow (NaN) and those of 1e-200 underflow (ZeroDivisionError)
        w = [scale, 2.0 * scale]
        assert kish_neff(w) == pytest.approx(1.8, rel=REL)
        assert design_effect(w) * kish_neff(w) == pytest.approx(2.0, rel=REL)

    @pytest.mark.parametrize("exponent", [-664, 664])  # 2**664 ~ 1e200
    def test_power_of_two_scaling_is_exact(self, exponent):
        w = [0.3, 1.7, 2.2, 0.9]
        scaled = [math.ldexp(x, exponent) for x in w]
        assert kish_neff(scaled) == kish_neff(w)
        assert relvariance(scaled) == relvariance(w)


class TestWeightSummaries:
    def test_relvariance_uniform_is_exactly_zero(self):
        assert relvariance([3.3, 3.3, 3.3]) == 0.0

    def test_relvariance_hand_cases(self):
        # (2,0): mean 1, deviations (1,-1), mean square 1
        assert relvariance([2, 0]) == pytest.approx(1.0, rel=REL)
        # (1,1,0,0): mean 0.5, ratios (2,2,0,0), deviations (1,1,-1,-1)
        assert relvariance([1, 1, 0, 0]) == pytest.approx(1.0, rel=REL)

    def test_design_effect(self):
        assert design_effect([5, 5, 5]) == 1.0
        assert design_effect([1, 1, 0, 0]) == pytest.approx(2.0, rel=REL)

    def test_design_effect_times_neff_is_count(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            w = rng.uniform(0.01, 4, rng.integers(1, 25))
            assert design_effect(w) * kish_neff(w) == pytest.approx(len(w), rel=REL)

    def test_random_normal_design_effect_average(self):
        # complement of the Kish ratio: E[D_eff] near 1/0.92 ~ 1.09
        rng = np.random.default_rng(13)
        w = rng.normal(1.0, 0.3, size=(20_000, 16))
        while (w <= 0).any():
            w[w <= 0] = rng.normal(1.0, 0.3, size=int((w <= 0).sum()))
        mean_deff = np.mean([design_effect(row) for row in w])
        assert mean_deff == pytest.approx(1.09, abs=0.02)


class TestConcurrency:
    def test_pure_functions_are_thread_safe(self):
        from concurrent.futures import ThreadPoolExecutor

        cs = cset([1, 2, 3], [0.5, 1.0, 2.5], [3, 9, 27])
        expected = corrected_df(cs).value
        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(lambda _: corrected_df(cs).value, range(64)))
        assert all(r == expected for r in results)


class TestValidation:
    @pytest.mark.parametrize(
        "weight,variance,dof",
        [(-1, 1, 1), (1, -0.5, 1), (1, 1, 0), (1, 1, -2),
         (float("nan"), 1, 1), (1, float("inf"), 1), (1, 1, float("nan"))],
    )
    def test_variance_component_invariants(self, weight, variance, dof):
        # the bad entry sits at index 1; the message names index and field
        field = next(name for name, x in zip(("weight", "variance", "dof"),
                                             (weight, variance, dof)) if x != 1)
        with pytest.raises(ValueError, match=f"^component 1: {field} must be "):
            ComponentSet.from_arrays([1, weight, 1], [1, variance, 1], [4, dof, 4])

    def test_field_error_carries_field_and_index(self):
        with pytest.raises(FieldError, match=r"^component 2: dof must be > 0, got 0\.0$") as exc:
            ComponentSet([1, 1, 1], [1, 1, 1], [4, 4, 0])
        assert (exc.value.field, exc.value.index) == ("dof", 2)
        assert exc.value.reason == "dof must be > 0, got 0.0"

    def test_dof_may_be_fractional(self):
        cs = cset([1, 1], [1, 1], [0.5, 2.5])
        assert satterthwaite_df(cs).value > 0

    def test_empty_component_set(self):
        with pytest.raises(ValueError, match="at least one component"):
            ComponentSet.from_arrays([], [], [])

    def test_from_arrays_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            ComponentSet.from_arrays([1, 2], [1], [4, 4])

    @pytest.mark.parametrize(
        "weights,variances,dofs,culprit",
        [(["1", True], ["1", "2"], ["4", 4], "component 0: weight"),
         ([1, True], [1, 1], [4, 4], "component 1: weight"),
         ([1, 1], [1, "2"], [4, 4], "component 1: variance"),
         ([1, 1], [1, 1], [4, False], "component 1: dof")],
        ids=["strings", "bool-weight", "string-variance", "bool-dof"],
    )
    def test_strings_and_bools_are_refused(self, weights, variances, dofs, culprit):
        with pytest.raises(ValueError, match=f"^{culprit} must be a real number"):
            ComponentSet.from_arrays(weights, variances, dofs)

    @pytest.mark.parametrize("weights", [["1", "3"], [1, True]])
    def test_weight_summaries_refuse_strings_and_bools(self, weights):
        bad = next(i for i, w in enumerate(weights) if type(w) is not int)
        for summary in (kish_neff, relvariance, design_effect):
            with pytest.raises(FieldError, match=f"^index {bad}: weight must be a real number"):
                summary(weights)

    def test_numpy_and_fraction_entries_are_accepted(self):
        from fractions import Fraction

        cs = cset(np.array([1, 1]), [Fraction(1), np.float32(2)], [np.int64(4), 4])
        assert cs == cset([1.0, 1.0], [1.0, 2.0], [4.0, 4.0])
        assert all(type(x) is float for x in cs.weights + cs.variances + cs.dofs)
        assert corrected_df(cs).value == 8.8

    def test_weight_vector_invariants(self):
        with pytest.raises(ValueError, match="at least one weight"):
            kish_neff([])
        for summary in (kish_neff, relvariance, design_effect):
            with pytest.raises(FieldError,
                               match=r"^index 1: weight must be >= 0, got -1\.0$") as exc:
                summary([1, -1, 2])
            assert (exc.value.field, exc.value.index) == ("weight", 1)
        with pytest.raises(ValueError, match="finite"):
            kish_neff([1, float("nan")])
        with pytest.raises(AllZeroWeights):
            kish_neff([0, 0, 0])
