"""Jackknife, multiple-imputation and two-sample wrappers.

Each wrapper must agree with corrected_df on its documented induced component
set; worked values come from independent direct-formula oracles.
"""

import math

import numpy as np
import pytest

from effdof import (
    ComponentSet,
    DegenerateComponents,
    MiVariance,
    TwoSampleSummary,
    corrected_df,
    jackknife_df,
    mi_total_df,
    mi_total_variance,
    satterthwaite_df,
    welch_corrected_df,
    welch_satterthwaite_df,
)
from effdof.errors import FieldError

REL = 1e-12


class TestJackknife:
    def test_worked_examples(self):
        # (0,0,2,2): d=(-1,-1,1,1), sum d^2 = 4, sum d^4 = 4 -> 3*16/4 - 2
        assert jackknife_df([0, 0, 2, 2]) == 10.0
        # (-1,1): d=(-1,1) -> 3*4/2 - 2
        assert jackknife_df([-1, 1]) == 4.0
        # (0,0,0,4): d=(-1,-1,-1,3), sum d^2 = 12, sum d^4 = 84 -> 3*144/84 - 2 = 22/7
        assert jackknife_df([0, 0, 0, 4]) == pytest.approx(22 / 7, rel=REL)

    def test_equals_corrected_df_on_induced_components(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            t = rng.normal(0, 3, rng.integers(2, 12))
            if np.all(t == t[0]):
                continue
            mean = math.fsum(t) / len(t)
            d_sq = [(x - mean) ** 2 for x in t]
            if not any(d_sq):
                continue
            induced = ComponentSet.from_arrays([1.0] * len(t), d_sq, [1.0] * len(t))
            assert jackknife_df(t) == pytest.approx(
                corrected_df(induced).value, rel=REL
            )

    @pytest.mark.parametrize("values", [
        [1e15 + 1, 1e15 + 2, 1e15 + 4],
        [1, 1 + 2**-40, 1 + 3 * 2**-40],
    ])
    def test_common_offset_costs_no_digits(self, values):
        # deviations (-4/3, -1/3, 5/3) in units of the spread, as for (0, 1, 3):
        # the rounded mean's error must not leak into them
        assert jackknife_df(values) == 4.0

    def test_shift_scale_permutation_invariance(self):
        t = [1.0, 4.0, 2.5, -3.0, 0.5]
        base = jackknife_df(t)
        assert jackknife_df([x + 17.5 for x in t]) == pytest.approx(base, rel=1e-9)
        assert jackknife_df([-2.0 * x for x in t]) == pytest.approx(base, rel=1e-9)
        assert jackknife_df(t[::-1]) == base

    @pytest.mark.parametrize("scale", [5e-324, 1e-200, 1e200])
    def test_extreme_magnitudes(self, scale):
        # same value as (0, 1, 3); unscaled, d^4 of 1e200 overflows (NaN)
        # and that of 1e-200 underflows to a reported degenerate input
        assert jackknife_df([0.0, scale, 3.0 * scale]) == pytest.approx(4.0, rel=REL)

    @pytest.mark.parametrize("exponent", [-664, 664])  # 2**664 ~ 1e200
    def test_power_of_two_scaling_is_exact(self, exponent):
        t = [1.0, 4.0, 2.5, -3.0, 0.5]
        assert jackknife_df([math.ldexp(x, exponent) for x in t]) == jackknife_df(t)

    def test_lower_bound(self):
        # sum d^4 <= (sum d^2)^2 forces the value above 3*1 - 2 = 1
        rng = np.random.default_rng(6)
        for _ in range(300):
            t = rng.standard_cauchy(rng.integers(2, 15))
            if np.all(t == t[0]):
                continue
            assert jackknife_df(t) >= 1.0 - 1e-12

    def test_degenerate_inputs(self):
        with pytest.raises(DegenerateComponents):
            jackknife_df([5, 5, 5])
        with pytest.raises(ValueError):
            jackknife_df([1.0])
        with pytest.raises(DegenerateComponents):
            jackknife_df([2.0, 2.0])

    @pytest.mark.parametrize("values", [["0", "1", "3"], [0, True, 3]])
    def test_strings_and_bools_are_refused(self, values):
        bad = next(i for i, v in enumerate(values) if type(v) is not int)
        with pytest.raises(FieldError, match=f"^index {bad}: pseudo-value must be a real number"):
            jackknife_df(values)


class TestMultipleImputation:
    def test_total_variance(self):
        assert mi_total_variance(MiVariance(1.0, 50.0, 0.0, 5)) == 1.0
        # 1 + 1.2 * 0.2
        assert mi_total_variance(MiVariance(1.0, 100.0, 0.2, 5)) == pytest.approx(
            1.24, rel=1e-15
        )
        # 0 + 1.5 * 1
        assert mi_total_variance(MiVariance(0.0, 10.0, 1.0, 2)) == pytest.approx(
            1.5, rel=1e-15
        )

    def test_total_variance_overflow_raises(self):
        with pytest.raises(OverflowError, match="total variance"):
            mi_total_variance(MiVariance(1e308, 10, 1e308, 2))

    def test_unused_classic_denominator_is_never_formed(self):
        # the classic denominator of these components overflows in fsum; the
        # corrected one does not, so MI succeeds only while the set keeps that
        # overflow for the classic estimator alone (exact: within 7e-18)
        mi = MiVariance(1.22e150, 1e-8, 4.7e153, 2)
        assert mi_total_df(mi) == 1.001038252906434

    def test_no_imputation_variance_returns_sampling_dof(self):
        assert mi_total_df(MiVariance(1.0, 50.0, 0.0, 5)) == 50.0
        assert mi_total_df(MiVariance(0.3, 12.5, 0.0, 3)) == 12.5

    def test_no_sampling_variance_returns_m_minus_one(self):
        assert mi_total_df(MiVariance(0.0, 10.0, 1.0, 3)) == 2.0
        assert mi_total_df(MiVariance(0.0, 99.0, 0.7, 8)) == 7.0

    def test_worked_example(self):
        # independent oracle: 1.24^2 / (1/102 + 1.44*0.04/6) - 2
        oracle = 1.24**2 / (1 / 102 + 1.44 * 0.04 / 6) - 2
        value = mi_total_df(MiVariance(1.0, 100.0, 0.2, 5))
        assert value == pytest.approx(oracle, rel=1e-9)
        assert value == pytest.approx(77.2417138237672, rel=1e-9)

    def test_second_worked_example(self):
        # Var_s=1, nu_s=10, Var_imp=1, M=3: total 7/3,
        # (7/3)^2 / (1/12 + (16/9)/4) - 2 = 196/19 - 2
        mi = MiVariance(1.0, 10.0, 1.0, 3)
        assert mi_total_variance(mi) == pytest.approx(7 / 3, rel=1e-15)
        assert mi_total_df(mi) == pytest.approx(196 / 19 - 2, rel=REL)

    def test_equals_corrected_df_on_induced_components(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            mi = MiVariance(
                float(rng.uniform(0, 4)),
                float(rng.uniform(0.5, 200)),
                float(rng.uniform(0.01, 4)),
                int(rng.integers(2, 30)),
            )
            w2 = (mi.num_imputations + 1) / mi.num_imputations
            induced = ComponentSet.from_arrays(
                [1.0, w2],
                [mi.sampling_variance, mi.imputation_variance],
                [mi.sampling_dof, mi.num_imputations - 1],
            )
            assert mi_total_df(mi) == pytest.approx(
                corrected_df(induced).value, rel=REL
            )

    def test_inflation_factor_equivalence(self):
        mi = MiVariance(1.0, 10.0, 1.0, 7)
        assert mi.imputation_weight == pytest.approx(1 + 1 / 7, rel=1e-15)

    def test_both_variances_zero_is_degenerate(self):
        # a valid record; its component set is what has no positive pair
        mi = MiVariance(0.0, 5.0, 0.0, 3)
        assert mi_total_variance(mi) == 0.0
        with pytest.raises(DegenerateComponents, match="^all weighted variances are zero"):
            mi_total_df(mi)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(sampling_variance=-1.0, sampling_dof=5.0, imputation_variance=1.0, num_imputations=3),
            dict(sampling_variance=1.0, sampling_dof=0.0, imputation_variance=1.0, num_imputations=3),
            dict(sampling_variance=1.0, sampling_dof=5.0, imputation_variance=-0.1, num_imputations=3),
            dict(sampling_variance=1.0, sampling_dof=5.0, imputation_variance=1.0, num_imputations=1),
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            MiVariance(**kwargs)

    def test_non_numeric_field_is_named(self):
        with pytest.raises(ValueError, match="sampling_variance"):
            MiVariance("1", 10, 0.2, 5)

    def test_imputation_count_too_large_for_a_float_is_a_field_error(self):
        # not "component 1: dof ...", a component of the induced set
        with pytest.raises(FieldError, match="^num_imputations must be finite, got an int "
                                             "too large for a float$") as exc:
            MiVariance(1.0, 10.0, 1.0, 10**400)
        assert (exc.value.field, exc.value.index) == ("num_imputations", None)

    def test_numpy_integer_imputation_count(self):
        mi = MiVariance(1.0, 100.0, 0.2, np.int64(5))
        assert type(mi.num_imputations) is int
        assert mi_total_df(mi) == mi_total_df(MiVariance(1.0, 100.0, 0.2, 5))
        for m in (True, 5.0, "5"):
            with pytest.raises(ValueError, match="num_imputations must be an integer"):
                MiVariance(1.0, 100.0, 0.2, m)


class TestWelch:
    def test_equal_samples_equal_variances(self):
        # N1=N2=10, S1=S2=1: classic 0.04/(2*0.01/9) = 18, corrected 22 - 2 = 20
        ts = TwoSampleSummary(10, 10, 1.0, 1.0)
        assert welch_satterthwaite_df(ts) == pytest.approx(18.0, rel=REL)
        assert welch_corrected_df(ts) == pytest.approx(20.0, rel=REL)

    def test_one_zero_variance_collapses_to_single_sample(self):
        ts = TwoSampleSummary(10, 10, 1.0, 0.0)
        assert welch_satterthwaite_df(ts) == 9.0
        assert welch_corrected_df(ts) == 9.0

    def test_small_unbalanced_case_against_direct_formula(self):
        # frozen from an independent direct evaluation of the formulas
        ts = TwoSampleSummary(2, 100, 4.0, 1.0)
        assert welch_satterthwaite_df(ts) == pytest.approx(1.010024744943246, rel=REL)
        assert welch_corrected_df(ts) == pytest.approx(1.030072749945977, rel=REL)

    def test_minimal_samples(self):
        ts = TwoSampleSummary(2, 2, 1.0, 1.0)
        assert welch_satterthwaite_df(ts) == pytest.approx(2.0, rel=REL)
        assert welch_corrected_df(ts) == pytest.approx(4.0, rel=REL)

    def test_both_variances_zero_is_degenerate(self):
        # a valid record; its component set is what has no positive pair
        ts = TwoSampleSummary(10, 10, 0.0, 0.0)
        for df in (welch_satterthwaite_df, welch_corrected_df):
            with pytest.raises(DegenerateComponents, match="^all weighted variances are zero"):
                df(ts)

    def test_symmetric_under_sample_swap(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            n1, n2 = int(rng.integers(2, 200)), int(rng.integers(2, 200))
            s1, s2 = float(rng.uniform(0.01, 9)), float(rng.uniform(0.01, 9))
            a = TwoSampleSummary(n1, n2, s1, s2)
            b = TwoSampleSummary(n2, n1, s2, s1)
            assert welch_corrected_df(a) == pytest.approx(
                welch_corrected_df(b), rel=REL
            )
            assert welch_satterthwaite_df(a) == pytest.approx(
                welch_satterthwaite_df(b), rel=REL
            )

    def test_corrected_converges_to_classic(self):
        gaps = []
        for n in (10, 100, 1_000, 10_000):
            ts = TwoSampleSummary(n, n, 1.5, 0.8)
            satt = welch_satterthwaite_df(ts)
            gaps.append(abs(welch_corrected_df(ts) - satt) / satt)
        assert all(a > b for a, b in zip(gaps, gaps[1:]))
        assert gaps[-1] < 1e-3

    def test_equals_corrected_df_on_induced_components(self):
        rng = np.random.default_rng(10)
        for _ in range(100):
            ts = TwoSampleSummary(
                int(rng.integers(2, 500)),
                int(rng.integers(2, 500)),
                float(rng.uniform(0, 9)) or 1.0,
                float(rng.uniform(0.01, 9)),
            )
            induced = ComponentSet.from_arrays(
                [1 / ts.n1, 1 / ts.n2],
                [ts.s1_sq, ts.s2_sq],
                [ts.n1 - 1, ts.n2 - 1],
            )
            assert welch_corrected_df(ts) == pytest.approx(
                corrected_df(induced).value, rel=REL
            )
            assert welch_satterthwaite_df(ts) == pytest.approx(
                satterthwaite_df(induced).value, rel=REL
            )

    @pytest.mark.parametrize(
        "n1,n2,s1,s2",
        [(1, 10, 1.0, 1.0), (10, 0, 1.0, 1.0), (10, 10, -1.0, 1.0)],
    )
    def test_validation(self, n1, n2, s1, s2):
        with pytest.raises(ValueError):
            TwoSampleSummary(n1, n2, s1, s2)

    def test_non_numeric_field_is_named(self):
        with pytest.raises(ValueError, match="s1_sq"):
            TwoSampleSummary(10, 10, "1", 1.0)

    def test_int_too_large_for_a_float_is_a_field_error(self):
        with pytest.raises(FieldError, match="^s1_sq must be finite, got an int too large "
                                             "for a float$") as exc:
            TwoSampleSummary(10, 10, 10**400, 1.0)
        assert (exc.value.field, exc.value.index) == ("s1_sq", None)

    @pytest.mark.parametrize("field", ["n1", "n2"])
    def test_size_too_large_for_a_float_is_a_field_error(self, field):
        sizes = dict(n1=10, n2=10, s1_sq=1.0, s2_sq=1.0)
        sizes[field] = 10**400
        with pytest.raises(FieldError, match=f"^{field} must be finite, got an int too large "
                                             "for a float$") as exc:
            TwoSampleSummary(**sizes)
        assert (exc.value.field, exc.value.index) == (field, None)

    def test_scalar_field_error_has_no_index(self):
        with pytest.raises(FieldError, match="^n1 must be an integer >= 2, got 1$") as exc:
            TwoSampleSummary(1, 10, 1.0, 1.0)
        assert (exc.value.field, exc.value.index) == ("n1", None)

    def test_numpy_integer_sizes(self):
        ts = TwoSampleSummary(np.int64(10), np.int32(10), 1.0, 1.0)
        assert (type(ts.n1), type(ts.n2)) == (int, int)
        assert welch_corrected_df(ts) == pytest.approx(20.0, rel=REL)
        for n in (True, 10.0, "10"):
            with pytest.raises(ValueError, match="n1 must be an integer"):
                TwoSampleSummary(n, 10, 1.0, 1.0)
