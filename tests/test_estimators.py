"""Worked examples and error contracts for the core estimators.

Expected values are frozen from hand arithmetic, cross-checked with an
independent direct-formula script before being asserted here.
"""

import copy
import dataclasses
import enum
import hashlib
import importlib.util
import itertools
import math
import pickle
import random
import sys
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from effdof import errors, estimators
from effdof import (
    ComponentSet,
    DegenerateComponents,
    MiVariance,
    TwoSampleSummary,
    boardman_df,
    corrected_df,
    design_effect,
    jackknife_df,
    kish_neff,
    mi_total_df,
    satterthwaite_df,
    welch_corrected_df,
    welch_satterthwaite_df,
)
from effdof.errors import FieldError, check_reals
from effdof.estimators import _relvariance
from oracles import satterthwaite_df_harmonic

REL = 1e-12


class _Level(enum.IntEnum):
    HIGH = 3


class _Dof(float):
    pass


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
        assert satt.variant == "satterthwaite"
        assert satt.numerator == pytest.approx(9.0, rel=REL)
        assert satt.denominator == pytest.approx(1.25, rel=REL)
        assert satt.value == pytest.approx(7.2, rel=REL)

        corr = corrected_df(cs)
        assert corr.variant == "corrected"
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

    def test_numerator_is_the_correctly_rounded_square(self):
        x = 0.37796883434360806
        numerator = satterthwaite_df(cset([x], [1.0], [3.0])).numerator
        assert numerator == float(Fraction(x) ** 2) == 0.14286043973506582

    def test_power_of_two_weight_scaling_moves_no_bit(self):
        # every operation on the path is correctly rounded, and in the normal
        # range a correctly rounded operation commutes with a power of two
        w = [0.892117925306968, 382.4603675417562, 2.8976700416753145]
        v = [0.3995902551169189, 0.0069360554502629875, 7.323881478896367]
        dofs = [25, 35, 47]
        cs, scaled = cset(w, v, dofs), cset([math.ldexp(x, -3) for x in w], v, dofs)
        assert satterthwaite_df(scaled).value == 59.98354765518517
        for fn in (satterthwaite_df, corrected_df, boardman_df):
            assert fn(scaled).value == fn(cs).value
            assert fn(scaled).numerator == math.ldexp(fn(cs).numerator, -6)

    def test_seeded_power_of_two_weight_scaling_moves_no_value(self):
        # 5,000 sets of K in 2-8, weights and variances 2**e x U(0.5, 1) with
        # e in [-10, 10], integer dofs, weights scaled by 2**e with e in [-20, 20]
        rng = random.Random(2)

        def draw():
            return math.ldexp(rng.uniform(0.5, 1.0), rng.randint(-10, 10))

        moved = []
        for _ in range(5_000):
            k = rng.randint(2, 8)
            w, v = [draw() for _ in range(k)], [draw() for _ in range(k)]
            dofs = [rng.randint(1, 100) for _ in range(k)]
            e = rng.randint(-20, 20)
            cs, scaled = cset(w, v, dofs), cset([math.ldexp(x, e) for x in w], v, dofs)
            moved += [(fn.__name__, w, v, dofs, e)
                      for fn in (satterthwaite_df, corrected_df, boardman_df)
                      if fn(scaled).value != fn(cs).value]
        assert moved == []

    def test_value_matches_ratio_record(self):
        rng = np.random.default_rng(101)
        for _ in range(50):
            k = rng.integers(1, 9)
            cs = cset(rng.uniform(0.1, 5, k), rng.uniform(0.1, 5, k),
                      rng.uniform(0.5, 50, k))
            for est in (satterthwaite_df(cs), corrected_df(cs), boardman_df(cs)):
                shift = 2.0 if est.variant == "corrected" else 0.0
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

    @pytest.mark.parametrize("fn", [satterthwaite_df, corrected_df, boardman_df])
    def test_estimate_beyond_the_float_range_is_an_overflow(self, fn):
        # a valid set whose df, about 2e308, exceeds the largest float
        cs = cset([1, 1], [1, 1], [1e308, 1e308])
        variant = fn.__name__.removesuffix("_df")
        with pytest.raises(OverflowError, match=f"^{variant} df estimate overflows a float$"):
            fn(cs)

    @pytest.mark.parametrize("fn", [satterthwaite_df, corrected_df, boardman_df])
    def test_overflowing_sum_names_the_estimator_and_the_sum(self, fn):
        variant = fn.__name__.removesuffix("_df")
        for cs, fault in (
            # (sum w_k S_k^2)^2 overflows when squared
            (cset([1e200, 1e200], [1, 2], [4, 4]), "overflows a float"),
            # an infinite product w_k S_k^2 makes the sum itself infinite
            (cset([1e200, 1], [1e200, 1], [3, 4]), "overflows a float"),
            # (sum w_k S_k^2)^2 of weights near 1e-200 underflows
            (cset([1e-200, 1e-200], [1, 2], [3, 4]), "underflows to zero"),
        ):
            with pytest.raises(OverflowError, match=f"^{variant} df numerator {fault}$"):
                fn(cs)
        # a single component's df is exact although its square overflows
        single = fn(cset([1e200], [1], [4]))
        expected = {satterthwaite_df: 4.0, corrected_df: 4.0, boardman_df: 6.0}
        assert (single.value, single.numerator, single.denominator) == (
            expected[fn], math.inf, math.inf)
        # only the classic denominator, sum (w_k S_k^2)^2 / nu_k, leaves the float
        # range: in fsum, or already per component at a subnormal dof (1 / 5e-324)
        for cs, expected in (
            (cset([1, 1.5], [1.22e150, 4.7e153], [1e-8, 1]),
             {corrected_df: 1.001038252906434, boardman_df: 3.001038252906434}),
            (cset([1, 1], [1, 1], [5e-324, 5e-324]), {corrected_df: 2.0, boardman_df: 4.0}),
        ):
            if fn is satterthwaite_df:
                with pytest.raises(OverflowError,
                                   match="^satterthwaite df denominator overflows a float$"):
                    fn(cs)
            else:
                assert fn(cs).value == expected[fn]

    @pytest.mark.parametrize("value", [0.0, -1.0, math.nan])
    def test_record_refuses_a_value_that_is_not_positive(self, value):
        # an arithmetic fault, not degenerate input: only ComponentSet decides that
        with pytest.raises(OverflowError,
                           match=rf"^corrected df estimate is not positive \({value!r}\)$"):
            estimators.DfEstimate("corrected", value, 1.0, 0.5)


DF_ESTIMATORS = (satterthwaite_df, corrected_df, boardman_df)
TINY = 1e-200  # TINY * TINY underflows to 0.0


def _reference_only(weights, variances):
    """The index of a set's lone contributor, None for several, "degenerate"
    for none: the contributors are the positive products or, where every
    product underflows, the positive (w, v) pairs."""
    products = [w * v for w, v in zip(weights, variances)]
    keys = products if any(products) else [min(w, v) for w, v in zip(weights, variances)]
    positive = [k for k, key in enumerate(keys) if key > 0]
    if not positive:
        return "degenerate"
    return positive[0] if len(positive) == 1 else None


def _outcomes(cs):
    """Each estimator's (value, numerator, denominator), or its error type and message."""
    results = []
    for fn in DF_ESTIMATORS:
        try:
            est = fn(cs)
        except ArithmeticError as exc:
            results.append((type(exc), str(exc)))
        else:
            results.append((est.value, est.numerator, est.denominator))
    return results


class TestContributors:
    """Which components contribute when the first or second product is zero or
    underflows, and at K = 1."""

    @pytest.mark.parametrize("weights,variances,dofs", [
        ([1, 2], [3, 4], [4, 5]),
        ([0, 1, 2], [1, 1, 3], [4, 5, 6]),
        ([1, 0, 2], [1, 1, 3], [4, 5, 6]),
        ([0, 2], [1, 3], [4, 5]),
        ([2, 1], [3, 0], [4, 5]),
        ([TINY, 1, 2], [TINY, 1, 3], [4, 5, 6]),
        ([1, TINY, 2], [1, TINY, 3], [4, 5, 6]),
        ([1, TINY], [1, TINY], [4, 5]),
        ([TINY, 1], [TINY, 2], [4, 5]),
        ([1, 0, 0, 0], [1, 1, 1, 0], [3, 4, 5, 6]),
        ([TINY, 0], [TINY, 1], [4, 5]),
        ([0, TINY, 3], [2, TINY, 0], [4, 5, 6]),
        ([TINY, TINY], [TINY, TINY], [4, 5]),
        ([2], [3], [7]),
        ([TINY], [TINY], [7]),
        ([0], [3], [7]),
        ([0, 1, 0], [1, 0, 5], [4, 5, 6]),
    ], ids=["two-positive", "first-zero", "second-zero", "first-zero-lone", "second-zero-lone",
            "first-underflows", "second-underflows", "second-underflows-lone",
            "first-underflows-lone", "first-positive-rest-zero", "underflow-one-pair",
            "underflow-later-pair", "underflow-two-pairs", "k1", "k1-underflows", "k1-zero",
            "all-zero"])
    def test_lone_contributor_values_and_errors(self, weights, variances, dofs):
        only = _reference_only(weights, variances)
        if only == "degenerate":
            with pytest.raises(DegenerateComponents, match="^all weighted variances are zero; "
                                                           "df estimators are undefined$"):
                cset(weights, variances, dofs)
            return
        cs = cset(weights, variances, dofs)
        assert cs._only == only
        outcomes = _outcomes(cs)
        if only is not None:
            assert [value for value, *_ in outcomes] == [dofs[only], dofs[only], dofs[only] + 2]
            return
        # zero products add nothing to any sum: the set keeps the bits of its
        # positive-product components alone, or, with none, the numerator underflows
        kept = [k for k, (w, v) in enumerate(zip(weights, variances)) if w * v > 0]
        if kept:
            assert outcomes == _outcomes(cset(*([column[k] for k in kept]
                                                for column in (weights, variances, dofs))))
        else:
            assert outcomes == [(OverflowError, f"{fn.__name__.removesuffix('_df')} df "
                                                "numerator underflows to zero")
                                for fn in DF_ESTIMATORS]


def _hexes(cs, order=DF_ESTIMATORS):
    """``float.hex`` of each estimate's value, numerator and denominator, by variant."""
    return {est.variant: tuple(getattr(est, f).hex()
                               for f in ("value", "numerator", "denominator"))
            for est in (fn(cs) for fn in order)}


class TestSharedRatioSums:
    """A set computes its ratio sums once; no call order, copy or thread may
    change a bit of any estimate."""

    @pytest.fixture
    def columns(self):
        rng = random.Random(4096)
        k = 4096
        return ([rng.uniform(0.0, 3.0) for _ in range(k)],
                [math.ldexp(0.5 + rng.random(), rng.randint(-8, 8)) for _ in range(k)],
                [rng.uniform(0.5, 60.0) for _ in range(k)])

    def test_every_call_order_gives_the_same_bits(self, columns):
        expected = _hexes(ComponentSet(*columns))
        for order in itertools.permutations(DF_ESTIMATORS):
            assert _hexes(ComponentSet(*columns), order) == expected
        estimated = ComponentSet(*columns)
        _hexes(estimated)
        for twin in (estimated, ComponentSet(*columns), copy.deepcopy(estimated),
                     pickle.loads(pickle.dumps(estimated))):
            assert _hexes(twin) == expected

    def test_threads_sharing_one_set_agree_with_a_serial_run(self, columns):
        # a set is never written to after it is built, so racing threads only read it
        expected = _hexes(ComponentSet(*columns))
        shared = ComponentSet(*columns)

        def estimate(i):
            return _hexes(shared, DF_ESTIMATORS[i % 3:] + DF_ESTIMATORS[:i % 3])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                results = list(pool.map(estimate, range(50), timeout=120))
        finally:
            sys.setswitchinterval(interval)
        assert len(results) == 50 and all(result == expected for result in results)

    def test_three_estimators_make_one_numerator_and_two_denominator_sums(
            self, monkeypatch):
        calls = []
        fsum = estimators.math.fsum

        def counting(xs):
            calls.append(1)
            return fsum(xs)

        monkeypatch.setattr(estimators.math, "fsum", counting)
        cs = cset([1.0, 2.0, 0.5], [1.0, 0.5, 3.0], [4.0, 9.0, 2.5])
        assert len(calls) == 3  # the numerator, nu_k + 0 and nu_k + 2
        for fn in DF_ESTIMATORS + DF_ESTIMATORS:
            fn(cs)
        assert len(calls) == 3
        # the sums are formed once, when the set is built, and kept in no memo
        assert not hasattr(cs, "_memo")


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
        with pytest.raises(DegenerateComponents, match="^all weights are zero$"):
            kish_neff([0.0, 0.0])

    @pytest.mark.parametrize("scale", [5e-324, 1e-200, 1e200, 6e307])
    def test_extreme_magnitudes(self, scale):
        # (1 + 2)^2 / (1 + 4) at any scale; unscaled, the squares of 1e200
        # overflow (NaN) and those of 1e-200 underflow (ZeroDivisionError),
        # and at 6e307 the sum itself overflows a float
        w = [scale, 2.0 * scale]
        assert kish_neff(w) == pytest.approx(1.8, rel=REL)
        assert design_effect(w) * kish_neff(w) == pytest.approx(2.0, rel=REL)

    @pytest.mark.parametrize("w", [
        [2.0 ** 250, 2.0 ** 249, 3.0],
        [math.ldexp(0.75, 250), math.ldexp(0.6, 249), 2.0 ** -250, 1.0],
        [math.ldexp(0.5 + i / 16, 248) for i in range(8)],
    ])
    def test_weights_in_range_with_a_sum_above_the_gate_keep_their_bits(self, monkeypatch, w):
        # every weight lies in [2**-250, 2**250] but their sum exceeds 2**250,
        # so the summaries scale; the scaling must change no bit of the
        # unscaled formula
        assert 2.0 ** -250 <= min(w) and max(w) <= 2.0 ** 250 < math.fsum(w)
        scaled = []
        unit_scaled = estimators._unit_scaled
        monkeypatch.setattr(estimators, "_unit_scaled",
                            lambda xs: scaled.append(xs) or unit_scaled(xs))
        total = math.fsum(w)
        mean = total / len(w)
        assert kish_neff(w).hex() == (total * total / math.fsum([x * x for x in w])).hex()
        assert design_effect(w).hex() == (
            1.0 + math.fsum([(d := x / mean - 1.0) * d for x in w]) / len(w)).hex()
        assert len(scaled) == 2

    @pytest.mark.parametrize("exponent", [-664, 664])  # 2**664 ~ 1e200
    def test_power_of_two_scaling_is_exact(self, exponent):
        w = [0.3, 1.7, 2.2, 0.9]
        scaled = [math.ldexp(x, exponent) for x in w]
        assert kish_neff(scaled) == kish_neff(w)
        assert _relvariance(tuple(scaled)) == _relvariance(tuple(w))


class TestWeightSummaries:
    # the relvariance, which design_effect adds 1 to, on weights in checked form
    def test_relvariance_uniform_is_exactly_zero(self):
        assert _relvariance((3.3, 3.3, 3.3)) == 0.0

    def test_relvariance_hand_cases(self):
        # (2,0): mean 1, deviations (1,-1), mean square 1
        assert _relvariance((2.0, 0.0)) == pytest.approx(1.0, rel=REL)
        # (1,1,0,0): mean 0.5, ratios (2,2,0,0), deviations (1,1,-1,-1)
        assert _relvariance((1.0, 1.0, 0.0, 0.0)) == pytest.approx(1.0, rel=REL)

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


def test_unit_scaled_takes_the_largest_magnitude_from_a_negative_entry():
    # max|x| is |-3| in [2, 4), so the factor is 2**-2; max(xs) = 1 would give 2**-1
    assert estimators._unit_scaled([-3.0, 1.0]) == [-0.75, 0.25]
    assert estimators._unit_scaled([1.0, -3.0]) == [0.25, -0.75]


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
        with pytest.raises(ValueError) as exc:
            ComponentSet.from_arrays([1, 2], [1], [4, 4])
        assert type(exc.value) is ValueError
        assert str(exc.value) == ("weights (2), variances (1) and dofs (2) "
                                  "must have equal lengths")

    def test_iterators_build_the_same_set_as_lists(self):
        built = ComponentSet(iter([1, 1]), iter([1, 2]), (d for d in [4, 4]))
        assert built == ComponentSet([1, 1], [1, 2], [4, 4])
        assert satterthwaite_df(built) == satterthwaite_df(ComponentSet([1, 1], [1, 2], [4, 4]))
        with pytest.raises(ValueError) as exc:
            ComponentSet(iter([1, 2]), iter([1]), iter([4, 4]))
        assert type(exc.value) is ValueError
        assert str(exc.value) == ("weights (2), variances (1) and dofs (2) "
                                  "must have equal lengths")

    def test_from_arrays_is_the_constructor(self):
        assert ComponentSet.from_arrays is ComponentSet

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
        for summary in (kish_neff, design_effect):
            with pytest.raises(FieldError, match=f"^index {bad}: weight must be a real number"):
                summary(weights)

    def test_numpy_and_fraction_entries_are_accepted(self):
        from fractions import Fraction

        cs = cset(np.array([1, 1]), [Fraction(1), np.float32(2)], [np.int64(4), 4])
        assert cs == cset([1.0, 1.0], [1.0, 2.0], [4.0, 4.0])
        assert all(type(x) is float for x in cs.weights + cs.variances + cs.dofs)
        assert corrected_df(cs).value == 8.8

    def test_float_subclass_entries_take_the_bulk_path(self, monkeypatch):
        class Weight(float):
            pass

        def per_entry(*args):
            raise AssertionError("an entry went through check_real")

        monkeypatch.setattr(errors, "check_real", per_entry)
        ys = check_reals("weight", [Weight(1.5), 2, np.float64(0.25), Weight(0.0)], 0.0)
        assert ys == (1.5, 2.0, 0.25, 0.0)
        assert all(type(y) is float for y in ys)
        cs = cset([Weight(1), Weight(1)], [1.0, 2], [Weight(4), 4.0])
        assert corrected_df(cs).value == 8.8

    def test_float_subclass_that_cannot_convert_keeps_the_entry_order(self):
        class Broken(float):
            def __float__(self):
                raise TypeError("no float")

        # the bad entry before it is reported, as the per-entry check reports it
        with pytest.raises(FieldError, match="^index 0: weight must be finite, got nan$"):
            check_reals("weight", [math.nan, Broken(1.0)], 0.0)

    def test_int_entries_take_the_bulk_path(self, monkeypatch):
        def per_entry(*args):
            raise AssertionError("an entry went through check_real")

        monkeypatch.setattr(errors, "check_real", per_entry)
        ys = check_reals("dof", [4, 1, 500, 2**53 + 1], 0.0, strict=True, label="component")
        assert ys == (4.0, 1.0, 500.0, 2.0**53)
        assert all(type(y) is float for y in ys)

    @pytest.mark.parametrize("xs", [
        [4, 1, 500],
        [4, 0, 2],
        [4, True, 2],
        [4, _Level.HIGH, 2],
        [np.int64(4), 3, np.float64(2.5)],
        [np.int64(0), 3],
        [1, 10**400, 2],
        [10**400, True],
        [3, _Dof(1.5), 0, _Dof(2.0)],
        [3, _Dof(-1.5)],
        [2, 1e308, 10**308],
    ], ids=["ints", "int-zero", "bool", "int-enum", "numpy", "numpy-zero", "huge-int",
            "huge-int-then-bool", "float-subclass", "negative-float-subclass", "overflowing-sum"])
    @pytest.mark.parametrize("low,strict", [(None, False), (0.0, False), (0.0, True)])
    def test_int_entries_match_the_per_entry_check(self, xs, low, strict):
        def outcome(check):
            try:
                ys = check()
            except FieldError as exc:
                return exc.field, exc.index, str(exc)
            assert all(type(y) is float for y in ys)
            return ys

        per_entry = outcome(lambda: tuple(
            errors.check_real("dof", x, low, strict, i, "component") for i, x in enumerate(xs)))
        assert outcome(lambda: check_reals("dof", xs, low, strict=strict,
                                           label="component")) == per_entry

    def test_weight_vector_invariants(self):
        with pytest.raises(ValueError, match="at least one weight"):
            kish_neff([])
        for summary in (kish_neff, design_effect):
            with pytest.raises(FieldError,
                               match=r"^index 1: weight must be >= 0, got -1\.0$") as exc:
                summary([1, -1, 2])
            assert (exc.value.field, exc.value.index) == ("weight", 1)
        with pytest.raises(ValueError, match="finite"):
            kish_neff([1, float("nan")])
        for summary in (kish_neff, design_effect):
            with pytest.raises(DegenerateComponents, match="^all weights are zero$"):
                summary([0, 0, 0])
            with pytest.raises(DegenerateComponents, match="^all weights are zero$"):
                summary([0.0, 0.0])

    @pytest.mark.parametrize("xs,least", [
        ([2.5, 0.5, 4.0], 0.5),
        ([3, 0.5, 2], 0.5),
        ([3, 1, 2], 1.0),
        ([np.float64(2.5), np.float64(0.25), 1.0], 0.25),
        ([Fraction(1, 2), 3.0], None),
    ], ids=["floats", "ints-and-floats", "ints", "numpy-float64", "per-entry"])
    def test_check_hands_back_the_minimum_it_found(self, xs, least):
        # the bulk tiers hand back the minimum they compared with low; after
        # the per-entry path the weight summaries take min(values) themselves
        ys, got = errors._check_reals("weight", xs, 0.0)
        assert ys == check_reals("weight", xs, 0.0)
        assert got == least and (got is None or (type(got) is float and got == min(ys)))
        assert kish_neff(xs) == estimators._kish_neff(ys, min(ys))
        assert errors._check_reals("weight", xs)[1] is None

    def test_int_too_large_for_a_float_is_a_field_error(self):
        reason = "weight must be finite, got an int too large for a float"
        with pytest.raises(FieldError, match=f"^component 1: {reason}$") as exc:
            ComponentSet([1.0, 10**400], [1, 1], [1, 1])
        assert (exc.value.field, exc.value.index) == ("weight", 1)
        for summary in (kish_neff, design_effect):
            with pytest.raises(FieldError, match=f"^index 1: {reason}$"):
                summary([1, 10**400])


def _golden_inputs():
    """A fixed corpus: int dofs, equal weights, one positive component, and
    K=4096 drawn with exact arithmetic only (no libm), so it is the same
    everywhere."""
    rng = random.Random(4096)

    def magnitudes(k):
        return [math.ldexp(0.5 + rng.random(), rng.randint(-10, 10)) for _ in range(k)]

    big = (magnitudes(4096), magnitudes(4096), [rng.randint(1, 500) for _ in range(4096)])
    sets = {
        "int-dofs": ([0.5, 1.25, 2.0, 0.8], [3.0, 0.7, 1.1, 2.5], [4, 9, 30, 2]),
        "equal-weights": ([2.5] * 5, [1.0, 4.0, 0.25, 9.0, 2.0], [3.0, 5.0, 7.5, 10.0, 1.0]),
        "one-positive": ([0.0, 1.5, 0.0], [1.0, 2.0, 3.0], [3, 5, 7]),
        "int-weights": ([1, 2, 3, 7], [1, 1, 2, 2], [5, 5, 5, 5]),
        "k4096": big,
    }
    pseudo_values = {
        "short": [1.0, 2.0, 4.0, 8.0, 3],
        "k4096": [3.0 + math.ldexp(rng.random() - 0.5, 4) for _ in range(4096)],
    }
    mi = {"doubles": MiVariance(1.0, 100.0, 0.2, 5), "ints": MiVariance(2, 37, 1, 12)}
    welch = {"doubles": TwoSampleSummary(10, 17, 1.5, 0.75),
             "ints": TwoSampleSummary(2, 1000, 3, 1)}
    return sets, pseudo_values, mi, welch


def _golden_values() -> dict[str, str]:
    """``float.hex`` of every scalar result on the corpus, by name."""
    sets, pseudo_values, mi, welch = _golden_inputs()
    out = {}
    for name, (weights, variances, dofs) in sets.items():
        cs = ComponentSet(weights, variances, dofs)
        for est in (satterthwaite_df(cs), corrected_df(cs), boardman_df(cs)):
            for field in ("value", "numerator", "denominator"):
                out[f"{name}/{est.variant}.{field}"] = getattr(est, field).hex()
        out[f"{name}/kish_neff"] = kish_neff(weights).hex()
        out[f"{name}/relvariance"] = _relvariance(check_reals("weight", weights, 0.0)).hex()
        out[f"{name}/design_effect"] = design_effect(weights).hex()
    for name, values in pseudo_values.items():
        out[f"jackknife/{name}"] = jackknife_df(values).hex()
    for name, m in mi.items():
        out[f"mi/{name}"] = mi_total_df(m).hex()
    for name, ts in welch.items():
        out[f"welch/{name}/satterthwaite"] = welch_satterthwaite_df(ts).hex()
        out[f"welch/{name}/corrected"] = welch_corrected_df(ts).hex()
    return out


# float.hex of every result of _golden_values(), recorded before the field
# checks got their bulk path; any change in a bit is a regression
GOLDEN = {
    "int-dofs/satterthwaite.value": "0x1.ec7f9440f24ecp+3",
    "int-dofs/satterthwaite.numerator": "0x1.59d851eb851ecp+5",
    "int-dofs/satterthwaite.denominator": "0x1.678a2050197c8p+1",
    "int-dofs/corrected.value": "0x1.916e0a30a7452p+4",
    "int-dofs/corrected.numerator": "0x1.59d851eb851ecp+5",
    "int-dofs/corrected.denominator": "0x1.9889c6489c649p+0",
    "int-dofs/boardman.value": "0x1.b16e0a30a7452p+4",
    "int-dofs/boardman.numerator": "0x1.59d851eb851ecp+5",
    "int-dofs/boardman.denominator": "0x1.9889c6489c649p+0",
    "int-dofs/kish_neff": "0x1.9aae5e9fb0a68p+1",
    "int-dofs/relvariance": "0x1.f942be5e8912cp-3",
    "int-dofs/design_effect": "0x1.3f2857cbd1226p+0",
    "equal-weights/satterthwaite.value": "0x1.0e1ca43602747p+4",
    "equal-weights/satterthwaite.numerator": "0x1.9c99000000000p+10",
    "equal-weights/satterthwaite.denominator": "0x1.870aaaaaaaaabp+6",
    "equal-weights/corrected.value": "0x1.6f80e67127bedp+4",
    "equal-weights/corrected.numerator": "0x1.9c99000000000p+10",
    "equal-weights/corrected.denominator": "0x1.0864029100a44p+6",
    "equal-weights/boardman.value": "0x1.8f80e67127bedp+4",
    "equal-weights/boardman.numerator": "0x1.9c99000000000p+10",
    "equal-weights/boardman.denominator": "0x1.0864029100a44p+6",
    "equal-weights/kish_neff": "0x1.4000000000000p+2",
    "equal-weights/relvariance": "0x0.0p+0",
    "equal-weights/design_effect": "0x1.0000000000000p+0",
    "one-positive/satterthwaite.value": "0x1.4000000000000p+2",
    "one-positive/satterthwaite.numerator": "0x1.2000000000000p+3",
    "one-positive/satterthwaite.denominator": "0x1.ccccccccccccdp+0",
    "one-positive/corrected.value": "0x1.4000000000000p+2",
    "one-positive/corrected.numerator": "0x1.2000000000000p+3",
    "one-positive/corrected.denominator": "0x1.4924924924925p+0",
    "one-positive/boardman.value": "0x1.c000000000000p+2",
    "one-positive/boardman.numerator": "0x1.2000000000000p+3",
    "one-positive/boardman.denominator": "0x1.4924924924925p+0",
    "one-positive/kish_neff": "0x1.0000000000000p+0",
    "one-positive/relvariance": "0x1.0000000000000p+1",
    "one-positive/design_effect": "0x1.8000000000000p+1",
    "int-weights/satterthwaite.value": "0x1.65217c382b34ep+3",
    "int-weights/satterthwaite.numerator": "0x1.0880000000000p+9",
    "int-weights/satterthwaite.denominator": "0x1.7b33333333334p+5",
    "int-weights/corrected.value": "0x1.b3fbade83c7d6p+3",
    "int-weights/corrected.numerator": "0x1.0880000000000p+9",
    "int-weights/corrected.denominator": "0x1.0edb6db6db6dbp+5",
    "int-weights/boardman.value": "0x1.f3fbade83c7d6p+3",
    "int-weights/boardman.numerator": "0x1.0880000000000p+9",
    "int-weights/boardman.denominator": "0x1.0edb6db6db6dbp+5",
    "int-weights/kish_neff": "0x1.575d75d75d75dp+1",
    "int-weights/relvariance": "0x1.f6e94731fcf85p-2",
    "int-weights/design_effect": "0x1.7dba51cc7f3e1p+0",
    "k4096/satterthwaite.value": "0x1.93eb5586b3f23p+11",
    "k4096/satterthwaite.numerator": "0x1.c9639023cdfe7p+50",
    "k4096/satterthwaite.denominator": "0x1.21e37676c9de9p+39",
    "k4096/corrected.value": "0x1.e735ac8ee498dp+11",
    "k4096/corrected.numerator": "0x1.c9639023cdfe7p+50",
    "k4096/corrected.denominator": "0x1.e06a572ede5d8p+38",
    "k4096/boardman.value": "0x1.e775ac8ee498dp+11",
    "k4096/boardman.numerator": "0x1.c9639023cdfe7p+50",
    "k4096/boardman.denominator": "0x1.e06a572ede5d8p+38",
    "k4096/kish_neff": "0x1.194850f3a6ed1p+9",
    "k4096/relvariance": "0x1.91fade602a5a1p+2",
    "k4096/design_effect": "0x1.d1fade602a5a1p+2",
    "jackknife/short": "0x1.fe63a772cb024p+1",
    "jackknife/k4096": "0x1.a609bdc9232cep+12",
    "mi/doubles": "0x1.34f783d42048fp+6",
    "mi/ints": "0x1.7a64b2b41f33cp+5",
    "welch/doubles/satterthwaite": "0x1.cbf1d9e1e83e2p+3",
    "welch/doubles/corrected": "0x1.efe8d1067f3aap+3",
    "welch/ints/satterthwaite": "0x1.0057691205b8fp+0",
    "welch/ints/corrected": "0x1.01063b2a9f182p+0",
}


def test_golden_results_are_bit_identical():
    assert _golden_values() == GOLDEN


def _load_oracle():
    """The benchmark's rational oracle, ``perfbench/oracle.py``, which imports
    nothing from effdof."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "oracle.py"
    spec = importlib.util.spec_from_file_location("_exact_oracle", path)
    oracle = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(oracle)
    return oracle


def _golden_exact() -> dict[str, Fraction]:
    """The exact result behind every ``GOLDEN`` entry, from the rational oracle."""
    oracle = _load_oracle()
    sets, pseudo_values, mi, welch = _golden_inputs()
    out = {}
    for name, (weights, variances, dofs) in sets.items():
        for variant, exact in oracle.df_estimates(weights, variances, dofs).items():
            for field, value in zip(("value", "numerator", "denominator"), exact):
                out[f"{name}/{variant}.{field}"] = value
        kish, deff = oracle.kish_and_deff(weights)
        out.update({f"{name}/kish_neff": kish, f"{name}/relvariance": deff - 1,
                    f"{name}/design_effect": deff})
    for name, values in pseudo_values.items():
        out[f"jackknife/{name}"] = oracle.jackknife(values)
    for name, m in mi.items():
        out[f"mi/{name}"] = oracle.mi(*dataclasses.astuple(m))[1]
    for name, ts in welch.items():
        satt, corr = oracle.welch(*dataclasses.astuple(ts))
        out[f"welch/{name}/satterthwaite"], out[f"welch/{name}/corrected"] = satt, corr
    return out


def test_golden_results_lie_within_3_ulps_of_the_exact_results():
    exact = _golden_exact()
    assert exact.keys() == GOLDEN.keys()
    for name, text in GOLDEN.items():
        ulps = abs(Fraction(float.fromhex(text)) - exact[name]) / Fraction(
            math.ulp(float(exact[name])))
        assert ulps <= 3, (name, float(ulps))


# Census regimes: binary exponent ranges of the weights and variances, and of
# the dofs; each value is 2**e x U(0.5, 1), built exactly by ldexp, so the sets
# are the same on every platform
_CENSUS_REGIMES = {
    "typical": ((-10, 10), (-2, 7)),  # dofs about 0.1-100
    "wide": ((-300, 300), (-2, 7)),
    "extreme": ((-1070, 1020), (-2, 7)),
    "tiny-dofs": ((-10, 10), (-995, -3)),  # dofs about 1e-300..0.1
}
_CENSUS_ESTIMATORS = {"satterthwaite": satterthwaite_df, "corrected": corrected_df,
                      "boardman": boardman_df}
_CENSUS_SETS = 300


def _census(regime: str) -> dict[tuple[str, str], int]:
    """Each estimator's value on ``_CENSUS_SETS`` random sets of the regime (K
    uniform in 2-8, seed 16), against the exact value: counts of ``(estimator,
    outcome)``, where the outcome is "within 4 ulp", "wrong", "refused, exact is
    normal" or "refused, exact is out of range". A refusal is the documented
    ``OverflowError``; any other exception propagates, and a returned value must
    be finite and positive."""
    oracle, rng = _load_oracle(), random.Random(16)
    (lo, hi), (dof_lo, dof_hi) = _CENSUS_REGIMES[regime]

    def draw(low, high):
        return math.ldexp(rng.uniform(0.5, 1.0), rng.randint(low, high))

    counts: dict[tuple[str, str], int] = {}
    for _ in range(_CENSUS_SETS):
        k = rng.randint(2, 8)
        w, v = [draw(lo, hi) for _ in range(k)], [draw(lo, hi) for _ in range(k)]
        dofs = [draw(dof_lo, dof_hi) for _ in range(k)]
        exact, cs = oracle.df_estimates(w, v, dofs), ComponentSet(w, v, dofs)
        for name, estimator in _CENSUS_ESTIMATORS.items():
            value = exact[name][0]
            try:
                nearest = float(value)
            except OverflowError:
                nearest = math.inf
            try:
                got = estimator(cs).value
            except OverflowError:
                normal = sys.float_info.min <= nearest < math.inf
                outcome = f"refused, exact is {'normal' if normal else 'out of range'}"
            else:
                assert math.isfinite(got) and got > 0.0, (regime, name, w, v, dofs, got)
                ulps = (abs(Fraction(got) - value) / Fraction(math.ulp(nearest))
                        if nearest < math.inf else math.inf)
                outcome = "within 4 ulp" if ulps <= 4 else "wrong"
            counts[name, outcome] = counts.get((name, outcome), 0) + 1
    return counts


class TestExactOracleCensus:
    """Every estimate of random sets in four regimes against the exact value.

    Only the typical regime is held to a bound: the classic and Boardman dfs
    within 4 ulp and no refusal. The corrected df's ``- 2`` cancellation, and
    the sums beyond the float range in the other regimes, are known defects;
    those regimes still run, so a new kind of failure (a NaN, an infinite or
    non-positive value, another exception) shows in any of them. The jackknife
    is held within 8 ulp at every common offset of its pseudo-values."""

    @pytest.mark.parametrize("regime", sorted(_CENSUS_REGIMES))
    def test_census(self, regime):
        counts = _census(regime)
        if regime == "typical":
            assert counts["satterthwaite", "within 4 ulp"] == _CENSUS_SETS
            assert counts["boardman", "within 4 ulp"] == _CENSUS_SETS
            assert not any(outcome.startswith("refused") for _, outcome in counts)

    @pytest.mark.parametrize("offset", [0, 13, 27, 50])
    def test_jackknife_within_8_ulp_at_any_common_offset(self, offset):
        # pseudo-values 2**offset + U(-1, 1) (offset 0: U(-1, 1) alone), n in
        # 3-30: the deviations from the rounded mean must not lose the digits
        # the offset takes
        oracle, rng = _load_oracle(), random.Random(5)
        base = math.ldexp(1.0, offset) if offset else 0.0
        worst = 0
        for _ in range(300):
            ts = [base + rng.uniform(-1.0, 1.0) for _ in range(rng.randint(3, 30))]
            if len(set(ts)) == 1:
                continue
            exact = oracle.jackknife(ts)
            ulps = abs(Fraction(jackknife_df(ts)) - exact) / Fraction(math.ulp(float(exact)))
            worst = max(worst, ulps)
        assert worst <= 8, float(worst)


# the sweep's regimes: the census's, and weights whose every entry lies in
# [2**-250, 2**250] while their sum mostly exceeds 2**250 (the edge of the
# weight summaries' gate)
_SWEEP_REGIMES = {**_CENSUS_REGIMES, "gate-edge": ((244, 249), (-2, 7))}


def _scalar_sweep_digest(seed: int = 35, sets: int = 500) -> str:
    """The first 16 hex digits of the sha256 of every scalar result's repr on a
    seeded sweep: in each regime of ``_SWEEP_REGIMES``, ``sets`` times, the
    three :class:`DfEstimate`s of a set of K uniform in 2-8 components,
    ``kish_neff`` and ``design_effect`` of its weights, ``jackknife_df`` of K
    signed pseudo-values, one ``mi_total_df`` and both Welch dfs. Every input
    is 2**e x U(0.5, 1) built exactly by ldexp, so it is the same on every
    platform; a refusal is recorded by its exception type."""
    rng, digest = random.Random(seed), hashlib.sha256()

    def record(fn, *args):
        try:
            text = repr(fn(*args))
        except (ArithmeticError, DegenerateComponents) as exc:
            text = type(exc).__name__
        digest.update(text.encode() + b"\n")

    for regime in sorted(_SWEEP_REGIMES):
        (lo, hi), (dof_lo, dof_hi) = _SWEEP_REGIMES[regime]

        def draw(low, high):
            return math.ldexp(rng.uniform(0.5, 1.0), rng.randint(low, high))

        for _ in range(sets):
            k = rng.randint(2, 8)
            w, v = [draw(lo, hi) for _ in range(k)], [draw(lo, hi) for _ in range(k)]
            cs = ComponentSet(w, v, [draw(dof_lo, dof_hi) for _ in range(k)])
            for estimator in (satterthwaite_df, corrected_df, boardman_df):
                record(estimator, cs)
            record(kish_neff, w)
            record(design_effect, w)
            record(jackknife_df, [rng.choice((-1.0, 1.0)) * draw(lo, hi) for _ in range(k)])
            record(mi_total_df, MiVariance(draw(lo, hi), draw(dof_lo, dof_hi), draw(lo, hi),
                                           rng.randint(2, 100)))
            ts = TwoSampleSummary(rng.randint(2, 1000), rng.randint(2, 1000), draw(lo, hi),
                                  draw(lo, hi))
            record(welch_satterthwaite_df, ts)
            record(welch_corrected_df, ts)
    return digest.hexdigest()[:16]


# _scalar_sweep_digest(): the scalar path uses only operations that IEEE 754
# and CPython fix (+ - * /, fsum, frexp/ldexp, int-to-float, min/max), so one
# digest holds on every platform; a change that moves a bit of any result
# moves it
SCALAR_DIGEST = "9bf78cf56cbee737"


def test_scalar_results_match_their_digest():
    assert _scalar_sweep_digest() == SCALAR_DIGEST
