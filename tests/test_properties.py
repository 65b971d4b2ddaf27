"""Property-based tests of the algebraic invariants."""

import math
import random

import numpy as np
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from effdof import (
    ComponentSet,
    boardman_df,
    corrected_df,
    design_effect,
    jackknife_df,
    kish_neff,
    satterthwaite_df,
)
from effdof.errors import FieldError, check_real, check_reals
from effdof.estimators import _kish_neff, _relvariance, _unit_scaled
from oracles import satterthwaite_df_harmonic

REL = 1e-12

finite_weight = st.floats(min_value=1e-3, max_value=1e3)
finite_variance = st.floats(min_value=1e-3, max_value=1e3)
dof_values = st.floats(min_value=0.05, max_value=500.0)
maybe_zero_weight = st.one_of(st.just(0.0), finite_weight)
# 2**e * x stays a normal float for every x in [1e-3, 1e3] and |e| <= 1000
normal_exponents = st.integers(min_value=-1000, max_value=1000)


@st.composite
def component_sets(draw, min_k=1, max_k=9, allow_zero=False):
    k = draw(st.integers(min_k, max_k))
    weights = [draw(maybe_zero_weight if allow_zero else finite_weight)
               for _ in range(k)]
    variances = [draw(finite_variance) for _ in range(k)]
    dofs = [draw(dof_values) for _ in range(k)]
    assume(any(w * v > 0 for w, v in zip(weights, variances)))
    return ComponentSet(weights, variances, dofs)


@st.composite
def weight_vectors(draw, min_n=1, max_n=12):
    n = draw(st.integers(min_n, max_n))
    ws = [draw(maybe_zero_weight) for _ in range(n)]
    assume(any(ws))
    return ws


def rel_close(a, b, rel=REL):
    return math.isclose(a, b, rel_tol=rel, abs_tol=0.0)


@settings(max_examples=200, deadline=None)
@given(component_sets())
def test_harmonic_form_matches_classic(cs):
    assert rel_close(satterthwaite_df_harmonic(cs), satterthwaite_df(cs).value)


@settings(max_examples=200, deadline=None)
@given(finite_weight, finite_variance, dof_values)
@example(1.0, 3.7, 5.0)
def test_single_component_fixed_point_is_exact(w, v, d):
    cs = ComponentSet([w], [v], [d])
    assert satterthwaite_df(cs).value == d
    assert corrected_df(cs).value == d
    assert boardman_df(cs).value == d + 2.0


@settings(max_examples=300, deadline=None)
@given(component_sets(max_k=12, allow_zero=True))
def test_lower_bound_min_dof(cs):
    min_dof = min(cs.dofs)
    floor = min_dof * (1 - 1e-9)
    assert satterthwaite_df(cs).value >= floor
    assert corrected_df(cs).value >= floor


@settings(max_examples=200, deadline=None)
@given(component_sets(allow_zero=True), dof_values)
def test_equal_dof_ordering(cs, dof):
    equal = ComponentSet(cs.weights, cs.variances, [dof] * len(cs.weights))
    satt = satterthwaite_df(equal).value
    assert corrected_df(equal).value >= satt - REL * abs(satt)


@settings(max_examples=200, deadline=None)
@given(weight_vectors(), finite_variance, dof_values)
@example([0.5, 1.5, 2.0, 0.25], 3.3, 7.0)
def test_identical_components_reduce_to_kish(ws, s0_sq, dof):
    cs = ComponentSet(ws, [s0_sq] * len(ws), [dof] * len(ws))
    neff = kish_neff(ws)
    assert rel_close(satterthwaite_df(cs).value, dof * neff)
    assert rel_close(corrected_df(cs).value, (dof + 2) * neff - 2)


@settings(max_examples=300, deadline=None)
@given(weight_vectors(max_n=24))
def test_design_effect_identity(ws):
    assert rel_close(design_effect(ws) * kish_neff(ws), len(ws))


@settings(max_examples=300, deadline=None)
@given(weight_vectors())
def test_relvariance_sign(ws):
    rv = _relvariance(tuple(ws))
    assert rv >= 0.0
    if all(w == ws[0] for w in ws):
        assert rv == 0.0
    else:
        assert rv > 0.0


@settings(max_examples=200, deadline=None)
@given(component_sets(min_k=2, allow_zero=True), st.randoms(use_true_random=False))
def test_permutation_invariance_is_exact(cs, rnd):
    order = list(range(len(cs.weights)))
    rnd.shuffle(order)
    shuffled = ComponentSet(*([xs[i] for i in order]
                              for xs in (cs.weights, cs.variances, cs.dofs)))
    assert satterthwaite_df(shuffled).value == satterthwaite_df(cs).value
    assert corrected_df(shuffled).value == corrected_df(cs).value
    assert boardman_df(shuffled).value == boardman_df(cs).value


@settings(max_examples=200, deadline=None)
@given(weight_vectors(min_n=2), st.randoms(use_true_random=False))
def test_weight_summary_permutation_invariance(ws, rnd):
    shuffled_weights = list(ws)
    rnd.shuffle(shuffled_weights)
    assert kish_neff(shuffled_weights) == kish_neff(ws)
    assert _relvariance(tuple(shuffled_weights)) == _relvariance(tuple(ws))


@settings(max_examples=200, deadline=None)
@given(component_sets(allow_zero=True))
@example(ComponentSet([1, 2, 3], [0.5, 1.0, 2.5], [3, 9, 27]))
def test_boardman_is_corrected_plus_two(cs):
    assert rel_close(boardman_df(cs).value, corrected_df(cs).value + 2.0)


@settings(max_examples=200, deadline=None)
@given(component_sets(allow_zero=True))
def test_estimate_record_consistency(cs):
    for estimator in (satterthwaite_df, corrected_df, boardman_df):
        est = estimator(cs)
        shift = 2.0 if est.variant == "corrected" else 0.0
        assert rel_close(est.value, est.numerator / est.denominator - shift, rel=1e-9)
        assert est.value > 0


# any float > 0: subnormal, or 2**e times a mantissa for any exponent e
any_positive = st.one_of(
    st.floats(min_value=5e-324, max_value=2.0 ** -1022, exclude_max=True),
    st.builds(math.ldexp, st.floats(min_value=0.5, max_value=1.0, exclude_max=True),
              st.integers(-1073, 1024)))


@settings(deadline=None)  # max_examples comes from the active profile
@given(st.lists(st.tuples(st.one_of(st.just(0.0), any_positive),
                          st.one_of(st.just(0.0), any_positive), any_positive),
                min_size=1, max_size=8))
def test_a_positive_pair_is_never_degenerate_at_any_magnitude(rows):
    positive = [d for w, v, d in rows if w > 0 and v > 0]
    assume(positive)
    cs = ComponentSet(*zip(*rows))
    for estimator in (satterthwaite_df, corrected_df, boardman_df):
        if len(positive) == 1:  # a lone contributor's df is exact, even if w * v underflows
            assert estimator(cs).value == positive[0] + (2.0 if estimator is boardman_df else 0.0)
            continue
        try:
            value = estimator(cs).value
        except OverflowError:
            continue
        assert 0.0 < value < math.inf


@settings(max_examples=300, deadline=None)
@given(weight_vectors(), normal_exponents)
def test_weight_summaries_power_of_two_scaling_is_exact(ws, e):
    scaled = [math.ldexp(w, e) for w in ws]
    assert kish_neff(scaled) == kish_neff(ws)
    assert design_effect(scaled) == design_effect(ws)


def _always_scaled_kish(ws):
    """Kish n_eff with the power-of-two scaling applied to every input."""
    if len(set(ws)) == 1:
        return float(len(ws))
    ws = _unit_scaled(ws)
    total = math.fsum(ws)
    return total * total / math.fsum(w * w for w in ws)


def _always_scaled_relvariance(ws):
    """The relvariance with the power-of-two scaling applied to every input."""
    if len(set(ws)) == 1:
        return 0.0
    ws = _unit_scaled(ws)
    mean = math.fsum(ws) / len(ws)
    return math.fsum((d := w / mean - 1.0) * d for w in ws) / len(ws)


def _gate_vectors(inside=20_000, edges=10_000):
    """Seeded weight vectors of 1-12 weights 2**e x U(0.5, 1), built exactly by
    ldexp, whose exponents lie within 12 of a common one. The first ``inside``
    keep every weight in [2**-250, 2**250], where the weight summaries skip
    their scaling; the other ``edges`` centre near the gate's edges 2**-250 and
    2**250, near 2**-511 and 2**512 where a square leaves the normal range, or
    anywhere in the float range, with up to two zeros, subnormals or weights of
    any exponent mixed in."""
    rng = random.Random(38)

    def weight(low, high):
        return math.ldexp(rng.uniform(0.5, 1.0), rng.randint(low, high))

    for i in range(inside + edges):
        centers = [(-237, 237)] if i < inside else [
            (-262, -238), (238, 262), (-540, -500), (500, 540), (-1074, 1024)]
        center, spread = rng.randint(*rng.choice(centers)), rng.randint(0, 12)
        ws = [weight(max(center - spread, -1074), min(center + spread, 1024))
              for _ in range(rng.randint(1, 12))]
        for _ in range(0 if i < inside else rng.randint(0, 2)):
            odd = [0.0, rng.uniform(0.0, 2.0 ** -1022), weight(-1074, 1024)]
            ws.insert(rng.randint(0, len(ws)), rng.choice(odd))
        if any(ws):
            yield tuple(ws)


def test_weight_summaries_skip_scaling_without_changing_a_bit():
    # a seeded sweep, not a property: a last-bit change in either formula shows
    # on about 1 vector in 1,100, which a few hundred examples can miss
    moved = [ws for ws in _gate_vectors()
             if _kish_neff(ws).hex() != _always_scaled_kish(ws).hex()
             or _relvariance(ws).hex() != _always_scaled_relvariance(ws).hex()]
    assert moved == []


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(st.just(0.0), finite_weight, finite_weight.map(lambda x: -x)),
                min_size=2, max_size=12),
       normal_exponents)
def test_jackknife_power_of_two_scaling_is_exact(ts, e):
    assume(any(t != ts[0] for t in ts))
    assert jackknife_df([math.ldexp(t, e) for t in ts]) == jackknife_df(ts)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(min_value=-1e3, max_value=1e3), min_size=2, max_size=12))
def test_jackknife_lower_bound_and_shift_invariance(ts):
    # a spread comparable to the shift keeps the deviations representable
    assume(max(ts) - min(ts) > 1e-6)
    value = jackknife_df(ts)
    assert value >= 1.0 - 1e-9
    shifted = jackknife_df([t + 123.25 for t in ts])
    assert math.isclose(shifted, value, rel_tol=1e-6)


class _FloatSubclass(float):
    pass


# entries check_reals accepts in bulk when low is 0.0 (the sum of two of the
# largest overflows, which sends a sequence to the per-entry path)
plain_entries = st.one_of(st.floats(min_value=0.0, max_value=1e300), st.integers(0, 10**6),
                          st.sampled_from([0.0, -0.0, 0, 1.7976931348623157e308]))
# entries the per-entry path has to judge: bad values, and types it converts itself
odd_entries = st.one_of(
    st.floats(),  # nan, +-inf, -0.0, subnormals and negatives
    st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, math.nan, math.inf, -math.inf]),
    st.integers(min_value=-(10**400), max_value=10**400),
    st.booleans(),
    st.text(max_size=3),
    st.fractions(),
    st.decimals(),
    st.floats(min_value=-1e300, max_value=1e300).map(np.float64),
    st.floats().map(_FloatSubclass),
)


@st.composite
def field_sequences(draw):
    xs = draw(st.lists(plain_entries, max_size=12))
    for _ in range(draw(st.integers(0, 2))):
        xs.insert(draw(st.integers(0, len(xs))), draw(odd_entries))
    return xs


def _outcome(check):
    """``check()``'s floats as hex strings, or its error's type, message (which
    holds the label) and fields."""
    try:
        ys = check()
    except FieldError as exc:
        return type(exc), str(exc), exc.field, exc.index, exc.reason
    assert type(ys) is tuple and all(type(y) is float for y in ys)
    return [y.hex() for y in ys]


# numpy arrays: float64 entries take the bulk path, int64 ones the per-entry path
numpy_arrays = st.one_of(
    st.lists(st.one_of(plain_entries.map(float), st.floats()), max_size=12)
    .map(lambda xs: np.array(xs, dtype=np.float64)),
    st.lists(st.integers(-(2**63), 2**63 - 1), max_size=12)
    .map(lambda xs: np.array(xs, dtype=np.int64)),
)


@settings(deadline=None)  # max_examples comes from the active profile
@given(st.one_of(field_sequences(), numpy_arrays), st.sampled_from([None, 0.0]),
       st.booleans(), st.booleans())
def test_check_reals_matches_the_per_entry_check(xs, low, strict, as_generator):
    expected = _outcome(lambda: tuple(check_real("weight", x, low, strict, i, "component")
                                      for i, x in enumerate(xs)))
    given_xs = (x for x in xs) if as_generator else xs
    assert _outcome(lambda: check_reals("weight", given_xs, low, strict=strict,
                                        label="component")) == expected
