"""lib-estimate: a closed loop with one in-process caller of the library.

Requests come in blocks of 50: 35 ``estimate`` requests (ComponentSet, the
three df estimators, Kish n_eff and design effect, as ``effdof estimate``
computes them) and 5 each of ``jackknife_df``, ``mi_total_df`` and the two
Welch estimators. K (components, or pseudo-values) is log-uniform on
[2, 4096] and stratified within each block, so the mean work per block barely
depends on the seed. Block b is a pure function of (seed, b). Each result is
checked against the exact oracle outside the timed call.
"""

from __future__ import annotations

import random
import statistics
import time
from dataclasses import dataclass

import oracle
from common import (Outcome, block_rate, calibration_seconds, import_effdof,
                    interpreter_probes, peak_rss_mb, quantile, tail_ok)
from spans import Tracer, self_seconds

BLOCK = ("estimate",) * 35 + ("jackknife",) * 5 + ("mi",) * 5 + ("welch",) * 5
K_RANGE = {"full": (2, 4096), "tiny": (2, 64)}
DOF_MAX = 500
REL = 1e-10       # oracle agreement; float error stays below 1e-13 on these inputs
IDENTITY_REL = 1e-12


def _log_uniform(rng: random.Random, lo: float, hi: float, u: float | None = None) -> float:
    return lo * (hi / lo) ** (rng.random() if u is None else u)


def _magnitude(rng: random.Random) -> float:
    """Typical magnitudes, log-uniform on [1e-3, 1e3]."""
    return 10.0 ** rng.uniform(-3.0, 3.0)


def _stratified_sizes(rng: random.Random, n: int, lo: int, hi: int) -> list[int]:
    """n sizes, log-uniform on [lo, hi], one from each of n equal-probability strata."""
    sizes = [round(_log_uniform(rng, lo, hi, (j + rng.random()) / n)) for j in range(n)]
    rng.shuffle(sizes)
    return sizes


def make_block(seed: int, b: int, scale: str) -> list[tuple[str, tuple]]:
    rng = random.Random(f"lib-estimate:{seed}:{b}")
    lo, hi = K_RANGE[scale]
    kinds = list(BLOCK)
    rng.shuffle(kinds)
    sizes = {kind: _stratified_sizes(rng, kinds.count(kind), lo, hi)
             for kind in ("estimate", "jackknife")}
    block = []
    for kind in kinds:
        if kind == "estimate":
            k = sizes[kind].pop()
            payload = ([_magnitude(rng) for _ in range(k)],
                       [_magnitude(rng) for _ in range(k)],
                       [round(_log_uniform(rng, 1, DOF_MAX)) for _ in range(k)])
        elif kind == "jackknife":
            # a level within ten spreads of zero keeps the deviations well conditioned
            spread, level = _magnitude(rng), rng.uniform(-10.0, 10.0)
            payload = ([spread * (level + rng.gauss(0.0, 1.0))
                        for _ in range(sizes[kind].pop())],)
        elif kind == "mi":
            payload = (_magnitude(rng), float(round(_log_uniform(rng, 1, DOF_MAX))),
                       _magnitude(rng), rng.randint(2, 100))
        else:
            payload = (rng.randint(2, 1000), rng.randint(2, 1000),
                       _magnitude(rng), _magnitude(rng))
        block.append((kind, payload))
    return block


# Each call looks its functions up on the package at call time, so a traced
# run (and a test that injects a wrong result) sees the replaced attributes.

def call_estimate(effdof, weights, variances, dofs):
    cs = effdof.ComponentSet.from_arrays(weights, variances, dofs)
    return (effdof.satterthwaite_df(cs), effdof.corrected_df(cs), effdof.boardman_df(cs),
            effdof.kish_neff(weights), effdof.design_effect(weights))


def call_jackknife(effdof, values):
    return effdof.jackknife_df(values)


def call_mi(effdof, vs, nus, vi, m):
    return effdof.mi_total_df(effdof.MiVariance(vs, nus, vi, m))


def call_welch(effdof, n1, n2, s1, s2):
    ts = effdof.TwoSampleSummary(n1, n2, s1, s2)
    return effdof.welch_satterthwaite_df(ts), effdof.welch_corrected_df(ts)


CALLS = {"estimate": call_estimate, "jackknife": call_jackknife, "mi": call_mi,
         "welch": call_welch}


def check(kind: str, payload: tuple, result) -> list[str]:
    """Problems with one result; empty when it matches the oracle and the identities."""
    problems = []

    def expect(label, value, exact):
        if not oracle.close(value, exact, REL):
            problems.append(f"{kind} {label}={value!r}, exact {float(exact)!r}")

    if kind == "estimate":
        weights = payload[0]
        exact = oracle.df_estimates(*payload)
        for est, name in zip(result[:3], ("satterthwaite", "corrected", "boardman")):
            for field_name, value, ref in zip(("value", "numerator", "denominator"),
                                              (est.value, est.numerator, est.denominator),
                                              exact[name]):
                expect(f"{name}.{field_name}", value, ref)
        _, corr, board, kish, deff = result
        if abs(board.value - (corr.value + 2.0)) > IDENTITY_REL * board.value:
            problems.append(f"boardman {board.value!r} != corrected + 2 ({corr.value!r})")
        k = len(weights)
        if abs(kish * deff - k) > IDENTITY_REL * k:
            problems.append(f"kish_neff * design_effect = {kish * deff!r}, K = {k}")
        exact_kish, exact_deff = oracle.kish_and_deff(weights)
        expect("kish_neff", kish, exact_kish)
        expect("design_effect", deff, exact_deff)
    elif kind == "jackknife":
        expect("df", result, oracle.jackknife(*payload))
    elif kind == "mi":
        expect("total_df", result, oracle.mi(*payload)[1])
    else:
        satt, corr = oracle.welch(*payload)
        expect("satterthwaite_df", result[0], satt)
        expect("corrected_df", result[1], corr)
    return problems


@dataclass
class State:
    effdof: object
    seed: int
    scale: str
    first_block: list


def setup(workload: str, seed: int, scale: str, work) -> State:
    effdof = import_effdof()
    return State(effdof, seed, scale, make_block(seed, 0, scale))


def _install(tracer: Tracer, effdof) -> None:
    def size_of_first(args, kwargs, result):
        return (len(args[0]),)

    tracer.wrap(effdof.ComponentSet, "from_arrays", "estimators.build", size_of_first)
    for name in ("satterthwaite_df", "corrected_df", "boardman_df"):
        tracer.wrap(effdof, name, "estimators.df")
    for name in ("kish_neff", "design_effect"):
        tracer.wrap(effdof, name, "estimators.kish")
    tracer.wrap(effdof, "jackknife_df", "applications.jackknife", size_of_first)
    tracer.wrap(effdof, "mi_total_df", "applications.mi")
    for name in ("welch_satterthwaite_df", "welch_corrected_df"):
        tracer.wrap(effdof, name, "applications.welch")


def _layers(spans) -> dict:
    """Per-unit times of the size-dependent calls, median times of the fixed-size ones."""
    own = self_seconds(spans)
    time_in: dict[str, float] = {}
    units: dict[str, int] = {}
    calls: dict[str, list[float]] = {}
    for s in spans:
        time_in[s.name] = time_in.get(s.name, 0.0) + own[s.id]
        units[s.name] = units.get(s.name, 0) + (s.units[0] if s.units else 0)
        calls.setdefault(s.name, []).append(own[s.id])

    def per(name, base):
        return time_in.get(name, 0.0) * 1e6 / base if base else 0.0

    def median_us(name):
        return statistics.median(calls[name]) * 1e6 if name in calls else 0.0

    components = units.get("estimators.build", 0)
    return {
        "estimators.build_us_per_component": per("estimators.build", components),
        "estimators.df_us_per_component": per("estimators.df", components),
        "estimators.kish_us_per_weight": per("estimators.kish", components),
        "applications.jackknife_us_per_value": per("applications.jackknife",
                                                   units.get("applications.jackknife", 0)),
        "applications.mi_us": median_us("applications.mi"),
        # two estimators per Welch request
        "applications.welch_us": 2 * median_us("applications.welch"),
    }


def run(state: State, seconds: float, trace: bool, work) -> Outcome:
    """Serve whole blocks until ``seconds`` have passed; traced runs alternate blocks."""
    effdof, outcome = state.effdof, Outcome(block=len(BLOCK))
    if trace:
        probes = interpreter_probes(work, ("effdof",))
        outcome.layers["cli.interp_ms"] = probes[""]
        outcome.layers["package.import_ms"] = probes["effdof"] - probes[""]
    traced_ops: list[float] = []
    spans = []
    deadline = time.perf_counter() + seconds
    b = 0
    while b < 2 or time.perf_counter() < deadline:
        block = state.first_block if b == 0 else make_block(state.seed, b, state.scale)
        tracer, traced = Tracer(), trace and b % 2 == 1
        if traced:
            _install(tracer, effdof)
        before = calibration_seconds()
        times = []
        with tracer:
            for kind, payload in block:
                start = time.perf_counter()
                try:
                    result = CALLS[kind](effdof, *payload)
                except Exception as exc:  # a raising call is a failed operation
                    result, problems = None, [f"{kind} raised {exc!r}"]
                times.append(time.perf_counter() - start)
                if result is not None:
                    problems = check(kind, payload, result)
                outcome.record(problems)
        calibration = (before + calibration_seconds()) / 2
        if traced:
            traced_ops += times
            spans += tracer.spans
            outcome.untraced.update(tracer.missing)
        else:
            for elapsed in times:
                outcome.add_op(elapsed, calibration)
        b += 1
    outcome.peak_rss_mb = peak_rss_mb()
    plain_ops = outcome.op_seconds
    us = [t * 1e6 for t in plain_ops]
    outcome.summary["calls_per_s"] = (block_rate(plain_ops, len(BLOCK)), "1/s")
    outcome.summary["call_p50_us"] = (statistics.median(us), "us")
    if tail_ok(len(us), 0.99):
        outcome.summary["call_p99_us"] = (quantile(us, 0.99), "us")
    if trace:
        outcome.layers.update(_layers(spans))
        outcome.layers["trace.overhead_ms"] = (
            statistics.median(traced_ops) - statistics.median(plain_ops)) * 1e3
        outcome.spans = spans
    return outcome
