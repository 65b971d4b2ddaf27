"""Acceptance suite: every exit criterion at its pinned tolerance.

Each test prints one PASS/FAIL line (run with ``pytest -s`` to see them all).
Simulation criteria check fixed-seed runs against the documented reference
means and ratio columns; algebraic criteria sweep randomized inputs at exact
tolerances. Reference values and tolerances are pinned here, not configurable.
"""

import math
import subprocess
import sys

import numpy as np
import pytest

from effdof import (
    ComponentSet,
    MiVariance,
    SimConfig,
    TwoSampleSummary,
    boardman_df,
    corrected_df,
    design_effect,
    jackknife_df,
    kish_neff,
    mi_total_df,
    run_grid_detailed,
    satterthwaite_df,
    welch_corrected_df,
    welch_satterthwaite_df,
)
from effdof.montecarlo import sample_component_variance
from oracles import satterthwaite_df_harmonic

SEED = 42
REL = 1e-12


def report(criterion: int, name: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {criterion} [{status}] {name}: {detail}")
    assert ok, f"criterion {criterion} ({name}): {detail}"


def rel_err(value: float, reference: float) -> float:
    return abs(value - reference) / abs(reference)


def test_criterion_1_small_k_small_dof_cell():
    cfg = SimConfig(k_values=(2,), nu_values=(1.0,), seed=SEED,
                    replicates=100_000)
    cell = run_grid_detailed(cfg).cells[0]
    checks = [
        abs(cell.mean_satt - 1.410) <= 0.05,
        abs(cell.mean_corr - 2.229) <= 0.10,
        abs(cell.mean_corr - 2.0) <= 0.25,
    ]
    report(
        1, "K=2 df=1 ideal-case cell (R=100000)",
        all(checks),
        f"mean_satt={cell.mean_satt:.4f} (ref 1.410 +-0.05), "
        f"mean_corr={cell.mean_corr:.4f} (ref 2.229 +-0.10, |.-2|<=0.25)",
    )


def test_criterion_2_large_k_large_dof_cell():
    cfg = SimConfig(k_values=(64,), nu_values=(32.0,), seed=SEED,
                    replicates=10_000)
    cell = run_grid_detailed(cfg).cells[0]
    err_satt = rel_err(cell.mean_satt, 1929.855)
    err_corr = rel_err(cell.mean_corr, 2048.471)
    report(
        2, "K=64 df=32 ideal-case cell (R=10000)",
        err_satt <= 0.01 and err_corr <= 0.01,
        f"mean_satt={cell.mean_satt:.3f} ({err_satt:.2%} vs 1929.855), "
        f"mean_corr={cell.mean_corr:.3f} ({err_corr:.2%} vs 2048.471)",
    )


def test_criterion_3_random_weight_ratios():
    cfg = SimConfig(k_values=(16,), nu_values=(1.0, 5.0, 500.0), seed=SEED,
                    replicates=10_000, weight_mode="random")
    cells = run_grid_detailed(cfg).cells
    reference_corr = {1.0: 1.03, 5.0: 0.94, 500.0: 0.92}
    details = []
    ok = True
    for cell in cells:
        ref = reference_corr[cell.nu_bar]
        ok &= 0.91 <= cell.ratio_kish_k <= 0.93
        ok &= abs(cell.ratio_corr - ref) <= 0.03
        details.append(
            f"nu={cell.nu_bar:g}: kish/K={cell.ratio_kish_k:.3f}, "
            f"corr ratio={cell.ratio_corr:.3f} (ref {ref})"
        )
    report(3, "K=16 random-weight ratio columns (R=10000)", ok, "; ".join(details))


def test_criterion_4_equal_unit_weight_ratios():
    cfg = SimConfig(k_values=(32,), nu_values=(1.0, 5.0, 50.0, 500.0), seed=SEED,
                    replicates=10_000)
    cells = run_grid_detailed(cfg).cells
    reference = {1.0: (1.06, 0.37), 5.0: (1.01, 0.73),
                 50.0: (1.00, 0.96), 500.0: (1.00, 1.00)}
    details = []
    ok = True
    for cell in cells:
        ref_corr, ref_satt = reference[cell.nu_bar]
        ok &= cell.mean_kish == 32.0
        ok &= abs(cell.ratio_corr - ref_corr) <= 0.03
        ok &= abs(cell.ratio_satt - ref_satt) <= 0.03
        details.append(
            f"nu={cell.nu_bar:g}: kish={cell.mean_kish:g}, "
            f"satt={cell.ratio_satt:.3f} (ref {ref_satt}), "
            f"corr={cell.ratio_corr:.3f} (ref {ref_corr})"
        )
    report(4, "K=32 equal-unit-weight ratio columns (R=10000)", ok, "; ".join(details))


def test_criterion_5_exact_algebraic_suite():
    rng = np.random.default_rng(SEED)
    cases = 1_200
    worst = 0.0

    def check(a, b):
        nonlocal worst
        err = abs(a - b) / max(abs(a), abs(b))
        worst = max(worst, err)
        return err <= REL

    ok = True
    for _ in range(cases):
        k = int(rng.integers(2, 10))
        w = rng.uniform(0.01, 10, k)
        v = rng.uniform(0.01, 10, k)
        d = rng.uniform(0.1, 200, k)
        cs = ComponentSet.from_arrays(w, v, d)
        base = {f: f(cs).value for f in (satterthwaite_df, corrected_df, boardman_df)}

        # scale invariance under w -> c w
        for c in (1e-6, 0.5, 3.0, 1e6):
            scaled = ComponentSet.from_arrays(c * w, v, d)
            for f in (satterthwaite_df, corrected_df, boardman_df):
                ok &= check(f(scaled).value, base[f])

        # harmonic-mean identity
        ok &= check(satterthwaite_df_harmonic(cs), base[satterthwaite_df])

        # K=1 fixed point (exact)
        single = ComponentSet.from_arrays(w[:1], v[:1], d[:1])
        ok &= satterthwaite_df(single).value == d[0]
        ok &= corrected_df(single).value == d[0]

        # identical-variance identities against the Kish size
        nu0 = float(rng.uniform(0.5, 100))
        s0 = float(rng.uniform(0.01, 10))
        equal = ComponentSet.from_arrays(w, [s0] * k, [nu0] * k)
        neff = kish_neff(w)
        ok &= check(satterthwaite_df(equal).value, nu0 * neff)
        ok &= check(corrected_df(equal).value, (nu0 + 2) * neff - 2)

        # design effect identity
        ok &= check(design_effect(w) * neff, float(k))

        # shift relation between the unshifted and corrected forms
        ok &= check(base[boardman_df], base[corrected_df] + 2.0)

    report(5, f"exact algebraic identity suite ({cases} randomized cases)",
           ok, f"max relative deviation {worst:.2e} (tolerance {REL:.0e})")


def test_criterion_6_lower_bound_sweep():
    rng = np.random.default_rng(SEED + 1)
    violations = 0
    cases = 10_000
    for _ in range(cases):
        k = int(rng.integers(1, 21))
        w = rng.uniform(0.001, 100, k)
        v = rng.uniform(0.001, 100, k)
        d = rng.uniform(1.0, 100.0, k)
        cs = ComponentSet.from_arrays(w, v, d)
        floor = d.min()
        if satterthwaite_df(cs).value < floor or corrected_df(cs).value < floor:
            violations += 1
    report(6, f"min-dof lower bound over {cases} random sets (K<=20, dof in [1,100])",
           violations == 0, f"{violations} violations")


def test_criterion_7_sampler_moment_checks():
    ok = True
    details = []
    # the true variance is 1: E[S^2] = 1 and E[S^4] * nu / (nu + 2) = 1
    for i, nu in enumerate((1.0, 2.0, 4.0)):
        rng = np.random.Generator(np.random.Philox(SEED + 10 + i))
        draws = sample_component_variance(nu, rng, size=1_000_000)
        mean_tol = 4 * math.sqrt(2 / nu) / 1_000
        mean_err = abs(float(draws.mean()) - 1.0)
        ok &= mean_err <= mean_tol

        transformed = draws**2 * (nu / (nu + 2.0))
        m4_err = abs(float(transformed.mean()) - 1.0)
        m4_tol = 4 * float(transformed.std(ddof=1)) / math.sqrt(draws.size)
        ok &= m4_err <= m4_tol
        details.append(
            f"(nu={nu:g}): |mean err|={mean_err:.2e}<= {mean_tol:.2e}, "
            f"|4th-moment err|={m4_err:.2e}<= {m4_tol:.2e}"
        )
    report(7, "sampler moment checks (1e6 draws each)", ok, "; ".join(details))


def test_criterion_8_application_delegation():
    rng = np.random.default_rng(SEED + 2)
    worst = 0.0
    ok = True

    def check(a, b, tol):
        nonlocal worst, ok
        err = abs(a - b) / max(abs(a), abs(b))
        worst = max(worst, err)
        ok &= err <= tol

    for _ in range(2_000):
        # jackknife vs corrected_df on (1, d_k^2, 1)
        t = rng.normal(0, 2, rng.integers(2, 10))
        mean = math.fsum(map(float, t)) / len(t)
        d_sq = [(x - mean) ** 2 for x in map(float, t)]
        if any(d_sq):
            induced = ComponentSet.from_arrays([1.0] * len(t), d_sq, [1.0] * len(t))
            check(jackknife_df(t), corrected_df(induced).value, REL)

        # multiple imputation vs corrected_df on its two components
        mi = MiVariance(float(rng.uniform(0.01, 5)), float(rng.uniform(1, 300)),
                        float(rng.uniform(0.01, 5)), int(rng.integers(2, 40)))
        w2 = (mi.num_imputations + 1) / mi.num_imputations
        induced = ComponentSet.from_arrays(
            [1.0, w2], [mi.sampling_variance, mi.imputation_variance],
            [mi.sampling_dof, mi.num_imputations - 1])
        check(mi_total_df(mi), corrected_df(induced).value, REL)

        # two-sample wrapper vs corrected_df on its two components
        ts = TwoSampleSummary(int(rng.integers(2, 400)), int(rng.integers(2, 400)),
                              float(rng.uniform(0.01, 9)), float(rng.uniform(0.01, 9)))
        induced = ComponentSet.from_arrays([1 / ts.n1, 1 / ts.n2],
                                           [ts.s1_sq, ts.s2_sq],
                                           [ts.n1 - 1, ts.n2 - 1])
        check(welch_corrected_df(ts), corrected_df(induced).value, REL)

    # worked values against independent direct-formula oracles
    check(jackknife_df([0, 0, 2, 2]), 10.0, 1e-9)
    ts = TwoSampleSummary(10, 10, 1.0, 1.0)
    check(welch_corrected_df(ts), 20.0, 1e-9)
    check(welch_satterthwaite_df(ts), 18.0, 1e-9)
    mi_oracle = 1.24**2 / (1 / 102 + 1.44 * 0.04 / 6) - 2  # = 77.2417...
    check(mi_total_df(MiVariance(1.0, 100.0, 0.2, 5)), mi_oracle, 1e-9)

    report(8, "application wrappers delegate to the corrected estimator",
           ok, f"max relative deviation {worst:.2e} over 2000 randomized cases "
               f"+ worked values (jackknife 10.0, welch 20.0/18.0, mi ~77.242)")


def test_criterion_9_cli_determinism():
    base = [sys.executable, "-m", "effdof", "simulate", "--k", "2", "--nu", "1",
            "--replicates", "20000", "--seed", "123", "--block-size", "4000"]
    outputs = {}
    for threads in ("1", "4"):
        for attempt in range(2):
            proc = subprocess.run(base + ["--threads", threads],
                                  capture_output=True, check=True)
            outputs[(threads, attempt)] = proc.stdout
    distinct = set(outputs.values())
    report(9, "CLI simulate is byte-identical across reruns and threads {1,4}",
           len(distinct) == 1,
           f"{len(outputs)} runs produced {len(distinct)} distinct stdout byte string(s)")
