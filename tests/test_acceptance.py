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

from effdof import (
    ComponentSet,
    SimConfig,
    boardman_df,
    corrected_df,
    run_grid_detailed,
    satterthwaite_df,
)
from effdof.montecarlo import sample_component_variance

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
    # scale invariance in the weights; the paper's other exact identities (the
    # K = 1 fixed point, Boardman = corrected + 2, the Kish reductions, the
    # design-effect identity and the harmonic form) each have one property in
    # tests/test_properties.py. Sets of K 1-9 as numpy arrays, weights zero or
    # log-uniform in 1e-3..1e3
    rng = np.random.default_rng(SEED)
    cases = 1_200
    worst = 0.0
    for _ in range(cases):
        k = int(rng.integers(1, 10))
        w = np.where(rng.random(k) < 0.2, 0.0, 10.0 ** rng.uniform(-3, 3, k))
        if not w.any():
            w[rng.integers(k)] = 1.0
        v = 10.0 ** rng.uniform(-3, 3, k)
        d = rng.uniform(0.05, 500, k)
        cs = ComponentSet(w, v, d)
        for c in (1e-6, 0.5, 3.0, 1e6, 10.0 ** rng.uniform(-6, 6)):
            scaled = ComponentSet(c * w, v, d)
            for f in (satterthwaite_df, corrected_df, boardman_df):
                worst = max(worst, rel_err(f(scaled).value, f(cs).value))

    report(5, f"scale invariance in the weights ({cases} randomized cases)",
           worst <= REL, f"max relative deviation {worst:.2e} (tolerance {REL:.0e})")


def test_criterion_6_lower_bound_sweep():
    rng = np.random.default_rng(SEED + 1)
    violations = 0
    cases = 10_000
    for _ in range(cases):
        k = int(rng.integers(1, 21))
        w = rng.uniform(0.001, 100, k)
        v = rng.uniform(0.001, 100, k)
        d = rng.uniform(1.0, 100.0, k)
        cs = ComponentSet(w, v, d)
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
