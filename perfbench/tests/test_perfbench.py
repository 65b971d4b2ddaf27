"""Tests of the benchmark itself: a tiny smoke run of every workload, and one
case per output check that injects a wrong result (here, never in ``src/``)
and asserts that the check trips.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import dataclasses
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import common  # noqa: E402
import wl_cli  # noqa: E402
import wl_lib  # noqa: E402
import wl_sim  # noqa: E402

WORKLOADS = ("sim-ideal", "sim-weighted", "lib-estimate", "cli-oneshot")
MODULES = {"sim-ideal": wl_sim, "sim-weighted": wl_sim, "lib-estimate": wl_lib,
           "cli-oneshot": wl_cli}


def run_cli(*args, cwd=common.ROOT):
    return subprocess.run([sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_prints_every_metric(workload, trace):
    out = run_cli("--workload", workload, "--seed", "3", "--seconds", "1",
                  "--trace", str(trace), "--scale", "tiny")
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    names = common.LAYER_UNITS if trace else common.E2E_UNITS
    assert {k: v["unit"] for k, v in result["metrics"].items()} == names
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_benchmark_json_names_the_metrics_the_runs_print():
    spec = json.loads((common.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == common.E2E_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == common.LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def test_refuses_a_directory_without_the_package(tmp_path):
    shutil.copy(common.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    out = run_cli("--workload", "lib-estimate", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert out.returncode != 0
    assert out.stdout == ""


def measure(workload, seconds=0.5, **state_changes):
    """One tiny in-process run; returns its Outcome."""
    module = MODULES[workload]
    with common.work_dir() as work:
        state = module.setup(workload, 5, "tiny", work)
        state = dataclasses.replace(state, **state_changes)
        return module.run(state, seconds, False, work)


def assert_trips(outcome, phrase):
    assert outcome.failed > 0 and outcome.fail_frac > 0
    assert any(phrase in f for f in outcome.failures), outcome.failures


# --- simulation checks ------------------------------------------------------

@pytest.fixture
def cli_module():
    common.import_effdof()
    import effdof.cli

    return effdof.cli


def patch_grid(monkeypatch, cli, change):
    """Make the CLI's grid call return the cells altered by ``change(cells, call, threads)``."""
    original = cli.run_grid_detailed
    calls = []

    def wrong(cfg, *, threads=1):
        result = original(cfg, threads=threads)
        calls.append(threads)
        return dataclasses.replace(result, cells=change(list(result.cells), len(calls), threads))

    monkeypatch.setattr(cli, "run_grid_detailed", wrong)


def patch_cells(monkeypatch, cli, change):
    """Make the CLI's grid call return cells altered by ``change(cell, call, threads)``."""
    patch_grid(monkeypatch, cli,
               lambda cells, call, threads: [change(c, call, threads) for c in cells])


@pytest.mark.parametrize("workload", ["sim-ideal", "sim-weighted"])
def test_sim_clean_run_passes(workload):
    assert measure(workload).fail_frac == 0


def test_sim_non_finite_cell_trips(monkeypatch, cli_module):
    patch_cells(monkeypatch, cli_module,
                lambda c, call, threads: dataclasses.replace(c, sd_corr=math.nan))
    assert_trips(measure("sim-ideal"), "non-finite")


def test_sim_equal_mode_kish_trips(monkeypatch, cli_module):
    def change(c, call, threads):
        kish = c.k + 0.5
        return dataclasses.replace(c, mean_kish=kish, ratio_kish_k=kish / c.k)

    patch_cells(monkeypatch, cli_module, change)
    assert_trips(measure("sim-ideal"), "!= K in equal mode")


def test_sim_biased_mean_trips(monkeypatch, cli_module):
    def change(c, call, threads):
        mean = c.mean_corr + 10 * c.sd_corr / math.sqrt(wl_sim.REPLICATES["tiny"])
        return dataclasses.replace(c, mean_corr=mean, ratio_corr=mean / c.expected)

    patch_cells(monkeypatch, cli_module, change)
    assert_trips(measure("sim-weighted"), "SE")


def test_sim_thread_dependent_cells_trip(monkeypatch, cli_module):
    def change(c, call, threads):
        if threads == 1:
            return c
        mean = math.nextafter(c.mean_satt, math.inf)
        return dataclasses.replace(c, mean_satt=mean, ratio_satt=mean / c.expected)

    patch_cells(monkeypatch, cli_module, change)
    assert_trips(measure("sim-weighted"), "differ between 1 and 2 threads")


def test_sim_irreproducible_rerun_trips(monkeypatch, cli_module):
    def change(c, call, threads):
        if call != 2:
            return c
        mean = math.nextafter(c.mean_satt, math.inf)
        return dataclasses.replace(c, mean_satt=mean, ratio_satt=mean / c.expected)

    patch_cells(monkeypatch, cli_module, change)
    assert_trips(measure("sim-weighted", seconds=2.5), "differs from the first grid")


def test_sim_inconsistent_ratio_trips(monkeypatch, cli_module):
    patch_cells(monkeypatch, cli_module,
                lambda c, call, threads: dataclasses.replace(c, ratio_satt=c.ratio_satt * 2))
    assert_trips(measure("sim-ideal"), "ratio columns")


def test_sim_random_mode_kish_trips(monkeypatch, cli_module):
    def change(c, call, threads):
        kish = c.mean_kish * 1.05
        return dataclasses.replace(c, mean_kish=kish, ratio_kish_k=kish / c.k)

    patch_cells(monkeypatch, cli_module, change)
    assert_trips(measure("sim-weighted"), "mean_kish")


def test_sim_wrong_manifest_trips(monkeypatch, cli_module):
    original = cli_module.build_manifest
    monkeypatch.setattr(cli_module, "build_manifest",
                        lambda cfg, rejections, duration: original(cfg, -1, duration))
    assert_trips(measure("sim-weighted"), "weight_rejections")


@pytest.mark.parametrize("key", ["seed", "replicates"])
def test_sim_manifest_config_echo_trips(monkeypatch, cli_module, key):
    original = cli_module.build_manifest

    def wrong(cfg, rejections, duration):
        manifest = original(cfg, rejections, duration)
        manifest["config"][key] += 1
        return manifest

    monkeypatch.setattr(cli_module, "build_manifest", wrong)
    assert_trips(measure("sim-ideal"), "echo the seed and replicates")


def test_sim_missing_cell_trips(monkeypatch, cli_module):
    patch_grid(monkeypatch, cli_module, lambda cells, call, threads: cells[:-1])
    assert_trips(measure("sim-ideal"), "cells, expected")


def test_sim_wrong_cell_identity_trips(monkeypatch, cli_module):
    patch_grid(monkeypatch, cli_module, lambda cells, call, threads: cells[::-1])
    assert_trips(measure("sim-weighted"), "got K=")


def test_sim_renamed_csv_column_trips(monkeypatch, cli_module):
    original = cli_module.cells_csv_full_precision
    monkeypatch.setattr(cli_module, "cells_csv_full_precision",
                        lambda cells: original(cells).replace("mean_kish", "kish", 1))
    assert_trips(measure("sim-ideal"), "unexpected cells.csv header")


def test_sim_wrong_table_trips(monkeypatch, cli_module):
    original = cli_module.render_cells
    monkeypatch.setattr(cli_module, "render_cells",
                        lambda *a, **k: original(*a, **k).replace("| 2 |", "| 3 |", 1))
    assert_trips(measure("sim-ideal"), "stdout table")


# --- library checks -----------------------------------------------------------

@pytest.fixture
def effdof():
    return common.import_effdof()


def test_lib_clean_run_passes():
    assert measure("lib-estimate").fail_frac == 0


@pytest.mark.parametrize("name,field,phrase", [
    ("satterthwaite_df", "value", "satterthwaite.value"),
    ("corrected_df", "value", "corrected.value"),
    ("corrected_df", "denominator", "corrected.denominator"),
    ("boardman_df", "value", "corrected + 2"),
])
def test_lib_wrong_df_estimate_trips(monkeypatch, effdof, name, field, phrase):
    original = getattr(effdof, name)

    def wrong(cs):
        est = original(cs)
        return dataclasses.replace(est, **{field: getattr(est, field) * (1 + 1e-8)})

    monkeypatch.setattr(effdof, name, wrong)
    assert_trips(measure("lib-estimate"), phrase)


@pytest.mark.parametrize("name,phrase", [
    ("design_effect", "kish_neff * design_effect"),
    ("kish_neff", "kish_neff="),
])
def test_lib_wrong_weight_summary_trips(monkeypatch, effdof, name, phrase):
    original = getattr(effdof, name)
    monkeypatch.setattr(effdof, name, lambda w: original(w) * (1 + 1e-8))
    assert_trips(measure("lib-estimate"), phrase)


@pytest.mark.parametrize("name,phrase", [
    ("jackknife_df", "jackknife df"),
    ("mi_total_df", "mi total_df"),
    ("welch_corrected_df", "welch corrected_df"),
])
def test_lib_wrong_application_trips(monkeypatch, effdof, name, phrase):
    original = getattr(effdof, name)
    monkeypatch.setattr(effdof, name, lambda *a: original(*a) * (1 + 1e-8))
    assert_trips(measure("lib-estimate"), phrase)


def test_lib_raising_call_trips(monkeypatch, effdof):
    def broken(weights):
        raise ZeroDivisionError("injected")

    monkeypatch.setattr(effdof, "kish_neff", broken)
    assert_trips(measure("lib-estimate"), "raised")


# --- CLI checks ----------------------------------------------------------------

def shim(work_parent: Path, body: str) -> list[str]:
    """A ``python -m effdof`` stand-in that alters the CLI before running it."""
    path = work_parent / "shim_effdof.py"
    path.write_text("import sys\nimport effdof.cli as cli\n" + body
                    + "\nsys.exit(cli.main())\n", encoding="utf-8")
    return [sys.executable, str(path)]


def test_cli_clean_run_passes():
    assert measure("cli-oneshot").fail_frac == 0


@pytest.mark.parametrize("body,phrase", [
    ("orig = cli.welch_corrected_df\n"
     "cli.welch_corrected_df = lambda ts: orig(ts) + 1e-3", "does not match the oracle"),
    ("orig = cli.main\ncli.main = lambda argv=None: 0 if orig(argv) else 0", "expected"),
    ("def boom(*a):\n    raise RuntimeError('injected')\ncli.jackknife_df = boom", "traceback"),
    ("orig = cli.main\ndef noisy(argv=None):\n    code = orig(argv)\n"
     "    print('x' if code else '', end='')\n    return code\ncli.main = noisy",
     "error case printed"),
])
def test_cli_wrong_output_trips(tmp_path, body, phrase):
    assert_trips(measure("cli-oneshot", argv0=shim(tmp_path, body)), phrase)
