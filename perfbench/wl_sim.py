"""sim-ideal and sim-weighted: whole simulation grids driven through ``effdof.cli.main``.

One operation is ``effdof simulate --preset P --replicates R --seed S
--threads T --out DIR`` run in-process, rendering included. Every grid of a
run uses the same seed, so after the first one each grid must also reproduce
the first byte for byte. Checks on every grid:

* every cell field is finite and the ratio columns agree with the means;
* equal weights give ``mean_kish == K`` exactly;
* each ``mean_satt``/``mean_corr`` lies within ``Z`` standard errors of the
  high-replicate reference in ``reference.json`` (so a change of draw order
  still passes, but a bias does not);
* the rendered stdout table shows the cells of ``cells.csv``.

Once per run, a small sub-grid must give byte-identical ``cells.csv`` at 1 and
2 threads.
"""

from __future__ import annotations

import importlib
import io
import json
import math
import random
import statistics
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

from common import HERE, Outcome, import_effdof, interpreter_probes, peak_rss_mb
from spans import Tracer, self_seconds

PRESETS = {"sim-ideal": ("tables123", 2), "sim-weighted": ("tables45-random", 1)}
REPLICATES = {"full": 50_000, "tiny": 2_000}
Z = 6.0
# A grid runs for about a second, across many switches between the machine's
# fast and slow states (see common.CAL_REF_S), so a kernel timed at its edges
# says little about it. Instead a fixed gamma-sampling kernel runs in 0.4 s
# windows between the grids, and every grid of the run is scaled by
# GAMMA_REF_S over the mean kernel time of those windows, which tracks the
# run's share of slow time. numpy's gamma sampler is where a grid spends most
# of its time, and it follows the two states differently from pure Python:
# over eight 15 s runs in a row the spread (interquartile range over median)
# of the grid medians was 3.4% (tables45-random) and 6.1% (tables123) scaled
# by this kernel, 14% and 11% scaled by the pure-Python one, and 9% and 6%
# unscaled. GAMMA_REF_S is the kernel's time in the fast state.
GAMMA_REF_S = 0.0016
CALIBRATION_WINDOW_S = 0.4
# the per-replicate Kish n_eff of Normal(1, 0.3) weights has a relative SD
# below 0.05 for K >= 16 (0.03 measured at K = 16)
KISH_REL_SD = 0.05
CELL_FIELDS = ("k", "nu_bar", "mean_satt", "sd_satt", "mean_corr", "sd_corr",
               "mean_kish", "expected", "ratio_kish_k", "ratio_satt", "ratio_corr")


@dataclass
class State:
    cli: object
    preset: str
    seed: int
    replicates: int
    reference: list[dict]
    reference_replicates: int
    out: Path
    argv: list[str]


def setup(workload: str, seed: int, scale: str, work: Path) -> State:
    import_effdof()
    cli = importlib.import_module("effdof.cli")
    preset, threads = PRESETS[workload]
    doc = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))
    sim_seed = random.Random(f"{workload}:{seed}").getrandbits(63)
    replicates = REPLICATES[scale]
    out = work / "grid"
    argv = ["simulate", "--preset", preset, "--replicates", str(replicates),
            "--seed", str(sim_seed), "--threads", str(threads), "--out", str(out)]
    return State(cli, preset, sim_seed, replicates, doc["presets"][preset],
                 doc["provenance"]["replicates"], out, argv)


def simulate(cli, argv) -> tuple[float, int, str]:
    """One timed ``cli.main`` call; returns (seconds, exit code, stdout)."""
    stdout, stderr = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with redirect_stdout(stdout), redirect_stderr(stderr):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects bad flags this way
            code = exc.code if isinstance(exc.code, int) else 2
    return time.perf_counter() - start, code, stdout.getvalue()


def parse_cells(text: str) -> list[dict]:
    lines = text.splitlines()
    if not lines or tuple(lines[0].split(",")) != CELL_FIELDS:
        raise ValueError(f"unexpected cells.csv header {lines[:1]!r}")
    return [dict(zip(CELL_FIELDS, map(float, line.split(",")))) for line in lines[1:]]


def expected_table_rows(cells: list[dict], ratios: bool) -> list[str]:
    """The markdown data rows the CLI should print for these cells (precision 3)."""
    def f(x):
        return f"{x:.3f}"

    rows = []
    for c in cells:
        if ratios:
            cols = [f"{c['k']:g}", f"{c['nu_bar']:g}", f(c["mean_kish"]), f(c["mean_satt"]),
                    f(c["mean_corr"]), f"{c['expected']:g}", f(c["ratio_kish_k"]),
                    f(c["ratio_satt"]), f(c["ratio_corr"])]
        else:
            cols = [f"{c['k']:g}", f"{c['nu_bar']:g}", f(c["mean_satt"]), f(c["sd_satt"]),
                    f(c["mean_corr"]), f(c["sd_corr"]), f"{c['expected']:g}"]
        rows.append("| " + " | ".join(cols) + " |")
    return rows


def check_grid(state: State, code: int, stdout: str) -> tuple[list[str], str]:
    """Problems with one grid run, and its cells.csv text."""
    if code != 0:
        return [f"simulate exited {code}"], ""
    text = (state.out / "cells.csv").read_text(encoding="utf-8")
    manifest = json.loads((state.out / "manifest.json").read_text(encoding="utf-8"))
    cells = parse_cells(text)
    problems = []
    if len(cells) != len(state.reference):
        problems.append(f"{len(cells)} cells, expected {len(state.reference)}")
    equal = state.preset == "tables123"
    r, r_ref = state.replicates, state.reference_replicates
    for c, ref in zip(cells, state.reference):
        where = f"cell K={ref['k']} nu={ref['nu']:g}"
        if (c["k"], c["nu_bar"]) != (ref["k"], ref["nu"]):
            problems.append(f"{where}: got K={c['k']:g} nu={c['nu_bar']:g}")
            continue
        if not all(math.isfinite(v) for v in c.values()):
            problems.append(f"{where}: non-finite field")
            continue
        for stat in ("satt", "corr"):
            se = math.hypot(c[f"sd_{stat}"] / math.sqrt(r), ref[f"sd_{stat}"] / math.sqrt(r_ref))
            if abs(c[f"mean_{stat}"] - ref[f"mean_{stat}"]) > Z * se:
                problems.append(f"{where}: mean_{stat} {c[f'mean_{stat}']!r} is more than "
                                f"{Z:g} SE ({se:.3g}) from {ref[f'mean_{stat}']!r}")
        if equal and c["mean_kish"] != c["k"]:
            problems.append(f"{where}: mean_kish {c['mean_kish']!r} != K in equal mode")
        if not equal and abs(c["mean_kish"] / ref["mean_kish"] - 1) > Z * KISH_REL_SD / math.sqrt(r):
            problems.append(f"{where}: mean_kish {c['mean_kish']!r} vs {ref['mean_kish']!r}")
        if (c["expected"] != c["k"] * c["nu_bar"]
                or c["ratio_kish_k"] != c["mean_kish"] / c["k"]
                or c["ratio_satt"] != c["mean_satt"] / c["expected"]
                or c["ratio_corr"] != c["mean_corr"] / c["expected"]):
            problems.append(f"{where}: ratio columns disagree with the means")
    config = manifest.get("config", {})
    if config.get("seed") != state.seed or config.get("replicates") != r:
        problems.append("manifest config does not echo the seed and replicates")
    redraws = manifest.get("weight_rejections")
    if not isinstance(redraws, int) or redraws < 0 or (equal and redraws != 0):
        problems.append(f"manifest weight_rejections {redraws!r}")
    if stdout.splitlines()[2:] != expected_table_rows(cells, ratios=not equal):
        problems.append("stdout table does not show the cells of cells.csv")
    return problems, text


def check_threads(state: State, work: Path) -> list[str]:
    """A small sub-grid must give byte-identical cells.csv at 1 and 2 threads."""
    argv = ["simulate", "--k", "2", "64", "--nu", "1", "32", "--replicates", "20000",
            "--block-size", "5000", "--seed", str(state.seed)]
    if state.preset != "tables123":
        argv += ["--weights", "random"]
    texts = []
    for threads in (1, 2):
        out = work / f"subgrid-{threads}"
        _, code, _ = simulate(state.cli, argv + ["--threads", str(threads), "--out", str(out)])
        if code != 0:
            return [f"sub-grid at {threads} threads exited {code}"]
        texts.append((out / "cells.csv").read_bytes())
    return [] if texts[0] == texts[1] else ["sub-grid cells differ between 1 and 2 threads"]


def _install(tracer: Tracer, cli) -> None:
    mc = importlib.import_module("effdof.montecarlo")
    tracer.wrap(mc, "sample_component_variance", "montecarlo.draw",
                lambda args, kwargs, result: (result.size,))
    tracer.wrap(mc, "batch_df_estimates", "montecarlo.kernel",
                lambda args, kwargs, result: (len(result[0]), args[1].size))
    tracer.wrap(mc, "batch_kish", "montecarlo.kish")

    class TracedPool(mc.ThreadPoolExecutor):
        """Records each scheduled block as a task span on its worker thread."""

        def submit(self, fn, /, *args, **kwargs):
            return super().submit(tracer.traced(fn, "montecarlo.task"), *args, **kwargs)

    tracer.replace(mc, "ThreadPoolExecutor", TracedPool)
    tracer.wrap(cli, "run_grid_detailed", "montecarlo.grid",
                lambda args, kwargs, result: (result.weight_rejections,
                                              kwargs.get("threads", 1)))
    tracer.wrap(cli, "render_cells", "cli.render")
    tracer.wrap(cli, "cells_csv_full_precision", "cli.render")


def grid_layers(spans) -> dict | None:
    """Per-layer figures of one traced grid (None when the grid call was not seen)."""
    own = self_seconds(spans)
    total: dict[str, float] = {}
    for s in spans:
        total[s.name] = total.get(s.name, 0.0) + own[s.id]
    grid = next((s for s in spans if s.name == "montecarlo.grid"), None)
    if grid is None:
        return None
    redraws, threads = grid.units
    draws = [s for s in spans if s.name == "montecarlo.draw"]
    kernels = [s for s in spans if s.name == "montecarlo.kernel"]
    draw_values = sum(s.units[0] for s in draws)
    kernel_values = sum(s.units[1] for s in kernels)
    draw_s, kernel_s = total.get("montecarlo.draw", 0.0), total.get("montecarlo.kernel", 0.0)
    kish_s = total.get("montecarlo.kish", 0.0)
    tasks = [s for s in spans if s.name == "montecarlo.task"]
    # block work happens in task spans on pool threads, or inside the grid call itself
    busy = sum(s.seconds for s in tasks) if tasks else grid.seconds
    # random weights come with a Kish pass, one weight per drawn variance
    weights_drawn = draw_values if any(s.name == "montecarlo.kish" for s in spans) else 0
    return {
        "montecarlo.draw_s": draw_s,
        "montecarlo.draw_values": draw_values,
        "montecarlo.draw_ns_per_value": draw_s * 1e9 / draw_values if draw_values else 0.0,
        "montecarlo.kernel_s": kernel_s,
        "montecarlo.kernel_rows": sum(s.units[0] for s in kernels),
        "montecarlo.kernel_ns_per_value": kernel_s * 1e9 / kernel_values if kernel_values else 0.0,
        "montecarlo.kish_s": kish_s,
        "montecarlo.residual_s": busy - draw_s - kernel_s - kish_s,
        "montecarlo.weight_redraws": redraws,
        "montecarlo.weight_accept_frac": (weights_drawn / (weights_drawn + redraws)
                                          if weights_drawn else 0.0),
        "montecarlo.busy_frac": busy / (threads * grid.seconds),
        "montecarlo.blocks": len(kernels),
        "cli.render_s": total.get("cli.render", 0.0),
    }


def gamma_window(rng, seconds: float) -> float:
    """Mean time of the gamma kernel over a window of ``seconds`` (at least one run)."""
    times = []
    end = time.perf_counter() + seconds
    while not times or time.perf_counter() < end:
        start = time.perf_counter()
        rng.standard_gamma(0.5, size=20_000)  # the shape < 1 path (nu = 1)
        rng.standard_gamma(8.0, size=20_000)  # the Marsaglia-Tsang path
        times.append(time.perf_counter() - start)
    return statistics.mean(times)


def run(state: State, seconds: float, trace: bool, work: Path) -> Outcome:
    """Run grids until the next one would pass ``seconds``; traced runs alternate grids."""
    outcome = Outcome()
    start = time.perf_counter()
    if trace:
        probes = interpreter_probes(work, ("effdof",))
        outcome.layers["cli.interp_ms"] = probes[""]
        outcome.layers["package.import_ms"] = probes["effdof"] - probes[""]
    traced_ops: list[float] = []
    traced_layers: list[dict] = []
    import numpy  # here, not at module level: set-up times the package's own numpy import

    rng = numpy.random.Generator(numpy.random.Philox(0))
    windows = [gamma_window(rng, CALIBRATION_WINDOW_S)]
    first_text = None
    i = 0
    while True:
        traced = trace and i % 2 == 1
        with Tracer() as tracer:
            if traced:
                _install(tracer, state.cli)
            elapsed, code, stdout = simulate(state.cli, state.argv)
        try:
            problems, text = check_grid(state, code, stdout)
        except (OSError, ValueError, KeyError) as exc:
            problems, text = [f"unreadable output: {exc!r}"], ""
        if first_text is None:
            first_text = text
        elif text != first_text:
            problems.append("cells.csv differs from the first grid of this run (same seed)")
        outcome.record(problems)
        if traced:
            traced_ops.append(elapsed)
            layers = grid_layers(tracer.spans)
            if layers is not None:
                traced_layers.append(layers)
            outcome.spans += tracer.spans
            outcome.untraced.update(tracer.missing)
        else:
            outcome.op_seconds.append(elapsed)
        windows.append(gamma_window(rng, CALIBRATION_WINDOW_S))
        i += 1
        typical = statistics.median(outcome.op_seconds + traced_ops) + CALIBRATION_WINDOW_S
        if i >= (2 if trace else 1) and time.perf_counter() - start + typical > seconds:
            break
    outcome.op_scales = [GAMMA_REF_S / statistics.mean(windows)] * len(outcome.op_seconds)
    outcome.record(check_threads(state, work))
    outcome.peak_rss_mb = peak_rss_mb()
    outcome.summary["grid_s"] = (statistics.median(outcome.op_seconds), "s")
    if traced_layers:
        for name in traced_layers[0]:
            outcome.layers[name] = statistics.median(d[name] for d in traced_layers)
        outcome.layers["trace.overhead_ms"] = (
            statistics.median(traced_ops) - statistics.median(outcome.op_seconds)) * 1e3
    return outcome
