"""effdof benchmark: one workload, timed from outside, every output checked.

Run from the root of a checkout:

    python3 perfbench/run.py --workload sim-ideal --seed 1 --seconds 25 --trace 0

Workloads (see README.md for why each exists and what its layers should move):

* ``sim-ideal``     ``effdof simulate --preset tables123 --threads 2`` via ``cli.main``
* ``sim-weighted``  ``effdof simulate --preset tables45-random --threads 1`` via ``cli.main``
* ``lib-estimate``  closed loop of estimator calls on the library, one caller
* ``cli-oneshot``   closed loop of fresh ``python -m effdof`` processes, one caller

``--trace 0`` reports the end-to-end metrics of ``common.E2E_UNITS``;
``--trace 1`` is a separate run that wraps effdof's public functions and
reports the per-layer metrics of ``common.LAYER_UNITS``. The last stdout line
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it give the named summary figures, the sample
counts and the environment. Exit code 2 means the checkout holds no effdof
package to measure.
"""

from __future__ import annotations

import argparse
import statistics
import subprocess
import sys
import time

import common
import wl_cli
import wl_lib
import wl_sim
from spans import write_spans

WORKLOADS = {"sim-ideal": wl_sim, "sim-weighted": wl_sim, "lib-estimate": wl_lib,
             "cli-oneshot": wl_cli}
THREADS = {"sim-ideal": 2}
SETUP_PROBES = 9


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description="Run one effdof benchmark workload.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny shrinks every input, for the benchmark's own tests")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def timed_setup(args, work):
    """Set the workload up; returns (seconds at reference speed, state)."""
    module = WORKLOADS[args.workload]
    before = common.calibration_seconds()
    start = time.perf_counter()
    state = module.setup(args.workload, args.seed, args.scale, work)
    seconds = time.perf_counter() - start
    calibration = (before + common.calibration_seconds()) / 2
    return seconds * common.CAL_REF_S / calibration, state


def setup_seconds(args) -> list[float]:
    """Set-up times of fresh interpreters: import plus input generation."""
    argv = [sys.executable, __file__, "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", "0", "--scale", args.scale, "--setup-probe"]
    samples = []
    for _ in range(SETUP_PROBES):
        out = subprocess.run(argv, cwd=common.ROOT, capture_output=True, text=True,
                             timeout=120, check=True)
        samples.append(float(out.stdout.split()[-1]))
    return samples


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        common.check_checkout()
    except common.CheckoutError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    if args.setup_probe:
        with common.work_dir() as work:
            print(timed_setup(args, work)[0])
        return 0

    setups = [] if args.trace else setup_seconds(args)
    with common.work_dir() as work:
        seconds, state = timed_setup(args, work)
        setups.append(seconds)
        outcome = WORKLOADS[args.workload].run(state, args.seconds, bool(args.trace), work)

    ops = outcome.op_seconds
    samples = {"ops": len(ops), "setups": len(setups), "attempted": outcome.attempted}
    if outcome.op_scales:
        samples["speed_vs_reference"] = statistics.median(outcome.op_scales)
    env = common.environment(THREADS.get(args.workload, 1), samples)
    if args.trace:
        if outcome.spans:
            write_spans(outcome.spans, common.WORK / f"trace-{args.workload}.jsonl")
        metrics = {name: (float(outcome.layers.get(name, 0.0)), unit)
                   for name, unit in common.LAYER_UNITS.items()}
    else:
        scaled = outcome.scaled_seconds
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "op_p50_ms": (statistics.median(scaled) * 1e3, "ms"),
            "ops_per_s": (common.block_rate(scaled, outcome.block), "1/s"),
            "peak_rss_mb": (outcome.peak_rss_mb, "MB"),
        }
    common.emit(outcome, metrics, env)
    return 0


if __name__ == "__main__":
    sys.exit(main())
