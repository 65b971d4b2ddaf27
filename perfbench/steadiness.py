"""Check the benchmark's run-to-run spread against the bounds in BENCHMARK.json.

Runs each workload ``--runs`` times with seeds ``--first-seed``,
``--first-seed + 1``, ... and prints, per end-to-end metric, the median and
the interquartile range as a share of the median (``statistics.quantiles``
with ``n=4``). A spread at or above a third of the metric's bound is marked,
since the bound must hold on other runs too. Run from the repository root:

    python3 perfbench/steadiness.py --runs 10 [--workloads sim-ideal lib-estimate]
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1000)
    parser.add_argument("--workloads", nargs="+",
                        default=[w["name"] for w in spec["workloads"]])
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    steady = True
    for workload in args.workloads:
        values: dict[str, list[float]] = {name: [] for name in bounds}
        for i in range(args.runs):
            argv = [*spec["command"], "--workload", workload, "--seed",
                    str(args.first_seed + i), "--seconds", str(spec["run_seconds"]),
                    "--trace", "0"]
            out = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, check=True)
            result = json.loads(out.stdout.splitlines()[-1])
            if not result["correct"]:
                print(f"{workload} seed {args.first_seed + i}: incorrect output", flush=True)
                steady = False
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
        for name, bound in bounds.items():
            q1, median, q3 = statistics.quantiles(values[name], n=4)
            spread = (q3 - q1) / median
            mark = "" if spread < bound / 3 else "  <-- not below bound/3"
            steady &= not mark
            print(f"{workload:13s} {name:12s} median {median:12.6g}  spread {spread:6.3f}"
                  f"  bound {bound}{mark}  values {[float(f'{v:.5g}') for v in values[name]]}",
                  flush=True)
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
