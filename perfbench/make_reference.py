"""Regenerate ``reference.json``: high-replicate cell means for the two presets.

The simulation checks in ``wl_sim.py`` accept a benchmark cell when its means
lie within a fixed number of standard errors of these values, so the
reference needs many more replicates than one benchmark grid (50,000 per
cell). Run from the repository root:

    python3 perfbench/make_reference.py
"""

from __future__ import annotations

import json
import platform
import sys
import time

from common import HERE, git_commit, import_effdof, src_digest

REFERENCE_SEED = 20261017
PRESET_NAMES = ("tables123", "tables45-random")
REPLICATES = 4_000_000
THREADS = 2  # the cells do not depend on it; it only shortens the run


def main() -> int:
    effdof = import_effdof()
    from effdof.cli import PRESETS

    presets = {}
    start = time.perf_counter()
    for name in PRESET_NAMES:
        cfg = effdof.SimConfig(seed=REFERENCE_SEED, replicates=REPLICATES,
                               **PRESETS[name])
        result = effdof.run_grid_detailed(cfg, threads=THREADS)
        presets[name] = [
            {"k": c.k, "nu": c.nu_bar, "mean_satt": c.mean_satt, "sd_satt": c.sd_satt,
             "mean_corr": c.mean_corr, "sd_corr": c.sd_corr, "mean_kish": c.mean_kish}
            for c in result.cells
        ]
    doc = {
        "provenance": {
            "generator": "perfbench/make_reference.py",
            "seed": REFERENCE_SEED,
            "replicates": REPLICATES,
            "block_size": 10_000,
            "library_version": effdof.__version__,
            "commit": git_commit(),
            "src_sha256": src_digest(),
            "python": platform.python_version(),
            "seconds": round(time.perf_counter() - start, 1),
        },
        "presets": presets,
    }
    (HERE / "reference.json").write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
