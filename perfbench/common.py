"""Shared pieces of the benchmark: checkout layout, statistics, environment, output."""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
import uuid
from contextlib import contextmanager
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

# effdof makes no BLAS call, but importing numpy starts OpenBLAS's thread pool,
# and how long that takes depends on the load on the other cores: importing
# effdof.cli in a fresh interpreter took 0.07-0.08 s beside an idle core and
# 0.12-0.17 s beside a busy one, against 0.07-0.08 s either way with one BLAS
# thread. Set before numpy is imported here, and inherited by every child.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

# end-to-end metrics, reported on every workload; BENCHMARK.json holds their bounds
E2E_UNITS = {
    "setup_s": "s",
    "op_p50_ms": "ms",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
}

# per-layer metrics of the traced run; a layer that does not run on a workload
# reads 0 there
LAYER_UNITS = {
    "montecarlo.draw_s": "s",
    "montecarlo.draw_values": "count",
    "montecarlo.draw_ns_per_value": "ns",
    "montecarlo.kernel_s": "s",
    "montecarlo.kernel_rows": "count",
    "montecarlo.kernel_ns_per_value": "ns",
    "montecarlo.kish_s": "s",
    "montecarlo.residual_s": "s",
    "montecarlo.weight_redraws": "count",
    "montecarlo.weight_accept_frac": "fraction",
    "montecarlo.busy_frac": "fraction",
    "montecarlo.blocks": "count",
    "cli.render_s": "s",
    "cli.interp_ms": "ms",
    "cli.import_ms": "ms",
    "cli.numpy_import_ms": "ms",
    "cli.exec_ms": "ms",
    "cli.parse_us_per_row": "us",
    "estimators.build_us_per_component": "us",
    "estimators.df_us_per_component": "us",
    "estimators.kish_us_per_weight": "us",
    "applications.jackknife_us_per_value": "us",
    "applications.mi_us": "us",
    "applications.welch_us": "us",
    "package.import_ms": "ms",
    "trace.overhead_ms": "ms",
}


# On a shared 2-core virtual machine (Intel Xeon, Python 3.11) the CPU switches
# between a fast and a slow state, about 1.7x apart, several times a second,
# and the share of slow time differs from one run to the next. So every time is
# also expressed at a reference speed: wall time times CAL_REF_S over the time
# of a fixed pure-Python calibration kernel, measured just before and after a
# short operation (a library call, a CLI process, a set-up). CAL_REF_S is the
# kernel's time on that machine in its fast state, so scaled times read as wall
# times on a quiet machine. Simulation grids use a kernel of their own; see
# wl_sim.GAMMA_REF_S.
CAL_REF_S = 0.0014


def _calibration_kernel() -> int:
    table: dict[int, float] = {}
    total = 0
    for i in range(9000):
        total += (i * i) % 7
        table[i & 63] = table.get(i & 63, 0.0) + i * 0.5
    return total + len(table)


def calibration_seconds(repeats: int = 3) -> float:
    """Median time of the calibration kernel, measured now."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        _calibration_kernel()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


class CheckoutError(RuntimeError):
    """The benchmark is not running inside a checkout that holds the package source."""


def check_checkout() -> None:
    if not (SRC / "effdof" / "__init__.py").is_file():
        raise CheckoutError(f"no effdof package under {SRC}")


def import_effdof():
    """Import the package from this checkout's ``src``, never from elsewhere."""
    check_checkout()
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import effdof

    if SRC not in Path(effdof.__file__).resolve().parents:
        raise CheckoutError(f"imported effdof from {effdof.__file__}, not from {SRC}")
    return effdof


def child_env() -> dict:
    """Environment for child interpreters: the checkout's ``src`` first on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p
    )
    return env


@contextmanager
def work_dir():
    """A fresh scratch directory inside the checkout, removed afterwards."""
    path = WORK / f"run-{os.getpid()}-{uuid.uuid4().hex[:8]}"
    path.mkdir(parents=True)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


def quantile(values, q: float) -> float:
    """Inclusive-method quantile (q in (0, 1)) of at least two values."""
    cuts = statistics.quantiles(values, n=1000, method="inclusive")
    return cuts[round(q * 1000) - 1]


def block_rate(op_seconds: list[float], block: int) -> float:
    """Operations per second of operation time: the median over consecutive blocks.

    A median over blocks shrugs off the seconds in which a shared machine runs
    slow, where one ratio over the whole run would not.
    """
    chunks = [op_seconds[i:i + block] for i in range(0, len(op_seconds), block)]
    return statistics.median(len(c) / sum(c) for c in chunks)


def tail_ok(n: int, q: float) -> bool:
    """A tail percentile is reported only with at least 10 samples beyond it."""
    return n * (1.0 - q) >= 10


def peak_rss_mb() -> float:
    """Peak RSS of this process so far."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # Linux reports KiB


def run_timed(argv, *, cwd: Path, timeout: float = 60.0):
    """Run a child process; return (seconds, returncode, stdout, stderr, peak_rss_mb).

    Output goes to files in ``cwd`` and the child is reaped with ``wait4``, so
    its own peak RSS is known; a child still running after ``timeout`` seconds
    is killed and reported with a negative return code.
    """
    out_path, err_path = cwd / ".child.out", cwd / ".child.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=child_env(), stdout=out, stderr=err,
                                stdin=subprocess.DEVNULL)
        killer = threading.Timer(timeout, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (seconds, proc.returncode, out_path.read_text(errors="replace"),
            err_path.read_text(errors="replace"), usage.ru_maxrss / 1024.0)


def wall_ms(argv, *, cwd, repeats: int) -> list[float]:
    """Wall times (ms) of ``repeats`` fresh runs of a command that must succeed."""
    times = []
    for _ in range(repeats):
        seconds, rc, _, err, _ = run_timed(argv, cwd=cwd)
        if rc != 0:
            raise RuntimeError(f"probe {argv[1:]} exited {rc}: {err.strip()[-200:]}")
        times.append(seconds * 1e3)
    return times


def interpreter_probes(cwd: Path, modules: tuple[str, ...], repeats: int = 5) -> dict:
    """Median wall ms of a bare interpreter (key ``""``) and of importing each module.

    The runs alternate between the commands so that drift hits all of them alike.
    """
    commands = {"": "pass", **{m: f"import {m}" for m in modules}}
    times: dict[str, list[float]] = {key: [] for key in commands}
    for _ in range(repeats):
        for key, code in commands.items():
            times[key] += wall_ms([sys.executable, "-c", code], cwd=cwd, repeats=1)
    return {key: statistics.median(values) for key, values in times.items()}


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def src_digest() -> str:
    """SHA-256 over the package sources, so an exported checkout is identified too."""
    h = hashlib.sha256()
    for path in sorted((SRC / "effdof").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def environment(threads: int, samples: dict) -> dict:
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "commit": git_commit(),
        "src_sha256": src_digest(),
        "threads": threads,
        "openblas_num_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "samples": samples,
    }


@dataclass
class Outcome:
    """What one workload run measured and checked."""

    op_seconds: list[float] = field(default_factory=list)
    op_scales: list[float] = field(default_factory=list)  # CAL_REF_S / kernel time
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    summary: dict = field(default_factory=dict)  # name -> (value, unit)
    layers: dict = field(default_factory=dict)   # per-layer metric -> value
    spans: list = field(default_factory=list)    # spans of a traced run
    block: int = 1                               # operations per workload block
    untraced: set = field(default_factory=set)   # trace hooks the package no longer has
    peak_rss_mb: float = 0.0

    def add_op(self, seconds: float, calibration: float | None = None) -> None:
        """A timed operation and, for a short one, the kernel time measured around it."""
        self.op_seconds.append(seconds)
        self.op_scales.append(1.0 if calibration is None else CAL_REF_S / calibration)

    @property
    def scaled_seconds(self) -> list[float]:
        """Operation times at the reference speed."""
        return [t * k for t, k in zip(self.op_seconds, self.op_scales)]

    def record(self, problems: list[str]) -> bool:
        """Count one operation; ``problems`` empty means its output was right."""
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.failures) < 5:
                self.failures.append("; ".join(problems[:3]))
        return not problems

    @property
    def fail_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0


def emit(outcome: Outcome, metrics: dict, env: dict) -> None:
    """Print the human summary, the environment stamp and, last, the result line."""
    for name, (value, unit) in outcome.summary.items():
        print(f"# {name} = {value:.6g} {unit}")
    print(f"# fail_frac = {outcome.fail_frac:.6g} ({outcome.failed}/{outcome.attempted})")
    for message in outcome.failures:
        print(f"# failure: {message}")
    if outcome.untraced:
        print(f"# not traced (attribute gone): {', '.join(sorted(outcome.untraced))}")
    print("# env " + json.dumps(env, sort_keys=True))
    result = {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result), flush=True)
