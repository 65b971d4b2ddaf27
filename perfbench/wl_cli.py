"""cli-oneshot: a closed loop with one caller; each operation is a fresh ``python -m effdof``.

Cases come in blocks of 10: 2 ``welch``, 2 ``mi``, 2 ``jackknife`` (about 20
pseudo-values), 3 ``estimate`` (a CSV of K <= 50 components) and one
documented error case, rotating through a malformed CSV (exit 3), an invalid
sample size (exit 2) and all-zero variances (exit 4). Block b is a pure
function of (seed, b). Output is checked line by line against the exact
oracle, allowing only the rounding of the printed digits; a traceback
(exit 1) is a failure.
"""

from __future__ import annotations

import random
import re
import statistics
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import oracle
from common import (Outcome, calibration_seconds, import_effdof, interpreter_probes, quantile,
                    run_timed, tail_ok)
from wl_lib import _log_uniform, _magnitude

BLOCK = ("welch", "welch", "mi", "mi", "jackknife", "jackknife",
         "estimate", "estimate", "estimate", "error")
ERRORS = ("malformed-csv", "invalid-n", "zero-variances")
PRECISION = 6
NUMBER_REL = 1e-10
IMPORTTIME_LINE = re.compile(r"import time:\s*\d+\s*\|\s*(\d+)\s*\|\s*numpy\s*$")


@dataclass
class Case:
    kind: str
    argv: list[str]
    code: int                # expected exit code
    rows: list[list] | None  # expected stdout rows: str cells exact, Fraction cells numeric


def _components_csv(path: Path, weights, variances, dofs, bad_row: int | None = None) -> None:
    lines = ["weight,variance,dof"]
    for i, (w, v, d) in enumerate(zip(weights, variances, dofs)):
        lines.append(f"{w!r},{'abc' if i == bad_row else repr(v)},{d!r}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def make_block(seed: int, b: int, work: Path) -> list[Case]:
    """The cases of block b, writing their input files into ``work``."""
    rng = random.Random(f"cli-oneshot:{seed}:{b}")
    kinds = list(BLOCK)
    rng.shuffle(kinds)
    cases = []
    precision = ["--precision", str(PRECISION)]
    for i, kind in enumerate(kinds):
        path = work / f"in-{b}-{i}.txt"
        if kind == "welch":
            n1, n2 = rng.randint(2, 1000), rng.randint(2, 1000)
            s1, s2 = _magnitude(rng), _magnitude(rng)
            satt, corr = oracle.welch(n1, n2, s1, s2)
            cases.append(Case(kind, ["welch", "--n1", str(n1), "--n2", str(n2), "--s1sq",
                                     repr(s1), "--s2sq", repr(s2), *precision], 0,
                              [["satterthwaite_df", satt], ["corrected_df", corr]]))
        elif kind == "mi":
            vs, vi, m = _magnitude(rng), _magnitude(rng), rng.randint(2, 100)
            nus = float(round(_log_uniform(rng, 1, 500)))
            total, df = oracle.mi(vs, nus, vi, m)
            cases.append(Case(kind, ["mi", "--var-sampling", repr(vs), "--nu-sampling",
                                     repr(nus), "--var-imputation", repr(vi), "--m", str(m),
                                     *precision], 0,
                              [["total_variance", total], ["total_df", df]]))
        elif kind == "jackknife":
            spread, level = _magnitude(rng), rng.uniform(-10.0, 10.0)
            values = [spread * (level + rng.gauss(0.0, 1.0)) for _ in range(rng.randint(16, 24))]
            path.write_text("".join(f"{v!r}\n" for v in values), encoding="utf-8")
            cases.append(Case(kind, ["jackknife", "--input", path.name, *precision], 0,
                              [[oracle.jackknife(values)]]))
        elif kind == "estimate":
            k = round(_log_uniform(rng, 2, 50))
            weights = [_magnitude(rng) for _ in range(k)]
            variances = [_magnitude(rng) for _ in range(k)]
            dofs = [float(round(_log_uniform(rng, 1, 500))) for _ in range(k)]
            _components_csv(path, weights, variances, dofs)
            exact = oracle.df_estimates(weights, variances, dofs)
            kish, deff = oracle.kish_and_deff(weights)
            rows = [["estimator", "value", "numerator", "denominator"]]
            rows += [[name, *exact[name]] for name in ("satterthwaite", "corrected", "boardman")]
            rows += [["kish_neff", kish, "", ""], ["design_effect", deff, "", ""]]
            cases.append(Case(kind, ["estimate", "--input", path.name, *precision], 0, rows))
        else:
            error = ERRORS[b % len(ERRORS)]
            if error == "invalid-n":
                cases.append(Case(error, ["welch", "--n1", "1", "--n2", "5", "--s1sq", "1",
                                          "--s2sq", "1"], 2, None))
                continue
            k = rng.randint(2, 10)
            weights = [_magnitude(rng) for _ in range(k)]
            dofs = [float(rng.randint(1, 50)) for _ in range(k)]
            if error == "malformed-csv":
                _components_csv(path, weights, [_magnitude(rng) for _ in range(k)], dofs,
                                bad_row=rng.randrange(k))
                cases.append(Case(error, ["estimate", "--input", path.name], 3, None))
            else:
                _components_csv(path, weights, [0.0] * k, dofs)
                cases.append(Case(error, ["estimate", "--input", path.name], 4, None))
    return cases


def _number_ok(text: str, exact: Fraction) -> bool:
    """A printed number equals the exact value up to its printed rounding."""
    try:
        printed = Fraction(text)
    except ValueError:
        return False
    slack = Fraction(1, 2 * 10 ** PRECISION) + Fraction(NUMBER_REL) * abs(exact)
    return abs(printed - exact) <= slack


def check(case: Case, code: int, stdout: str, stderr: str) -> list[str]:
    """Problems with one CLI call; empty when the output is exactly what was expected."""
    label = f"{case.kind} {' '.join(case.argv[:1])}"
    if code == 1 or "Traceback" in stderr:
        return [f"{label}: traceback (exit {code}): {stderr.strip()[-160:]!r}"]
    if code != case.code:
        return [f"{label}: exit {code}, expected {case.code}"]
    if case.rows is None:
        if stdout or not stderr.startswith("effdof:"):
            return [f"{label}: error case printed {stdout!r} / {stderr[:80]!r}"]
        return []
    lines = stdout.splitlines()
    if len(lines) != len(case.rows):
        return [f"{label}: {len(lines)} lines, expected {len(case.rows)}"]
    for line, row in zip(lines, case.rows):
        cells = line.split(",")
        if len(cells) != len(row) or not all(
                cell == want if isinstance(want, str) else _number_ok(cell, want)
                for cell, want in zip(cells, row)):
            return [f"{label}: line {line!r} does not match the oracle"]
    return []


@dataclass
class State:
    seed: int
    first_block: list[Case]
    argv0: list[str]  # how to start the CLI; the tests substitute a wrapper


def setup(workload: str, seed: int, scale: str, work: Path) -> State:
    """Generate the first block and start one untimed CLI process (compiles bytecode)."""
    argv0 = [sys.executable, "-m", "effdof"]
    first = make_block(seed, 0, work)
    _, code, _, err, _ = run_timed(argv0 + ["--help"], cwd=work)
    if code != 0:
        raise RuntimeError(f"effdof --help exited {code}: {err.strip()[-200:]}")
    return State(seed, first, argv0)


def _numpy_import_ms(work: Path, repeats: int = 3) -> float:
    """Cumulative ``import numpy`` time inside ``import effdof.cli`` (0 when not imported)."""
    samples = []
    for _ in range(repeats):
        _, code, _, err, _ = run_timed([sys.executable, "-X", "importtime", "-c",
                                        "import effdof.cli"], cwd=work)
        if code != 0:
            raise RuntimeError(f"importtime probe exited {code}")
        found = [int(m.group(1)) for m in map(IMPORTTIME_LINE.match, err.splitlines()) if m]
        samples.append(found[0] / 1e3 if found else 0.0)
    return statistics.median(samples)


def _parse_us_per_row(cases: list[Case], work: Path, repeats: int = 20) -> float:
    """In-process time of ``parse_components_file`` per CSV row."""
    import_effdof()
    import effdof.cli as cli

    paths = [work / c.argv[2] for c in cases if c.kind == "estimate"]
    rows = sum(len(p.read_text(encoding="utf-8").splitlines()) - 1 for p in paths)
    start = time.perf_counter()
    for _ in range(repeats):
        for p in paths:
            cli.parse_components_file(p)
    return (time.perf_counter() - start) * 1e6 / (repeats * rows) if rows else 0.0


def run(state: State, seconds: float, trace: bool, work: Path) -> Outcome:
    """Run whole blocks of cases until ``seconds`` have passed."""
    outcome = Outcome(block=len(BLOCK))
    start = time.perf_counter()
    if trace:
        probes = interpreter_probes(work, ("effdof", "effdof.cli"))
        numpy_ms = _numpy_import_ms(work)
    b, rss = 0, []
    cases_seen: list[Case] = []
    while b < 1 or time.perf_counter() - start < seconds:
        block = state.first_block if b == 0 else make_block(state.seed, b, work)
        cases_seen += block
        for case in block:
            before = calibration_seconds()
            elapsed, code, out, err, peak = run_timed(state.argv0 + case.argv, cwd=work)
            outcome.add_op(elapsed, (before + calibration_seconds()) / 2)
            rss.append(peak)
            outcome.record(check(case, code, out, err))
        b += 1
    outcome.peak_rss_mb = max(rss)
    ms = sorted(t * 1e3 for t in outcome.op_seconds)
    outcome.summary["cli_p50_ms"] = (statistics.median(ms), "ms")
    if tail_ok(len(ms), 0.9):
        outcome.summary["cli_p90_ms"] = (quantile(ms, 0.9), "ms")
    if trace:
        interp, import_cli = probes[""], probes["effdof.cli"] - probes[""]
        outcome.layers.update({
            "cli.interp_ms": interp,
            "cli.import_ms": import_cli,
            "cli.numpy_import_ms": numpy_ms,
            "cli.exec_ms": statistics.median(ms) - interp - import_cli,
            "cli.parse_us_per_row": _parse_us_per_row(cases_seen, work),
            "package.import_ms": probes["effdof"] - probes[""],
            # the CLI processes themselves run uninstrumented
            "trace.overhead_ms": 0.0,
        })
    return outcome
