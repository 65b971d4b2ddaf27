"""Command-line interface: file formats, table rendering, reproducible runs.

Subcommands
-----------
estimate    df estimators and weight summaries for a components CSV
simulate    run a simulation grid: markdown table on stdout, every cell field in --out
jackknife   jackknife df from a file of pseudo-values
welch       two-sample df, classic and corrected side by side
mi          multiple-imputation total variance and df

Exit codes: 0 success, 2 validation error or output failure (stdout closed,
a broken pipe, a full device; ``--help`` is output like any other, and so is
a manifest written to stderr), 3 parse error (also a file that is
not UTF-8, a leading byte-order mark aside, or not well-formed CSV, and a cell
the library's :class:`~effdof.errors.FieldError` rejects, at its line and
column), 4 degenerate input (no component with both a positive weight and a
positive variance, two zero variances for ``welch`` or ``mi``, or identical
pseudo-values) or an arithmetic error (a floating-point overflow, underflow or
cancellation while evaluating an estimator, e.g. from weights near 1e200 or
1e-200, or in a simulation grid, e.g. at nu 1e308 or 0.005). A stderr that
is closed or cannot be written loses the error message, never the exit code,
and nothing goes to stdout in its place.
All simulation randomness flows from ``--seed``; without the flag a seed is
drawn from system entropy and recorded in the run manifest. Simulation tables
go to stdout and are byte-identical across reruns and thread counts for a
fixed config; the manifest (which includes wall-clock time) goes to
``--out``/manifest.json, or stderr when no output directory is given.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import math
import os
import sys
import time
from collections.abc import Sequence

from . import _LAZY, __version__
from .errors import DegenerateComponents, FieldError

# The subcommands look library names up on this module when they run
# (``_this.corrected_df``), so each can be replaced here; the first lookup of one
# comes to __getattr__ below. So effdof.estimators loads only for ``estimate``,
# effdof.applications for ``jackknife``, ``welch`` and ``mi``, and
# effdof.montecarlo (with numpy, dataclasses and concurrent.futures) for ``simulate``.
_this = sys.modules[__name__]
TYPE_CHECKING = False
if TYPE_CHECKING:
    from .estimators import ComponentSet
    from .montecarlo import GridResult, SimCell, SimConfig


def __getattr__(name: str):
    """A library name from the package, which loads its submodule on first use."""
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(sys.modules[__package__], name)
    return value


COMPONENTS_HEADER = ("weight", "variance", "dof")

PRESETS: dict[str, dict] = {
    "tables123": dict(
        k_values=(2, 4, 8, 16, 32, 64),
        nu_values=(1.0, 2.0, 4.0, 8.0, 16.0, 32.0),
        weight_mode="equal",
    ),
    "tables45-random": dict(
        k_values=(16, 32, 64),
        nu_values=(1.0, 5.0, 50.0, 500.0),
        weight_mode="random",
    ),
    "tables45-equal": dict(
        k_values=(16, 32, 64),
        nu_values=(1.0, 5.0, 50.0, 500.0),
        weight_mode="equal",
    ),
}


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

class ParseError(ValueError):
    """An input file could not be parsed; carries 1-based line/column when known."""

    def __init__(self, message: str, *, line: int | None = None,
                 column: int | None = None):
        self.line = line
        self.column = column
        where = ", ".join(f"{name} {n}" for name, n in (("line", line), ("column", column))
                          if n is not None)
        super().__init__(f"{where}: {message}" if where else message)


def _read_text(path: str | os.PathLike[str]) -> str:
    """The file's text, without a leading UTF-8 byte-order mark (spreadsheets
    write one); a missing, unreadable or non-UTF-8 file is a ParseError."""
    try:
        with open(path, "rb") as f:
            data = f.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc.strerror or exc}") from None
    data = data.removeprefix(b"\xef\xbb\xbf")  # not utf-8-sig: its error offsets skip it
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # universal newlines, as the parsers read: \n, \r\n and \r each end a line
        head = data[:exc.start]
        line = head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n") + 1
        raise ParseError(f"cannot decode byte {data[exc.start]:#04x} as UTF-8 ({exc.reason})",
                         line=line) from None


def _parse_field(cell: str, line: int, column: int) -> float:
    try:
        return float(cell.strip())
    except ValueError:
        raise ParseError(
            f"could not parse {cell.strip()!r} as a number", line=line, column=column
        ) from None


def _located(build, columns: Sequence, lines: Sequence[int], names: Sequence[str]):
    """``build(*columns)``; a :class:`FieldError` becomes a :class:`ParseError` at
    the entry's line and its field's column."""
    try:
        return build(*columns)
    except FieldError as exc:
        raise ParseError(exc.reason, line=lines[exc.index],
                         column=names.index(exc.field) + 1) from None


def parse_components_file(path: str | os.PathLike[str]) -> ComponentSet:
    """Read a components CSV (header ``weight,variance,dof``, one row per component).

    Cells are parsed as floats here and checked once, by :class:`ComponentSet`;
    a cell that is not a number or that the library rejects is a
    :class:`ParseError` carrying the cell's line and column.
    """
    reader = csv.reader(io.StringIO(_read_text(path), newline=None))  # universal newlines
    try:
        rows = [(reader.line_num, row) for row in reader]  # the line each row ends on
    except csv.Error as exc:
        raise ParseError(str(exc), line=reader.line_num) from None
    if not rows:
        raise ParseError("file is empty; expected a weight,variance,dof header", line=1)
    header = tuple(c.strip() for c in rows[0][1])
    if header != COMPONENTS_HEADER:
        raise ParseError(
            f"expected header {','.join(COMPONENTS_HEADER)!r}, got {','.join(header)!r}",
            line=1,
        )
    columns, lines = ([], [], []), []
    for i, row in rows[1:]:
        if not row:  # tolerate blank lines
            continue
        if len(row) != 3:
            raise ParseError(f"expected 3 fields, got {len(row)}", line=i, column=len(row))
        for j, cell in enumerate(row):
            columns[j].append(_parse_field(cell, i, j + 1))
        lines.append(i)
    if not lines:
        raise ParseError("no component rows after the header", line=2)
    return _located(_this.ComponentSet, columns, lines, COMPONENTS_HEADER)


def parse_values_file(path: str | os.PathLike[str]) -> tuple[list[float], list[int]]:
    """Read a file with one number per line: the values, parsed but not yet
    checked, and the line each came from."""
    rows = list(io.StringIO(_read_text(path), newline=None))  # universal newlines
    values, lines = [], []
    for i, raw in enumerate(rows, start=1):
        if raw.strip():
            values.append(_parse_field(raw, i, 1))
            lines.append(i)
    if len(values) < 2:
        raise ParseError(f"need at least 2 values, got {len(values)}", line=len(rows) or 1)
    return values, lines


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------

def _fmt(x: float, precision: int) -> str:
    return f"{x:.{precision}f}"


def _render_table(headers: Sequence[str], rows: Sequence[Sequence[str]], fmt: str) -> str:
    if fmt == "csv":  # no cell holds a comma, a quote or a newline
        return "".join(",".join(row) + "\n" for row in (headers, *rows))
    lines = [
        "| " + " | ".join(headers) + " |",
        "|" + "|".join(" --- " for _ in headers) + "|",
    ]
    lines += ["| " + " | ".join(row) + " |" for row in rows]
    return "\n".join(lines) + "\n"


def render_estimate(cs: ComponentSet, fmt: str, precision: int) -> str:
    estimators = [
        {"variant": est.variant, "value": est.value,
         "numerator": est.numerator, "denominator": est.denominator}
        for est in (_this.satterthwaite_df(cs), _this.corrected_df(cs), _this.boardman_df(cs))
    ]
    weights = {
        # cs.weights are checked: skip the public functions' second pass
        "kish_neff": _this.estimators._kish_neff(cs.weights),
        "design_effect": 1.0 + _this.estimators._relvariance(cs.weights),
    }
    if fmt == "json":
        import json

        for e in estimators:  # strict JSON has no Infinity: write a non-finite sum as null
            e.update({k: None for k in ("numerator", "denominator") if not math.isfinite(e[k])})
        return json.dumps({"estimators": estimators, "weights": weights}, indent=2) + "\n"
    headers = ("estimator", "value", "numerator", "denominator")
    rows = [[e["variant"], *(_fmt(e[h], precision) for h in headers[1:])] for e in estimators]
    rows += [[name, _fmt(value, precision), "", ""] for name, value in weights.items()]
    return _render_table(headers, rows, fmt)


# (header, SimCell field, format spec) per column; a spec of None means
# --precision decimals
_CLASSIC_COLUMNS = (
    ("K", "k", "d"), ("df", "nu_bar", "g"),
    ("mean unc", "mean_satt", None), ("SD unc", "sd_satt", None),
    ("mean corr", "mean_corr", None), ("SD corr", "sd_corr", None),
    ("K x nu", "expected", "g"),
)
_RATIO_COLUMNS = (
    ("K", "k", "d"), ("nu", "nu_bar", "g"),
    ("M(Kish)", "mean_kish", None), ("M(Satt)", "mean_satt", None),
    ("M(Corr)", "mean_corr", None), ("K x nu", "expected", "g"),
    ("Kish/K", "ratio_kish_k", None), ("Satt/(K nu)", "ratio_satt", None),
    ("Corr/(K nu)", "ratio_corr", None),
)


def render_cells(cells: Sequence[SimCell], precision: int, ratios: bool) -> str:
    """The cells as the paper's markdown table: the Kish and ratio columns if
    ``ratios``, else the classic mean/SD columns (every field at full precision:
    :func:`cells_csv_full_precision`)."""
    columns = _RATIO_COLUMNS if ratios else _CLASSIC_COLUMNS
    rows = [[format(getattr(c, field), spec or f".{precision}f") for _, field, spec in columns]
            for c in cells]
    return _render_table([header for header, _, _ in columns], rows, "markdown")


def cells_csv_full_precision(cells: Sequence[SimCell]) -> str:
    """Machine CSV of every cell field, shortest-roundtrip float formatting."""
    from dataclasses import fields

    from .montecarlo import SimCell

    names = [f.name for f in fields(SimCell)]
    return _render_table(names, [[repr(getattr(c, n)) for n in names] for c in cells], "csv")


# ---------------------------------------------------------------------------
# manifest
# ---------------------------------------------------------------------------

def build_manifest(cfg: SimConfig, weight_rejections: int, duration: float) -> dict:
    import platform
    from dataclasses import asdict

    import numpy

    from .montecarlo import RNG_DESCRIPTION, _log_dispatch_target

    return {
        # JSON writes the tuples as lists; SimConfig(**manifest["config"]) rebuilds the config
        "config": asdict(cfg),
        "library_version": __version__,
        # the bytes rest on numpy's normal, uniform and gamma samplers (df 1, df 2-8
        # and other df; random mode adds the weights) and df 2-8 on its log's CPU path
        "numpy_version": numpy.__version__,
        "numpy_log_target": _log_dispatch_target(),
        "python_version": platform.python_version(),
        "rng": RNG_DESCRIPTION,
        "weight_rejections": weight_rejections,
        "duration_seconds": duration,
    }


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def run_grid_detailed(cfg: SimConfig, *, threads: int = 1) -> GridResult:
    """:func:`effdof.montecarlo.run_grid_detailed`, imported on the first call.

    ``simulate`` calls the grid through this module global, looked up at call
    time, so it can be wrapped or replaced here.
    """
    from .montecarlo import run_grid_detailed

    return run_grid_detailed(cfg, threads=threads)


def _cmd_estimate(args) -> str:
    return render_estimate(parse_components_file(args.input), args.format, args.precision)


def _simulate_config(args) -> SimConfig:
    base = dict(PRESETS[args.preset]) if args.preset else {}
    if args.k is not None:
        base["k_values"] = tuple(args.k)
    if args.nu is not None:
        base["nu_values"] = tuple(args.nu)
    if args.weights is not None:
        base["weight_mode"] = args.weights
    if "k_values" not in base or "nu_values" not in base:
        raise ValueError("simulate needs --preset or both --k and --nu")
    if args.seed is not None:
        seed = args.seed
    else:
        import secrets  # here, not at module level: it loads hmac/hashlib

        seed = secrets.randbits(64)
    from .montecarlo import SimConfig

    return SimConfig(seed=seed, replicates=args.replicates, block_size=args.block_size,
                     **base)


def _cmd_simulate(args) -> str:
    import json

    cfg = _simulate_config(args)
    out = args.out
    if not out:  # a closed stderr, where the manifest goes, fails before the grid
        _write("stderr", "")
    else:  # read-only: nothing is made until the grid is done, so nothing is undone
        level = out
        while not os.path.lexists(level):  # its nearest existing level, a link too
            level = os.path.dirname(level.rstrip(os.sep)) or os.curdir
        if not (os.path.isdir(level) and os.access(level, os.W_OK | os.X_OK)):
            raise ValueError(f"{level} exists and is not a writable directory")
    start = time.perf_counter()
    result = run_grid_detailed(cfg, threads=args.threads)
    duration = time.perf_counter() - start

    ratios = (args.preset or "").startswith("tables45") or cfg.weight_mode == "random"
    table = render_cells(result.cells, args.precision, ratios)
    manifest = build_manifest(cfg, result.weight_rejections, duration)
    manifest["cell_weight_rejections"] = list(result.cell_weight_rejections)  # grid order
    manifest["threads"] = args.threads  # scheduling only: the cells do not depend on it
    manifest_text = json.dumps(manifest, indent=2) + "\n"
    if out:
        os.makedirs(out, exist_ok=True)
        for name, text in (("cells.csv", cells_csv_full_precision(result.cells)),
                           ("manifest.json", manifest_text)):
            with open(os.path.join(out, name), "w", encoding="utf-8") as f:
                f.write(text)
    else:
        _write("stderr", manifest_text)  # output like the table: a failure exits 2
    return table


def _cmd_jackknife(args) -> str:
    values, lines = parse_values_file(args.input)
    df = _located(_this.jackknife_df, (values,), lines, ("pseudo-value",))
    return _fmt(df, args.precision) + "\n"


def _cmd_welch(args) -> str:
    ts = _this.TwoSampleSummary(args.n1, args.n2, args.s1sq, args.s2sq)
    return (f"satterthwaite_df,{_fmt(_this.welch_satterthwaite_df(ts), args.precision)}\n"
            f"corrected_df,{_fmt(_this.welch_corrected_df(ts), args.precision)}\n")


def _cmd_mi(args) -> str:
    mi = _this.MiVariance(args.var_sampling, args.nu_sampling, args.var_imputation, args.m)
    return (f"total_variance,{_fmt(_this.mi_total_variance(mi), args.precision)}\n"
            f"total_df,{_fmt(_this.mi_total_df(mi), args.precision)}\n")


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _precision(value: str) -> int:
    try:
        p = int(value)
    except ValueError:
        p = -1
    if not 0 <= p <= 12:
        raise argparse.ArgumentTypeError("precision must be an integer between 0 and 12")
    return p


def _add_precision(parser) -> None:
    parser.add_argument("--precision", type=_precision, default=3,
                        help="decimal places in rendered numbers (0-12, default 3)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="effdof",
        description="Effective degrees of freedom estimators and simulation harness.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    est = sub.add_parser("estimate", help="df estimators for a components CSV")
    est.add_argument("--input", required=True,
                     help="CSV with header weight,variance,dof")
    est.add_argument("--format", choices=("csv", "json", "markdown"), default="csv")
    _add_precision(est)
    est.set_defaults(func=_cmd_estimate)

    sim = sub.add_parser("simulate", help="run a simulation grid")
    sim.add_argument("--preset", choices=sorted(PRESETS))
    sim.add_argument("--k", type=int, nargs="+", help="component counts K")
    sim.add_argument("--nu", type=float, nargs="+", help="common component df")
    sim.add_argument("--weights", choices=("equal", "random"),
                     help="equal weights or Normal(1, 0.3) weights redrawn per replicate")
    sim.add_argument("--replicates", type=int, default=100_000,
                     help="replicates per cell (default 100000)")
    sim.add_argument("--seed", type=int,
                     help="64-bit seed; drawn from system entropy if omitted")
    sim.add_argument("--block-size", type=int, default=10_000,
                     help="replicates per substream block (default 10000)")
    sim.add_argument("--threads", type=int, default=1,
                     help="worker threads (1-256); results do not depend on this")
    sim.add_argument("--out", help="directory for cells.csv and manifest.json")
    _add_precision(sim)
    sim.set_defaults(func=_cmd_simulate)

    jk = sub.add_parser("jackknife", help="jackknife df from pseudo-values")
    jk.add_argument("--input", required=True, help="file with one value per line")
    _add_precision(jk)
    jk.set_defaults(func=_cmd_jackknife)

    welch = sub.add_parser("welch", help="two-sample df, classic and corrected")
    welch.add_argument("--n1", type=int, required=True)
    welch.add_argument("--n2", type=int, required=True)
    welch.add_argument("--s1sq", type=float, required=True)
    welch.add_argument("--s2sq", type=float, required=True)
    _add_precision(welch)
    welch.set_defaults(func=_cmd_welch)

    mi = sub.add_parser(
        "mi",
        help="multiple-imputation total variance and df",
        description="Total variance inflates the between-imputation variance "
                    "by (M+1)/M, which is the same number as 1 + 1/M; the "
                    "imputation variance carries M-1 degrees of freedom.",
    )
    mi.add_argument("--var-sampling", type=float, required=True)
    mi.add_argument("--nu-sampling", type=float, required=True)
    mi.add_argument("--var-imputation", type=float, required=True)
    mi.add_argument("--m", type=int, required=True, help="number of imputations M")
    _add_precision(mi)
    mi.set_defaults(func=_cmd_mi)

    return parser


def _write(name: str, text: str) -> None:
    """Write ``text`` to ``sys.stdout`` or ``sys.stderr``, by ``name``, and flush it.

    Any failure raises ``OSError``. Python starts with no such stream when its fd
    is closed. A broken pipe or a full device keeps the text in the stream's
    buffer, so the fd is then pointed at devnull: the interpreter's flush at exit
    does not fail again (the Python docs' "Note on SIGPIPE").
    """
    stream = getattr(sys, name)
    if stream is None:
        raise OSError(f"{name} is closed")
    try:
        stream.write(text)
        stream.flush()
    except OSError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), stream.fileno())
        raise


def _warn(text: str) -> None:
    """Write ``text`` to stderr. A stderr that cannot take it loses the text,
    never the exit code, and nothing goes to stdout instead."""
    with contextlib.suppress(OSError):
        _write("stderr", text)


def main(argv: Sequence[str] | None = None) -> int:
    """Run one subcommand. Its stdout text, ``--help`` included, is written only
    once it is complete, so a failed run leaves stdout empty, and after any files
    it writes."""
    help_text, usage_error = io.StringIO(), io.StringIO()
    try:
        # argparse prints --help and usage errors itself: capture them, so that
        # they reach stdout and stderr through the same writers as the rest
        with contextlib.redirect_stdout(help_text), contextlib.redirect_stderr(usage_error):
            args = build_parser().parse_args(argv)
        text = args.func(args)
    except SystemExit as exc:
        if exc.code:  # a usage error keeps argparse's exit code and message
            _warn(usage_error.getvalue())
            raise
        text = help_text.getvalue()
    except ParseError as exc:
        _warn(f"effdof: parse error: {exc}\n")
        return 3
    except DegenerateComponents as exc:
        _warn(f"effdof: degenerate input: {exc}\n")
        return 4
    except ArithmeticError as exc:
        _warn(f"effdof: arithmetic error: {exc}\n")
        return 4
    except (ValueError, OSError) as exc:
        _warn(f"effdof: {exc}\n")
        return 2
    try:
        _write("stdout", text)
    except OSError as exc:
        _warn(f"effdof: cannot write output: {exc.strerror or exc}\n")
        return 2
    return 0
