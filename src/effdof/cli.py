"""Command-line interface: file formats, table rendering, reproducible runs.

Subcommands
-----------
estimate    df estimators and weight summaries for a components CSV
simulate    run a simulation grid (presets or custom flags), emit tables + manifest
jackknife   jackknife df from a file of pseudo-values
welch       two-sample df, classic and corrected side by side
mi          multiple-imputation total variance and df

Exit codes: 0 success, 2 validation error, 3 parse error, 4 degenerate input
or an arithmetic error (a floating-point overflow or division by zero while
evaluating an estimator, for example from weights near 1e200).
All simulation randomness flows from ``--seed``; without the flag a seed is
drawn from system entropy and recorded in the run manifest. Simulation tables
go to stdout and are byte-identical across reruns and thread counts for a
fixed config; the manifest (which includes wall-clock time) goes to
``--out``/manifest.json, or stderr when no output directory is given.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
import time
from dataclasses import asdict
from pathlib import Path
from typing import Mapping, Sequence

from . import __version__
from .applications import (
    MiVariance,
    TwoSampleSummary,
    jackknife_df,
    mi_total_df,
    mi_total_variance,
    welch_corrected_df,
    welch_satterthwaite_df,
)
from .errors import DegenerateComponents, ParseError
from .estimators import (
    ComponentSet,
    _check_field,
    boardman_df,
    corrected_df,
    design_effect,
    kish_neff,
    satterthwaite_df,
)
from .montecarlo import (
    RNG_DESCRIPTION,
    SimConfig,
    SimCell,
    WeightMode,
    run_grid_detailed,
)

COMPONENTS_HEADER = ("weight", "variance", "dof")

PRESETS: dict[str, dict] = {
    "tables123": dict(
        k_values=(2, 4, 8, 16, 32, 64),
        nu_values=(1.0, 2.0, 4.0, 8.0, 16.0, 32.0),
        weight_mode=WeightMode.EQUAL,
    ),
    "tables45-random": dict(
        k_values=(16, 32, 64),
        nu_values=(1.0, 5.0, 50.0, 500.0),
        weight_mode=WeightMode.RANDOM_NORMAL,
    ),
    "tables45-equal": dict(
        k_values=(16, 32, 64),
        nu_values=(1.0, 5.0, 50.0, 500.0),
        weight_mode=WeightMode.EQUAL,
    ),
}


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

def _parse_field(cell: str, line: int, column: int) -> float:
    try:
        value = float(cell.strip())
    except ValueError:
        raise ParseError(
            f"could not parse {cell.strip()!r} as a number", line=line, column=column
        ) from None
    if not math.isfinite(value):
        raise ParseError(f"value {cell.strip()!r} is not finite", line=line, column=column)
    return value


def parse_components_file(path: str | Path) -> ComponentSet:
    """Read a components CSV (header ``weight,variance,dof``, one row per component).

    Each cell goes through the library's check for its field; a rejected
    value is a :class:`ParseError` carrying the cell's line and column.
    """
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc.strerror or exc}") from None
    rows = list(csv.reader(io.StringIO(text)))
    if not rows:
        raise ParseError("file is empty; expected a weight,variance,dof header", line=1)
    header = tuple(c.strip() for c in rows[0])
    if header != COMPONENTS_HEADER:
        raise ParseError(
            f"expected header {','.join(COMPONENTS_HEADER)!r}, got {','.join(header)!r}",
            line=1,
        )
    columns = ([], [], [])
    for i, row in enumerate(rows[1:], start=2):
        if not row:  # tolerate blank lines
            continue
        if len(row) != 3:
            raise ParseError(
                f"expected 3 fields, got {len(row)}", line=i, column=len(row) or 1
            )
        for j, (field, cell) in enumerate(zip(COMPONENTS_HEADER, row)):
            value = _parse_field(cell, i, j + 1)
            try:
                columns[j].append(_check_field(field, value))
            except ValueError as exc:
                raise ParseError(str(exc), line=i, column=j + 1) from None
    if not columns[0]:
        raise ParseError("no component rows after the header", line=2)
    return ComponentSet(*columns)


def parse_values_file(path: str | Path) -> list[float]:
    """Read a plain file with one number per line (pseudo-values)."""
    try:
        lines = Path(path).read_text(encoding="utf-8").splitlines()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc.strerror or exc}") from None
    values = []
    for i, raw in enumerate(lines, start=1):
        if not raw.strip():
            continue
        values.append(_parse_field(raw, i, 1))
    if len(values) < 2:
        raise ParseError(f"need at least 2 values, got {len(values)}", line=len(lines) or 1)
    return values


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------

def _fmt(x: float, precision: int) -> str:
    return f"{x:.{precision}f}"


def _render_table(headers: Sequence[str], rows: Sequence[Sequence[str]], fmt: str) -> str:
    if fmt == "csv":
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(headers)
        writer.writerows(rows)
        return out.getvalue()
    if fmt == "markdown":
        lines = [
            "| " + " | ".join(headers) + " |",
            "|" + "|".join(" --- " for _ in headers) + "|",
        ]
        lines += ["| " + " | ".join(row) + " |" for row in rows]
        return "\n".join(lines) + "\n"
    raise ValueError(f"unknown format {fmt!r}")


def _estimate_payload(cs: ComponentSet) -> dict:
    return {
        "estimators": [
            {
                "variant": est.variant.value,
                "value": est.value,
                "numerator": est.numerator,
                "denominator": est.denominator,
            }
            for est in (satterthwaite_df(cs), corrected_df(cs), boardman_df(cs))
        ],
        "weights": {
            "kish_neff": kish_neff(cs.weights),
            "design_effect": design_effect(cs.weights),
        },
    }


def render_estimate(payload: dict, fmt: str, precision: int) -> str:
    if fmt == "json":
        return json.dumps(payload, indent=2) + "\n"
    rows = [
        [
            e["variant"],
            _fmt(e["value"], precision),
            _fmt(e["numerator"], precision),
            _fmt(e["denominator"], precision),
        ]
        for e in payload["estimators"]
    ]
    for name in ("kish_neff", "design_effect"):
        rows.append([name, _fmt(payload["weights"][name], precision), "", ""])
    return _render_table(("estimator", "value", "numerator", "denominator"), rows, fmt)


_CLASSIC_HEADERS = {
    "csv": ("k", "df", "mean_satt", "sd_satt", "mean_corr", "sd_corr", "expected"),
    "markdown": ("K", "df", "mean unc", "SD unc", "mean corr", "SD corr", "K x nu"),
}
_RATIO_HEADERS = {
    "csv": ("k", "nu", "mean_kish", "mean_satt", "mean_corr", "expected",
            "kish_over_k", "satt_over_expected", "corr_over_expected"),
    "markdown": ("K", "nu", "M(Kish)", "M(Satt)", "M(Corr)", "K x nu",
                 "Kish/K", "Satt/(K nu)", "Corr/(K nu)"),
}


def render_cells(cells: Sequence[SimCell], fmt: str, precision: int, layout: str) -> str:
    if fmt == "json":
        return json.dumps({"cells": [asdict(c) for c in cells]}, indent=2) + "\n"
    p = precision
    if layout == "classic":
        headers = _CLASSIC_HEADERS[fmt]
        rows = [
            [str(c.k), f"{c.nu_bar:g}", _fmt(c.mean_satt, p), _fmt(c.sd_satt, p),
             _fmt(c.mean_corr, p), _fmt(c.sd_corr, p), f"{c.expected:g}"]
            for c in cells
        ]
    else:
        headers = _RATIO_HEADERS[fmt]
        rows = [
            [str(c.k), f"{c.nu_bar:g}", _fmt(c.mean_kish, p), _fmt(c.mean_satt, p),
             _fmt(c.mean_corr, p), f"{c.expected:g}", _fmt(c.ratio_kish_k, p),
             _fmt(c.ratio_satt, p), _fmt(c.ratio_corr, p)]
            for c in cells
        ]
    return _render_table(headers, rows, fmt)


def cells_csv_full_precision(cells: Sequence[SimCell]) -> str:
    """Machine CSV of every cell field, shortest-roundtrip float formatting."""
    fields = ("k", "nu_bar", "mean_satt", "sd_satt", "mean_corr", "sd_corr",
              "mean_kish", "expected", "ratio_kish_k", "ratio_satt", "ratio_corr")
    lines = [",".join(fields)]
    for c in cells:
        lines.append(",".join(repr(getattr(c, f)) for f in fields))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# manifest
# ---------------------------------------------------------------------------

def config_to_mapping(cfg: SimConfig) -> dict:
    d = asdict(cfg)
    d["k_values"] = list(cfg.k_values)
    d["nu_values"] = list(cfg.nu_values)
    d["weight_mode"] = cfg.weight_mode.value
    return d


def config_from_mapping(mapping: Mapping) -> SimConfig:
    """Rebuild a SimConfig from a manifest's ``config`` entry; other keys are ignored."""
    return SimConfig(
        k_values=tuple(mapping["k_values"]),
        nu_values=tuple(mapping["nu_values"]),
        seed=mapping["seed"],
        weight_mode=WeightMode(mapping["weight_mode"]),
        weight_sd=mapping["weight_sd"],
        fix_weights=mapping["fix_weights"],
        replicates=mapping["replicates"],
        block_size=mapping["block_size"],
    )


def build_manifest(cfg: SimConfig, weight_rejections: int, duration: float) -> dict:
    return {
        "config": config_to_mapping(cfg),
        "library_version": __version__,
        "rng": RNG_DESCRIPTION,
        "weight_rejections": weight_rejections,
        "duration_seconds": duration,
    }


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_estimate(args) -> int:
    payload = _estimate_payload(parse_components_file(args.input))
    sys.stdout.write(render_estimate(payload, args.format, args.precision))
    return 0


def _simulate_config(args) -> SimConfig:
    base = dict(PRESETS[args.preset]) if args.preset else {}
    if args.k is not None:
        base["k_values"] = tuple(args.k)
    if args.nu is not None:
        base["nu_values"] = tuple(args.nu)
    if args.weights is not None:
        base["weight_mode"] = WeightMode(args.weights)
    if "k_values" not in base or "nu_values" not in base:
        raise ValueError("simulate needs --preset or both --k and --nu")
    if args.seed is not None:
        seed = args.seed
    else:
        import secrets  # here, not at module level: it loads hmac/hashlib

        seed = secrets.randbits(64)
    return SimConfig(
        seed=seed,
        weight_sd=args.sd,
        fix_weights=args.fix_weights,
        replicates=args.replicates,
        block_size=args.block_size,
        **base,
    )


def _cmd_simulate(args) -> int:
    cfg = _simulate_config(args)
    start = time.perf_counter()
    result = run_grid_detailed(cfg, threads=args.threads)
    duration = time.perf_counter() - start

    layout = args.layout
    if layout == "auto":
        ratios = (args.preset or "").startswith("tables45") or (
            cfg.weight_mode is WeightMode.RANDOM_NORMAL
        )
        layout = "ratios" if ratios else "classic"
    sys.stdout.write(render_cells(result.cells, args.format, args.precision, layout))

    manifest = build_manifest(cfg, result.weight_rejections, duration)
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / "cells.csv").write_text(cells_csv_full_precision(result.cells),
                                       encoding="utf-8")
        (out / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n",
                                           encoding="utf-8")
    else:
        sys.stderr.write(json.dumps(manifest, indent=2) + "\n")
    return 0


def _cmd_jackknife(args) -> int:
    values = parse_values_file(args.input)
    print(_fmt(jackknife_df(values), args.precision))
    return 0


def _cmd_welch(args) -> int:
    ts = TwoSampleSummary(args.n1, args.n2, args.s1sq, args.s2sq)
    p = args.precision
    print(f"satterthwaite_df,{_fmt(welch_satterthwaite_df(ts), p)}")
    print(f"corrected_df,{_fmt(welch_corrected_df(ts), p)}")
    return 0


def _cmd_mi(args) -> int:
    mi = MiVariance(args.var_sampling, args.nu_sampling, args.var_imputation, args.m)
    p = args.precision
    print(f"total_variance,{_fmt(mi_total_variance(mi), p)}")
    print(f"total_df,{_fmt(mi_total_df(mi), p)}")
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _precision(value: str) -> int:
    p = int(value)
    if not 0 <= p <= 12:
        raise argparse.ArgumentTypeError("precision must be between 0 and 12")
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
    sim.add_argument("--weights", choices=[m.value for m in WeightMode],
                     help="equal weights or Normal(1, sd) random weights")
    sim.add_argument("--sd", type=float, default=0.3,
                     help="sd of random weights (default 0.3)")
    sim.add_argument("--fix-weights", action="store_true",
                     help="draw one random weight vector per cell instead of per replicate")
    sim.add_argument("--replicates", type=int, default=100_000,
                     help="replicates per cell (default 100000)")
    sim.add_argument("--seed", type=int,
                     help="64-bit seed; drawn from system entropy if omitted")
    sim.add_argument("--block-size", type=int, default=10_000,
                     help="replicates per substream block (default 10000)")
    sim.add_argument("--threads", type=int, default=1,
                     help="worker threads; results do not depend on this")
    sim.add_argument("--out", help="directory for cells.csv and manifest.json")
    sim.add_argument("--format", choices=("csv", "json", "markdown"),
                     default="markdown")
    sim.add_argument("--layout", choices=("auto", "classic", "ratios"),
                     default="auto",
                     help="classic mean/SD columns or Kish/ratio columns")
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


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"effdof: parse error: {exc}", file=sys.stderr)
        return 3
    except DegenerateComponents as exc:
        print(f"effdof: degenerate input: {exc}", file=sys.stderr)
        return 4
    except ArithmeticError as exc:
        # float ** raises OverflowError((errno, text)): report the text only
        detail = exc.args[-1] if exc.args else type(exc).__name__
        print(f"effdof: arithmetic error: {detail}", file=sys.stderr)
        return 4
    except (ValueError, OSError) as exc:
        print(f"effdof: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
