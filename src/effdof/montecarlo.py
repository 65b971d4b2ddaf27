"""Chi-square Monte Carlo harness for the df estimators.

Simulates the ideal case (equal true variances, equal component df) and the
random-weight case, aggregating each grid cell of (K, nu_bar) into means, SDs
and ratio columns so runs can be compared against the documented reference
results. Every true component variance is 1 and equal weights are 1: the df
estimators are scale invariant, so other constants would not change them.

Reproducibility contract: every parallel unit draws from an independent
substream derived from ``(seed, cell index, block index)`` via
``numpy.random.SeedSequence`` spawn keys, so output depends only on the
configuration, never on scheduling or thread count. The bit generator is
Philox (counter-based, 4x64); chi-square variates come from numpy's
``standard_gamma`` (Marsaglia-Tsang squeeze method for shape >= 1,
Ahrens-Dieter GS for shape < 1, which covers component df below 2).

numpy is imported inside the functions that draw or reduce arrays, so
importing this module (and with it ``effdof`` and ``effdof.cli``) does not
load numpy; the closed-form estimators never need it.
"""

from __future__ import annotations

import enum
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .errors import DegenerateComponents, check_int, check_real

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "WeightMode",
    "SimConfig",
    "SimCell",
    "GridResult",
    "RNG_DESCRIPTION",
    "sample_component_variance",
    "batch_df_estimates",
    "batch_kish",
    "run_grid",
    "run_grid_detailed",
]

RNG_DESCRIPTION = (
    "philox4x64 counter-based generator; chi-square via numpy standard_gamma "
    "(Marsaglia-Tsang for shape >= 1, Ahrens-Dieter GS for shape < 1)"
)

_MAX_SEED = 2**64


class WeightMode(str, enum.Enum):
    """How component weights are produced for each simulated replicate."""

    EQUAL = "equal"            # w_k = 1
    RANDOM_NORMAL = "random"   # w_k ~ Normal(1, sd), redrawn while <= 0


@dataclass(frozen=True)
class SimConfig:
    """Description of one simulation grid.

    ``k_values`` x ``nu_values`` defines the cells; each cell runs
    ``replicates`` independent replicates split into blocks of ``block_size``
    (the parallel/substream unit, so changing it changes the draws).
    ``fix_weights`` freezes one random weight draw per cell instead of
    redrawing per replicate. Equal weights are 1 and every component's true
    variance is 1: the df estimators are scale invariant, so neither value
    can change a result.
    """

    k_values: tuple[int, ...]
    nu_values: tuple[float, ...]
    seed: int
    weight_mode: WeightMode = WeightMode.EQUAL
    weight_sd: float = 0.3
    fix_weights: bool = False
    replicates: int = 100_000
    block_size: int = 10_000

    def __post_init__(self):
        ks = tuple(sorted(set(check_int("k_values entry", k, 1) for k in self.k_values)))
        nus = tuple(sorted(set(check_real("nu_values entry", v, 0.0, strict=True)
                               for v in self.nu_values)))
        object.__setattr__(self, "k_values", ks)
        object.__setattr__(self, "nu_values", nus)
        object.__setattr__(self, "weight_sd", check_real("weight_sd", self.weight_sd, 0.0))
        object.__setattr__(self, "weight_mode", WeightMode(self.weight_mode))
        for name, low in (("seed", 0), ("replicates", 1), ("block_size", 1)):
            object.__setattr__(self, name, check_int(name, getattr(self, name), low))
        if not ks:
            raise ValueError("k_values must be nonempty")
        if not nus:
            raise ValueError("nu_values must be nonempty")
        if self.seed >= _MAX_SEED:
            raise ValueError("seed must be an unsigned 64-bit integer")

    @property
    def grid(self) -> list[tuple[int, float]]:
        """Cells in output order: ascending K, then ascending nu_bar."""
        return [(k, nu) for k in self.k_values for nu in self.nu_values]


@dataclass(frozen=True)
class SimCell:
    """Aggregated results of one (K, nu_bar) cell.

    ``expected`` is K * nu_bar, the effective df of the combined estimate in
    the ideal case. SDs are across-replicate sample standard deviations of the
    estimators themselves (0.0 when replicates == 1). ``mean_kish`` is the
    mean Kish effective sample size over weight draws, exactly K in equal
    mode.
    """

    k: int
    nu_bar: float
    mean_satt: float
    sd_satt: float
    mean_corr: float
    sd_corr: float
    mean_kish: float
    expected: float
    ratio_kish_k: float
    ratio_satt: float
    ratio_corr: float


@dataclass(frozen=True)
class GridResult:
    """Cells of a grid run plus the telemetry the run manifest records."""

    cells: list[SimCell]
    weight_rejections: int


def sample_component_variance(nu, sigma_sq, rng: np.random.Generator, size=None):
    """Draw component variance estimates S^2 with nu * S^2 / sigma^2 ~ chi^2(nu).

    Returns ``sigma_sq * X / nu`` for a chi-square(nu) variate X (a
    gamma(nu/2, scale=2) draw), so ``E[S^2] = sigma_sq`` and
    ``Var[S^2] = 2 sigma_sq^2 / nu``. ``size=None`` gives one float; an int or
    shape tuple gives an array.
    """
    if not nu > 0:
        raise ValueError("nu must be > 0")
    if not sigma_sq > 0:
        raise ValueError("sigma_sq must be > 0")
    chi_sq = 2.0 * rng.standard_gamma(nu / 2.0, size=size)
    return sigma_sq * chi_sq / nu


def batch_df_estimates(weights, s2, nu):
    """Vectorized classic and corrected df over replicate rows.

    ``weights`` broadcasts against ``s2`` (rows = replicates, columns =
    components); ``nu`` is the df shared by all components of a cell. Agrees
    with the scalar estimators row by row (covered by tests).
    """
    import numpy as np

    a = np.asarray(weights, dtype=float) * np.asarray(s2, dtype=float)
    num = a.sum(axis=-1) ** 2
    sq_sum = (a * a).sum(axis=-1)
    if np.any(sq_sum == 0.0):
        raise DegenerateComponents("a replicate drew all-zero weighted variances")
    satt = nu * num / sq_sum
    corr = (nu + 2.0) * num / sq_sum - 2.0
    return satt, corr


def batch_kish(weights):
    """Vectorized Kish effective sample size over weight rows."""
    import numpy as np

    w = np.asarray(weights, dtype=float)
    return w.sum(axis=-1) ** 2 / (w * w).sum(axis=-1)


# ---------------------------------------------------------------------------
# block execution
# ---------------------------------------------------------------------------

@dataclass
class _BlockSums:
    """Partial sums of one replicate block, centered on K * nu_bar."""

    n: int
    d_satt: float
    d2_satt: float
    d_corr: float
    d2_corr: float
    kish: float
    rejections: int


def _block_rng(seed: int, cell: int, index: int) -> np.random.Generator:
    """Philox generator of substream ``index`` of grid cell ``cell``.

    Substream 0 draws a cell's fixed weight row, substream ``1 + b`` its
    block ``b``.
    """
    import numpy as np

    # explicit spawn key: pure, and independent of how many children a
    # parent sequence has handed out before
    stream = np.random.SeedSequence(entropy=seed, spawn_key=(cell, index))
    return np.random.Generator(np.random.Philox(stream))


def _draw_weights(rng: np.random.Generator, shape, sd: float):
    """Normal(1, sd) weights with nonpositive entries redrawn; returns (w, redraws)."""
    w = rng.normal(1.0, sd, size=shape)
    rejections = 0
    while True:
        bad = w <= 0.0
        n_bad = int(bad.sum())
        if n_bad == 0:
            return w, rejections
        rejections += n_bad
        w[bad] = rng.normal(1.0, sd, size=n_bad)


def _block_sizes(cfg: SimConfig) -> list[int]:
    full, rest = divmod(cfg.replicates, cfg.block_size)
    return [cfg.block_size] * full + ([rest] if rest else [])


def _fixed_weights(k: int, cfg: SimConfig, cell: int) -> tuple[np.ndarray | None, int]:
    """The per-cell weight row (substream 0) when fix_weights is active."""
    if cfg.weight_mode is not WeightMode.RANDOM_NORMAL or not cfg.fix_weights:
        return None, 0
    rng = _block_rng(cfg.seed, cell, 0)
    return _draw_weights(rng, k, cfg.weight_sd)


def _block_sums(
    k: int,
    nu_bar: float,
    cfg: SimConfig,
    cell: int,
    block_index: int,
    n: int,
    fixed_row: np.ndarray | None,
) -> _BlockSums:
    rng = _block_rng(cfg.seed, cell, 1 + block_index)
    rejections = 0
    if cfg.weight_mode is WeightMode.EQUAL:
        weights = 1.0
        kish_sum = float(n * k)  # n_eff is exactly K per replicate
    elif fixed_row is not None:
        weights = fixed_row
        kish_sum = n * float(batch_kish(fixed_row))
    else:
        weights, rejections = _draw_weights(rng, (n, k), cfg.weight_sd)
        kish_sum = float(batch_kish(weights).sum())
    s2 = sample_component_variance(nu_bar, 1.0, rng, size=(n, k))
    satt, corr = batch_df_estimates(weights, s2, nu_bar)
    center = k * nu_bar
    ds, dc = satt - center, corr - center
    return _BlockSums(
        n=n,
        d_satt=float(ds.sum()),
        d2_satt=float((ds * ds).sum()),
        d_corr=float(dc.sum()),
        d2_corr=float((dc * dc).sum()),
        kish=kish_sum,
        rejections=rejections,
    )


def _assemble_cell(k: int, nu_bar: float, partials: list[_BlockSums]) -> SimCell:
    """Combine block partials into one SimCell.

    Float sums use ``math.fsum``, which is exact before its one rounding, so
    the result depends neither on block order nor on the Python version
    (the built-in ``sum`` of floats is compensated only from 3.12 on).
    """
    r = sum(p.n for p in partials)
    expected = k * nu_bar

    def moments(d: float, d2: float) -> tuple[float, float]:
        if r > 1:
            var = max((d2 - d * d / r) / (r - 1), 0.0)
        else:
            var = 0.0
        return expected + d / r, math.sqrt(var)

    mean_satt, sd_satt = moments(math.fsum(p.d_satt for p in partials),
                                 math.fsum(p.d2_satt for p in partials))
    mean_corr, sd_corr = moments(math.fsum(p.d_corr for p in partials),
                                 math.fsum(p.d2_corr for p in partials))
    mean_kish = math.fsum(p.kish for p in partials) / r
    return SimCell(
        k=k,
        nu_bar=nu_bar,
        mean_satt=mean_satt,
        sd_satt=sd_satt,
        mean_corr=mean_corr,
        sd_corr=sd_corr,
        mean_kish=mean_kish,
        expected=expected,
        ratio_kish_k=mean_kish / k,
        ratio_satt=mean_satt / expected,
        ratio_corr=mean_corr / expected,
    )


def run_grid_detailed(cfg: SimConfig, *, threads: int = 1) -> GridResult:
    """Run every cell of the grid; also reports weight-redraw telemetry.

    Per replicate: draw weights according to ``cfg.weight_mode``, draw K
    component variances, evaluate the classic and corrected df estimators and
    the Kish effective sample size, then aggregate means/SDs and ratio
    columns per cell. ``threads`` only controls scheduling: blocks are seeded
    by (seed, cell index, block index), so any thread count yields identical
    cells.
    """
    if threads < 1:
        raise ValueError("threads must be >= 1")
    grid = cfg.grid
    fixed = [_fixed_weights(k, cfg, ci) for ci, (k, _) in enumerate(grid)]
    sizes = _block_sizes(cfg)
    tasks = [
        (ci, bi, n)
        for ci in range(len(grid))
        for bi, n in enumerate(sizes)
    ]

    def work(task: tuple[int, int, int]) -> _BlockSums:
        ci, bi, n = task
        k, nu = grid[ci]
        return _block_sums(k, nu, cfg, ci, bi, n, fixed[ci][0])

    with ThreadPoolExecutor(max_workers=threads) as pool:
        results = list(pool.map(work, tasks))  # map keeps task order

    cells = []
    rejections = 0
    for ci, (k, nu) in enumerate(grid):
        partials = results[ci * len(sizes):(ci + 1) * len(sizes)]
        cells.append(_assemble_cell(k, nu, partials))
        rejections += fixed[ci][1] + sum(p.rejections for p in partials)
    return GridResult(cells, rejections)


def run_grid(cfg: SimConfig, *, threads: int = 1) -> list[SimCell]:
    """Simulate the whole grid; deterministic given the config (incl. seed)."""
    return run_grid_detailed(cfg, threads=threads).cells
