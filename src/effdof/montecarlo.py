"""Chi-square Monte Carlo harness for the df estimators.

Simulates the paper's two weight schemes: the ideal case (equal weights,
equal true variances, equal component df) and random Normal(1, 0.3) weights
redrawn for every replicate. Each grid cell of (K, nu_bar) is aggregated into
means, SDs and ratio columns so runs can be compared against the documented
reference results. Every true component variance is 1 and equal weights are
1: the df estimators are scale invariant, so other constants would not change
them.

Reproducibility contract: the variances of one (nu column, block) pair come
from an independent substream derived from ``(seed, nu index, block index)``,
and the random weights of one block from a substream of its own derived from
``(seed, block index)``, both via ``numpy.random.SeedSequence`` spawn keys, so
output depends only on the configuration, never on scheduling or thread
count. One parallel unit is one block of every nu column in random mode (its
weights are drawn once and shared by the columns) and one (nu column, block)
pair in equal mode. The bit generator is SFC64 (Small Fast Chaotic, 256-bit
state). The spawn keys, not the generator, make the substreams independent,
so the draws need no counter-based generator such as Philox and take the
cheapest one measured. A chi-square(1) variate is a squared standard normal,
which is exactly its distribution and about three times cheaper than a gamma
draw of shape 1/2; other df come from numpy's ``gamma`` with the scale folded
in (Marsaglia-Tsang squeeze method for shape >= 1, Ahrens-Dieter GS for shape
< 1, which covers component df below 2 other than 1).

The cells of one nu share their replicates (common random numbers): a
replicate draws max(K) components, and the cell of each K takes its first K.
A block draws them segment by segment, [0, K_1), [K_1, K_2), ... up the sorted
K values (in random mode each segment's weights once, then each column's
variances), and keeps running sums over the components, so it emits a cell's
block moments as soon as its K is reached. The weights, and so the Kish
effective sample size, do not depend on nu, so every nu column of a block
shares them: a cell's Kish mean is the same for every nu. Each cell's
distribution, and so its mean, SD and standard error, is that of independent
replicates of its own; cells of the same nu covary, and with random weights
so do cells of different nu. A grid draws max(K), not sum(K), components per
replicate and nu (and max(K) weights per replicate), and no live array is
larger than one segment. So adding a larger K leaves the smaller cells' bytes
unchanged, and adding a nu leaves every cell's Kish columns unchanged.

Every component of a cell shares nu, so a replicate reduces to one ratio
R = (sum a)^2 / sum a^2 of its weighted variances a: the classic df is nu * R
and the corrected df (nu + 2) * R - 2. Blocks reduce R alone, and each cell
derives both estimators' means and SDs from R's. numpy loads with this
module; ``effdof`` and ``effdof.cli`` import it only when a simulation name
is first used or ``effdof simulate`` runs.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import FieldError, check_int, check_real

__all__ = [
    "SimConfig",
    "SimCell",
    "GridResult",
    "run_grid_detailed",
]

RNG_DESCRIPTION = (
    "sfc64 generator on SeedSequence(seed, spawn_key=(nu index, block)) variance "
    "substreams and SeedSequence(seed, spawn_key=(block,)) weight substreams; one "
    "replicate of max(k_values) components per nu, whose first K form cell K's "
    "replicate, with random weights shared by every nu; chi-square(1) as a squared "
    "numpy standard_normal, other df via numpy gamma (Marsaglia-Tsang for shape >= 1, "
    "Ahrens-Dieter GS for shape < 1)"
)

_MAX_SEED = 2**64

# the paper's two weight schemes: "equal" (w_k = 1) and "random" (w_k ~
# Normal(1, _WEIGHT_SD) per replicate, redrawn while <= 0)
_WEIGHT_MODES = ("equal", "random")
_WEIGHT_SD = 0.3

# floats one block draws, replicates x max(K): 2**24 is 128 MiB. The block
# draws them in segments, so its live arrays are smaller (two in random mode)
_MAX_BLOCK_VALUES = 2**24

# cap on worker threads: each is an OS thread, and CPU-bound blocks gain nothing past the cores
_MAX_THREADS = 256


@dataclass(frozen=True)
class SimConfig:
    """Description of one simulation grid.

    ``k_values`` x ``nu_values`` defines the cells; each cell runs
    ``replicates`` replicates split into blocks of ``block_size`` (the
    substream unit, so changing it changes the draws; the module docstring
    gives the seeding and sharing rules). One block of one nu draws
    ``min(block_size, replicates) x max(k_values)`` values, at most 2**24
    (128 MiB); a larger block raises ``ValueError``.
    ``weight_mode`` is the string ``"equal"`` or ``"random"`` (Normal(1, 0.3)
    weights redrawn for every replicate); a ``str`` subclass such as a str
    enum member is stored as its plain value. Equal weights are 1 and every
    component's true variance is 1: the df estimators are scale invariant, so
    neither value can change a result.
    """

    k_values: tuple[int, ...]
    nu_values: tuple[float, ...]
    seed: int
    weight_mode: str = "equal"
    replicates: int = 100_000
    block_size: int = 10_000

    def __post_init__(self):
        ks = tuple(sorted(set(check_int("k_values entry", k, 1) for k in self.k_values)))
        nus = tuple(sorted(set(check_real("nu_values entry", v, 0.0, strict=True)
                               for v in self.nu_values)))
        object.__setattr__(self, "k_values", ks)
        object.__setattr__(self, "nu_values", nus)
        try:
            mode = _WEIGHT_MODES[_WEIGHT_MODES.index(self.weight_mode)]
        except ValueError:
            allowed = " or ".join(map(repr, _WEIGHT_MODES))
            raise FieldError("weight_mode", f"weight_mode must be {allowed}, "
                             f"got {self.weight_mode!r}") from None
        object.__setattr__(self, "weight_mode", mode)
        for name, low in (("seed", 0), ("replicates", 1), ("block_size", 1)):
            object.__setattr__(self, name, check_int(name, getattr(self, name), low))
        if not ks:
            raise ValueError("k_values must be nonempty")
        if not nus:
            raise ValueError("nu_values must be nonempty")
        if self.seed >= _MAX_SEED:
            raise ValueError("seed must be an unsigned 64-bit integer")
        rows = min(self.block_size, self.replicates)
        if rows * ks[-1] > _MAX_BLOCK_VALUES:
            raise ValueError(
                f"one block would hold min(block_size, replicates) x max(k_values) = "
                f"{rows} x {ks[-1]} values, above the limit of {_MAX_BLOCK_VALUES}; "
                f"lower block_size or the largest k_values entry"
            )

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
    """Cells of a grid run plus the telemetry the run manifest records.

    ``cell_weight_rejections`` holds, per cell in grid order, the weight
    redraws among the cell's first K components. Every nu shares the weights,
    so the count of a K is the same for each of its nu cells, and it never
    decreases as K grows.
    """

    cells: list[SimCell]
    cell_weight_rejections: tuple[int, ...]

    @property
    def weight_rejections(self) -> int:
        """The redraws actually made: the count of the largest-K cells (the
        last entry), not a sum over cells."""
        return self.cell_weight_rejections[-1]


def sample_component_variance(nu, rng: np.random.Generator, size=None):
    """Draw component variance estimates S^2 with nu * S^2 ~ chi^2(nu).

    The true variance is 1: returns ``X / nu`` for a chi-square(nu) variate
    X, so ``E[S^2] = 1`` and ``Var[S^2] = 2 / nu``. For nu == 1, X is a
    squared standard normal; otherwise S^2 is one gamma draw of shape nu/2
    and scale ``2 / nu``. ``size=None`` gives one float; an int or shape
    tuple gives an array, built in place without a second array. A nu so
    small that ``2 / nu`` overflows raises ``FloatingPointError``.
    """
    nu = check_real("nu", nu, 0.0, strict=True)
    if nu == 1:
        x = rng.standard_normal(size)
        x *= x
        return x
    if not math.isfinite(2.0 / nu):  # numpy's gamma gives NaN at an infinite scale
        raise FloatingPointError(f"overflow: the gamma scale 2 / nu is infinite at nu={nu!r}")
    return rng.gamma(nu / 2.0, 2.0 / nu, size)


# ---------------------------------------------------------------------------
# block execution
# ---------------------------------------------------------------------------

@dataclass
class _BlockSums:
    """Partial results of one replicate block.

    ``mean`` is the block mean of the ratio R and ``m2`` the sum of squared
    deviations from that mean; ``kish`` is the block's Kish sum.
    """

    n: int
    mean: float
    m2: float
    kish: float
    rejections: int


def _mean_m2(x: np.ndarray) -> tuple[float, float]:
    """Mean of ``x`` and the sum of squared deviations from it (two passes)."""
    mean = x.mean()
    d = x - mean
    return float(mean), float((d * d).sum())


def _block_rng(seed: int, *key: int) -> np.random.Generator:
    """SFC64 generator of one substream: ``(nu column, block)`` keys a block's
    variances, ``(block,)`` its random weights."""
    # explicit spawn key: pure, and independent of how many children a
    # parent sequence has handed out before; a one-word key never equals a
    # two-word one
    stream = np.random.SeedSequence(entropy=seed, spawn_key=key)
    return np.random.Generator(np.random.SFC64(stream))


def _draw_weights(rng: np.random.Generator, shape):
    """Normal(1, 0.3) weights with nonpositive entries redrawn; returns (w, redraws).

    Each round redraws the rejected entries in ascending position order; only
    a fresh value can be rejected again, so later rounds test only those.
    """
    w = rng.normal(1.0, _WEIGHT_SD, size=shape)
    flat = w.reshape(-1)
    bad = (flat <= 0.0).nonzero()[0]
    rejections = 0
    while bad.size:
        rejections += bad.size
        fresh = rng.normal(1.0, _WEIGHT_SD, size=bad.size)
        flat[bad] = fresh
        bad = bad[fresh <= 0.0]
    return w, rejections


def _block_sizes(cfg: SimConfig) -> list[int]:
    full, rest = divmod(cfg.replicates, cfg.block_size)
    return [cfg.block_size] * full + ([rest] if rest else [])


def _block_sums(cfg: SimConfig, columns: tuple[int, ...], block_index: int,
                n: int) -> list[tuple[tuple[int, float], _BlockSums]]:
    """Block ``block_index`` (``n`` replicates) of the nu columns ``columns``
    (indices into ``cfg.nu_values``): the partial sums of each cell it computed,
    as ``((K, nu), sums)`` pairs, drawn as the module docstring describes.

    A replicate is a column of the ``(segment, n)`` arrays. Each count of
    redraws covers the cell's first K components. An overflow, an invalid
    operation (say inf - inf) or a replicate whose weighted variances all
    underflow to zero raises ``FloatingPointError``; numpy's error state is
    per thread, so it is set here, in the worker.
    """
    equal = cfg.weight_mode == "equal"
    a_sums = [(np.zeros(n), np.zeros(n)) for _ in columns]
    w_sum, w_sq = np.zeros(n), np.zeros(n)
    rejections, done, cells = 0, 0, []
    with np.errstate(over="raise", invalid="raise"):
        rngs = [_block_rng(cfg.seed, column, block_index) for column in columns]
        weight_rng = _block_rng(cfg.seed, block_index)
        for k in cfg.k_values:
            shape = (k - done, n)
            if equal:
                kish = float(n * k)  # n_eff is exactly K per replicate with equal weights
            else:
                w, redraws = _draw_weights(weight_rng, shape)
                rejections += redraws
                w_sum += w.sum(axis=0)
                w_sq += np.einsum("ij,ij->j", w, w)
                kish = float((w_sum * w_sum / w_sq).sum())
            for column, rng, (a_sum, a_sq) in zip(columns, rngs, a_sums):
                nu = cfg.nu_values[column]
                a = sample_component_variance(nu, rng, size=shape)
                if not equal:
                    a *= w  # the weighted variances, without a third array
                a_sum += a.sum(axis=0)
                a_sq += np.einsum("ij,ij->j", a, a)
                del a  # before the next column draws its own segment
                if not a_sq.all():
                    raise FloatingPointError("a replicate's weighted variances underflow to zero "
                                             f"in cell K={k}, nu={nu:g} (block {block_index})")
                sums = _BlockSums(n, *_mean_m2(a_sum * a_sum / a_sq), kish, rejections)
                cells.append(((k, nu), sums))
            done = k
    return cells


def _assemble_cell(k: int, nu_bar: float, partials: list[_BlockSums]) -> SimCell:
    """Combine block partials into one SimCell.

    Block means and M2s of R are pooled with the parallel formula of Chan,
    Golub and LeVeque: M2 = sum M2_b + sum n_b (mean_b - mean)^2, each
    deviation taken from its own mean, so no digits cancel however far the
    cell mean lies from K. Float sums use ``math.fsum``, which is exact before
    its one rounding, so the result depends neither on block order nor on the
    Python version (the built-in ``sum`` of floats is compensated only from
    3.12 on). Both estimators are affine in R, so their means and SDs follow
    from R's; a derived value beyond the float range raises
    ``FloatingPointError`` naming the cell.
    """
    r = sum(p.n for p in partials)
    mean = math.fsum(p.n * p.mean for p in partials) / r
    sd = 0.0
    if r > 1:
        m2 = math.fsum([*(p.m2 for p in partials),
                        *(p.n * (p.mean - mean) ** 2 for p in partials)])
        sd = math.sqrt(m2 / (r - 1))
    mean_satt, sd_satt = nu_bar * mean, nu_bar * sd
    mean_corr, sd_corr = (nu_bar + 2.0) * mean - 2.0, (nu_bar + 2.0) * sd
    expected = k * nu_bar
    if not all(map(math.isfinite, (mean_satt, sd_satt, mean_corr, sd_corr, expected))):
        raise FloatingPointError(f"overflow in the df moments of cell K={k}, nu={nu_bar:g}")
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

    Tasks, seeding and sharing follow the module docstring. ``threads``, in
    1..256, only controls scheduling: any thread count yields identical cells.
    """
    if check_int("threads", threads, 1) > _MAX_THREADS:
        raise FieldError("threads", f"threads must be between 1 and {_MAX_THREADS}, got {threads}")
    columns = range(len(cfg.nu_values))
    # random weights are drawn once per block and shared by every nu column;
    # equal weights have nothing to share, so each column is a task of its own
    groups = [tuple(columns)] if cfg.weight_mode == "random" else [(c,) for c in columns]
    tasks = [(group, bi, n) for group in groups for bi, n in enumerate(_block_sizes(cfg))]

    def work(task: tuple[tuple[int, ...], int, int]):
        return _block_sums(cfg, *task)

    # each cell's block partials, keyed (K, nu): the dict keeps cfg.grid's order
    parts: dict[tuple[int, float], list[_BlockSums]] = {cell: [] for cell in cfg.grid}
    with ThreadPoolExecutor(max_workers=threads) as pool:
        for block in pool.map(work, tasks):  # map keeps task order
            for cell, sums in block:
                parts[cell].append(sums)
    cells = [_assemble_cell(k, nu, part) for (k, nu), part in parts.items()]
    return GridResult(cells, tuple(sum(p.rejections for p in part) for part in parts.values()))
