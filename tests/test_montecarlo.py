"""Simulation harness: sampler distribution, determinism, and aggregate behavior."""

import dataclasses
import enum
import math
from fractions import Fraction

import numpy as np
import pytest

from effdof import (
    GridResult,
    SimCell,
    SimConfig,
    corrected_df,
    kish_neff,
    montecarlo,
    run_grid_detailed,
    satterthwaite_df,
)
from effdof.cli import cells_csv_full_precision, render_cells
from effdof.errors import FieldError
from effdof.estimators import ComponentSet
from effdof.montecarlo import (
    _MAX_BLOCK_VALUES,
    _assemble_cell,
    _block_rng,
    _block_sizes,
    _block_sums,
    _BlockSums,
    _draw_weights,
    _mean_m2,
    sample_component_variance,
)


def make_cfg(**kwargs):
    defaults = dict(k_values=(2,), nu_values=(1.0,), seed=42, replicates=2_000)
    defaults.update(kwargs)
    return SimConfig(**defaults)


def reference_draw_weights(rng, shape):
    """The whole-array redraw loop: rescan every entry until none is <= 0."""
    w = rng.normal(1.0, montecarlo._WEIGHT_SD, size=shape)
    rejections = 0
    while True:
        bad = w <= 0.0
        n_bad = int(bad.sum())
        if n_bad == 0:
            return w, rejections
        rejections += n_bad
        w[bad] = rng.normal(1.0, montecarlo._WEIGHT_SD, size=n_bad)


def segment_draws(cfg, column, block, n, draw_weights=reference_draw_weights):
    """Block ``block`` of nu column ``column`` as full (max K, n) weight and
    variance arrays, drawn segment by segment up the K values (the weights from
    the block's weight substream, the variances from the column's), and the
    redraw count after each segment. Equal weights are ones."""
    rng, weight_rng = _block_rng(cfg.seed, column, block), _block_rng(cfg.seed, block)
    nu = cfg.nu_values[column]
    weights, s2, redraws, done = [], [], [0], 0
    for k in cfg.k_values:
        shape = (k - done, n)
        if cfg.weight_mode == "equal":
            w, r = np.ones(shape), 0
        else:
            w, r = draw_weights(weight_rng, shape)
        weights.append(w)
        s2.append(sample_component_variance(nu, rng, size=shape))
        redraws.append(redraws[-1] + r)
        done = k
    return np.concatenate(weights), np.concatenate(s2), redraws[1:]


def column_blocks(cfg, draw_weights=reference_draw_weights):
    """``segment_draws`` of every block, per nu column."""
    return [[segment_draws(cfg, vi, bi, n, draw_weights)
             for bi, n in enumerate(_block_sizes(cfg))]
            for vi in range(len(cfg.nu_values))]


def reference_cells(cfg):
    """Cells of the shared-replicate layout, naively: each block's full arrays
    sliced to the cell's first K components, with a separate weighted-variance
    array; returns the cells and per-cell redraw counts in grid order."""
    blocks = column_blocks(cfg)
    cells, rejections = [], []
    for ki, k in enumerate(cfg.k_values):
        for vi, nu in enumerate(cfg.nu_values):
            partials = []
            for weights, s2, redraws in blocks[vi]:
                w = weights[:k]
                a = w * s2[:k]
                ratio = a.sum(axis=0) ** 2 / (a * a).sum(axis=0)
                kish = (w.sum(axis=0) ** 2 / (w * w).sum(axis=0)).sum()
                partials.append(_BlockSums(ratio.size, *_mean_m2(ratio), float(kish),
                                           redraws[ki]))
            cells.append(_assemble_cell(k, nu, partials))
            rejections.append(sum(p.rejections for p in partials))
    return cells, tuple(rejections)


def two_estimator_cells(cfg):
    """Cells reduced the earlier way: both df estimators per replicate, each
    with its own block moments and its own pooling, over the first K
    components of each block's full arrays."""
    columns = column_blocks(cfg, _draw_weights)
    cells = []
    for k, nu in cfg.grid:
        blocks = []
        for weights, s2, _ in columns[cfg.nu_values.index(nu)]:
            w = weights[:k]
            a = w * s2[:k]
            num, sq_sum = a.sum(axis=0) ** 2, (a * a).sum(axis=0)
            kish = float((w.sum(axis=0) ** 2 / (w * w).sum(axis=0)).sum())
            blocks.append((a.shape[1], nu * num / sq_sum,
                           (nu + 2.0) * num / sq_sum - 2.0, kish))
        r = sum(b[0] for b in blocks)

        def moments(column):
            stats = [(b[0], *_mean_m2(b[column])) for b in blocks]
            mean = math.fsum(n * m for n, m, _ in stats) / r
            m2 = math.fsum([*(m2 for _, _, m2 in stats),
                            *(n * (m - mean) ** 2 for n, m, _ in stats)])
            return mean, math.sqrt(m2 / (r - 1))

        (mean_satt, sd_satt), (mean_corr, sd_corr) = moments(1), moments(2)
        mean_kish, expected = math.fsum(b[3] for b in blocks) / r, k * nu
        cells.append(SimCell(k, nu, mean_satt, sd_satt, mean_corr, sd_corr, mean_kish,
                             expected, mean_kish / k, mean_satt / expected,
                             mean_corr / expected))
    return cells


def assert_cells_close(cells, reference):
    """Equal up to summation order: every statistic to rel 1e-14, the rest exactly."""
    for cell, ref in zip(cells, reference, strict=True):
        for name in ("mean_satt", "sd_satt", "mean_corr", "sd_corr", "mean_kish",
                     "ratio_kish_k", "ratio_satt", "ratio_corr"):
            assert getattr(cell, name) == pytest.approx(getattr(ref, name), rel=1e-14)
        assert (cell.k, cell.nu_bar, cell.expected) == (ref.k, ref.nu_bar, ref.expected)


class TestSampler:
    def test_scalar_draw(self):
        rng = np.random.Generator(np.random.Philox(0))
        value = sample_component_variance(4.0, rng)
        assert isinstance(value, float) and value >= 0.0

    def test_moments(self):
        # E[S^2] = 1, Var[S^2] = 2 / nu
        rng = np.random.Generator(np.random.Philox(1))
        draws = sample_component_variance(4.0, rng, size=200_000)
        se_mean = math.sqrt(2.0 / 4.0) / math.sqrt(draws.size)
        assert draws.mean() == pytest.approx(1.0, abs=5 * se_mean)
        assert draws.var(ddof=1) == pytest.approx(2.0 / 4.0, rel=0.05)

    def test_fourth_moment_identity(self):
        # E[S^4] * nu / (nu + 2) recovers the true variance squared, 1
        rng = np.random.Generator(np.random.Philox(2))
        draws = sample_component_variance(2.0, rng, size=300_000)
        transformed = draws**2 * (2.0 / 4.0)
        se = transformed.std(ddof=1) / math.sqrt(transformed.size)
        assert transformed.mean() == pytest.approx(1.0, abs=5 * se)

    def test_sub_one_gamma_shape_path(self):
        # nu=0.5 takes numpy's gamma sampler at shape 0.25 (< 1): check
        # E[S^2] = 1 and Var[S^2] = 2 / nu
        nu, n = 0.5, 400_000
        rng = np.random.Generator(np.random.Philox(3))
        draws = sample_component_variance(nu, rng, size=n)
        var = 2 / nu
        assert draws.mean() == pytest.approx(1.0, abs=5 * math.sqrt(var / n))
        # a gamma of shape a has excess kurtosis 6/a
        excess_kurtosis = 6 / (nu / 2)
        tol = 5 * var * math.sqrt((excess_kurtosis + 2) / n)
        assert draws.var(ddof=1) == pytest.approx(var, abs=tol)

    @pytest.mark.parametrize("x", [0.5, 1.0, 2.5, 4.0])
    def test_chi_square_one_cdf(self, x):
        # nu=1 is a squared standard normal; check the CDF at x against the
        # closed form P(chi2_1 <= x) = erf(sqrt(x / 2))
        rng = np.random.Generator(np.random.Philox(3))
        draws = sample_component_variance(1.0, rng, size=200_000)
        p = math.erf(math.sqrt(x / 2.0))
        emp = float((draws <= x).mean())
        tol = 5 * math.sqrt(p * (1 - p) / draws.size)
        assert emp == pytest.approx(p, abs=tol)

    def test_chi_square_one_is_a_squared_normal(self):
        draws = sample_component_variance(1.0, np.random.Generator(np.random.Philox(5)),
                                          size=(3, 4))
        z = np.random.Generator(np.random.Philox(5)).standard_normal((3, 4))
        assert np.array_equal(draws, z * z)
        value = sample_component_variance(1.0, np.random.Generator(np.random.Philox(5)))
        assert isinstance(value, float) and value == draws[0, 0]

    def test_gamma_scale_is_two_over_nu(self):
        draws = sample_component_variance(4.0, np.random.Generator(np.random.Philox(6)),
                                          size=8)
        gamma = np.random.Generator(np.random.Philox(6)).gamma(2.0, 0.5, 8)
        assert np.array_equal(draws, gamma)

    def test_invalid_parameters(self):
        rng = np.random.Generator(np.random.Philox(4))
        for nu in (0.0, -1.0, float("nan"), float("inf"), True, "2"):
            with pytest.raises(ValueError, match="nu"):
                sample_component_variance(nu, rng)

    @pytest.mark.parametrize("nu", [1e-310, 5e-324])
    def test_subnormal_nu_is_an_overflow(self, nu):
        # 2 / nu is inf, and numpy's gamma at an infinite scale draws NaN
        rng = np.random.Generator(np.random.Philox(4))
        message = f"^overflow: the gamma scale 2 / nu is infinite at nu={nu!r}$"
        with pytest.raises(FloatingPointError, match=message):
            sample_component_variance(nu, rng, size=3)
        # the smallest nu with a finite scale still draws
        assert sample_component_variance(2.0 / 1.7e308, rng) >= 0.0


class TestBatchAgainstScalar:
    """A block's per-cell sums against the scalar estimators on the same draws."""

    CFG = dict(k_values=(2, 5), nu_values=(3.5,), replicates=40, weight_mode="random")

    def test_df_estimates_match_scalar_path(self):
        cfg = make_cfg(**self.CFG)
        pairs = _block_sums(cfg, (0,), 0, 40)
        weights, s2, redraws = segment_draws(cfg, 0, 0, 40)
        for k, ((cell_k, nu), block), count in zip(cfg.k_values, pairs, redraws, strict=True):
            assert (cell_k, nu) == (k, 3.5)
            columns = [(weights[:k, j], s2[:k, j]) for j in range(40)]
            # at nu = 1 the classic df is the ratio R itself
            ratio = [satterthwaite_df(ComponentSet.from_arrays(w, v, [1.0] * k)).value
                     for w, v in columns]
            mean = math.fsum(ratio) / len(ratio)
            assert (block.n, block.rejections) == (40, count)
            assert block.mean == pytest.approx(mean, rel=1e-12)
            assert block.m2 == pytest.approx(math.fsum((x - mean) ** 2 for x in ratio),
                                             rel=1e-12)
            # the cell derives both estimators at nu_bar from R's moments
            cell = _assemble_cell(k, 3.5, [block])
            for estimator, field in ((satterthwaite_df, "mean_satt"),
                                     (corrected_df, "mean_corr")):
                values = [estimator(ComponentSet.from_arrays(w, v, [3.5] * k)).value
                          for w, v in columns]
                assert getattr(cell, field) == pytest.approx(math.fsum(values) / 40,
                                                             rel=1e-12)

    def test_kish_matches_scalar_path(self):
        cfg = make_cfg(**self.CFG)
        pairs = _block_sums(cfg, (0,), 0, 40)
        weights, _, _ = segment_draws(cfg, 0, 0, 40)
        for k, ((cell_k, _), block) in zip(cfg.k_values, pairs, strict=True):
            assert cell_k == k
            scalar = math.fsum(kish_neff(weights[:k, j]) for j in range(40))
            assert block.kish == pytest.approx(scalar, rel=1e-12)

    def test_random_block_yields_each_cell_once(self):
        # one task draws every nu column of a block: each (K, nu) cell comes
        # once, and a column's sums are those it gets when drawn alone
        cfg = make_cfg(k_values=(2, 5), nu_values=(1.0, 3.5), replicates=40,
                       weight_mode="random")
        pairs = _block_sums(cfg, (0, 1), 0, 40)
        assert sorted(cell for cell, _ in pairs) == cfg.grid
        for column, nu in enumerate(cfg.nu_values):
            alone = _block_sums(cfg, (column,), 0, 40)
            assert alone == [pair for pair in pairs if pair[0][1] == nu]

    def test_all_zero_replicate_is_a_hard_error(self, monkeypatch):
        # replicate 1 draws zeros in the first segment only: cell K=2 has an
        # all-zero replicate although the K=3 one does not
        def zeros_in_one_replicate(nu, rng, size=None):
            s2 = sample_component_variance(nu, rng, size)
            if size[0] == 2:
                s2[:, 1] = 0.0
            return s2

        monkeypatch.setattr(montecarlo, "sample_component_variance", zeros_in_one_replicate)
        with pytest.raises(FloatingPointError,
                           match=r"^a replicate's weighted variances underflow to zero "
                                 r"in cell K=2, nu=1 \(block 0\)$"):
            run_grid_detailed(make_cfg(k_values=(2, 3), replicates=3))


class TestWeightDraw:
    # sd 1.0 puts P(w <= 0) near 16%, so blocks take several redraw rounds
    @pytest.mark.parametrize("sd", [0.3, 1.0])
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    @pytest.mark.parametrize("shape", [(1, 1), (7, 3), (500, 16), (2_000, 64)])
    def test_matches_the_whole_array_redraw(self, monkeypatch, sd, seed, shape):
        monkeypatch.setattr(montecarlo, "_WEIGHT_SD", sd)
        rng, ref_rng = _block_rng(seed, 0, 1), _block_rng(seed, 0, 1)
        w, redraws = _draw_weights(rng, shape)
        ref, ref_redraws = reference_draw_weights(ref_rng, shape)
        assert w.shape == shape and np.array_equal(w, ref)
        assert redraws == ref_redraws
        assert (w > 0.0).all()
        # both leave the stream at the same position
        assert np.array_equal(rng.random(4), ref_rng.random(4))

    def test_several_rounds_occur_at_a_wide_sd(self, monkeypatch):
        monkeypatch.setattr(montecarlo, "_WEIGHT_SD", 1.0)
        shape = (2_000, 64)
        _, redraws = _draw_weights(_block_rng(0, 0, 1), shape)
        # one round would redraw about 16% of the entries; more rounds add 16% of that
        assert redraws > 0.17 * shape[0] * shape[1]

    @pytest.mark.parametrize("sd", [0.3, 1.0])
    def test_random_grid_matches_the_reference_block(self, monkeypatch, sd):
        monkeypatch.setattr(montecarlo, "_WEIGHT_SD", sd)
        cfg = make_cfg(k_values=(3, 16), nu_values=(1.0, 5.0), replicates=12_000,
                       block_size=5_000, weight_mode="random")
        result = run_grid_detailed(cfg)
        cells, rejections = reference_cells(cfg)
        # the block sums its segments one at a time, the reference each K's
        # components in one pass: only the summation order differs
        assert_cells_close(result.cells, cells)
        assert result.cell_weight_rejections == rejections
        # every nu shares the weights: the K=16 cells, last in the grid, each
        # count every redraw made
        assert result.weight_rejections == rejections[-1] == rejections[-2]


class TestDeterminism:
    def test_rerun_is_identical(self):
        cfg = make_cfg(k_values=(2, 4), nu_values=(1.0, 8.0), replicates=3_000)
        assert run_grid_detailed(cfg).cells == run_grid_detailed(cfg).cells

    def test_thread_count_does_not_change_results(self):
        # K=3 is not a power of two: an equal weight other than 1 on some
        # path would move the last digits
        cfg = make_cfg(k_values=(2, 3, 4), nu_values=(1.0, 8.0),
                       replicates=25_000, block_size=4_000)
        base = run_grid_detailed(cfg, threads=1).cells
        assert run_grid_detailed(cfg, threads=4).cells == base
        assert run_grid_detailed(cfg, threads=2).cells == base

    def test_random_weight_modes_are_deterministic(self):
        cfg = make_cfg(weight_mode="random", replicates=22_000, block_size=5_000)
        a = run_grid_detailed(cfg, threads=1)
        b = run_grid_detailed(cfg, threads=3)
        assert a.cells == b.cells
        assert a.weight_rejections == b.weight_rejections
        assert a.cell_weight_rejections == b.cell_weight_rejections

    def test_single_replicate_cell(self):
        cfg = make_cfg(replicates=1)
        cell = run_grid_detailed(cfg).cells[0]
        assert run_grid_detailed(cfg).cells[0] == cell
        assert cell.sd_satt == 0.0 and cell.sd_corr == 0.0

    def test_different_seeds_differ(self):
        a = run_grid_detailed(make_cfg()).cells[0]
        b = run_grid_detailed(make_cfg(seed=43)).cells[0]
        assert a.mean_satt != b.mean_satt


class TestBlockRng:
    def test_bit_generator_is_sfc64(self):
        rng = _block_rng(7, 0, 1)
        assert isinstance(rng, np.random.Generator)
        assert type(rng.bit_generator) is np.random.SFC64

    def test_same_key_gives_same_draws(self):
        assert np.array_equal(_block_rng(7, 2, 3).random(16), _block_rng(7, 2, 3).random(16))

    def test_cell_and_index_each_select_a_stream(self):
        base = _block_rng(7, 2, 3).random(16)
        assert not np.array_equal(_block_rng(7, 1, 3).random(16), base)
        assert not np.array_equal(_block_rng(7, 2, 4).random(16), base)

    def test_weight_stream_differs_from_every_variance_stream(self):
        # a block's weights are keyed (block,), its variances (nu index, block)
        variance_streams = [_block_rng(7, c, b).random(16) for c in range(4) for b in range(4)]
        for b in range(4):
            weights = _block_rng(7, b).random(16)
            assert np.array_equal(weights, _block_rng(7, b).random(16))
            assert not any(np.array_equal(weights, v) for v in variance_streams)

    def test_chi_square_moment_across_substreams(self):
        # chi2(4) variances from several substreams: E[S^2] = 1 and
        # Var[S^2] = 2 / nu
        nu, n = 4.0, 40_000
        draws = np.concatenate([
            sample_component_variance(nu, _block_rng(11, cell, index), size=n)
            for cell in range(3) for index in range(3)
        ])
        se = math.sqrt(2.0 / nu / draws.size)
        assert draws.mean() == pytest.approx(1.0, abs=5 * se)


class TestOverflow:
    @pytest.mark.parametrize("threads", [1, 2])
    def test_overflow_raises_at_any_thread_count(self, threads):
        # nu_bar * R with R near K = 2 overflows: assembling the cell raises
        # instead of returning inf
        cfg = make_cfg(nu_values=(1e308,), replicates=5, block_size=2)
        with pytest.raises(FloatingPointError,
                           match=r"^overflow in the df moments of cell K=2, nu=1e\+308$"):
            run_grid_detailed(cfg, threads=threads)

    def test_each_derived_value_is_checked_alone(self):
        # the means are finite, though their product is not
        cell = run_grid_detailed(make_cfg(nu_values=(1e300,), replicates=5)).cells[0]
        assert cell.mean_satt * cell.mean_corr == math.inf
        assert cell.ratio_satt == pytest.approx(1.0) and cell.ratio_corr == pytest.approx(1.0)


class TestGrid:
    def test_cardinality_and_order(self):
        cfg = make_cfg(k_values=(64, 2, 4, 8, 16, 32),
                       nu_values=(32.0, 1.0, 2.0, 4.0, 8.0, 16.0),
                       replicates=10)
        cells = run_grid_detailed(cfg).cells
        assert len(cells) == 36
        assert [(c.k, c.nu_bar) for c in cells] == cfg.grid
        assert cfg.grid == sorted(cfg.grid)

    def test_expected_column(self):
        cfg = make_cfg(k_values=(3, 5), nu_values=(2.0,), replicates=50)
        for cell in run_grid_detailed(cfg).cells:
            assert cell.expected == cell.k * cell.nu_bar

    def test_seed_stability_of_cell_means(self):
        # two independent seeds agree within Monte Carlo resolution
        cells = [run_grid_detailed(make_cfg(k_values=(2,), nu_values=(8.0,),
                                            replicates=100_000, seed=s)).cells[0]
                 for s in (1, 2)]
        se = math.hypot(cells[0].sd_corr, cells[1].sd_corr) / math.sqrt(100_000)
        assert abs(cells[0].mean_corr - cells[1].mean_corr) < 4 * se


class TestAggregates:
    def test_pooled_sd_survives_a_large_offset(self):
        # block ratios sit 1e4 away from K = 64 with SD ~3; pooling deviations
        # from K would lose about seven digits here
        rng = np.random.default_rng(15)
        blocks = [rng.normal(loc, 3.0, size=n)
                  for loc, n in ((1e4, 1_000), (1e4 + 0.5, 1_000), (1e4 - 2.0, 500))]
        partials = [_BlockSums(x.size, *_mean_m2(x), 0.0, 0) for x in blocks]
        nu = 3.0
        cell = _assemble_cell(64, nu, partials)

        exact = [Fraction(v) for x in blocks for v in x.tolist()]
        mean = sum(exact) / len(exact)
        sd = math.sqrt(sum((v - mean) ** 2 for v in exact) / (len(exact) - 1))
        assert cell.mean_satt == pytest.approx(float(nu * mean), rel=1e-15)
        assert cell.mean_corr == pytest.approx(float((nu + 2) * mean - 2), rel=1e-15)
        assert cell.sd_satt == pytest.approx(nu * sd, rel=1e-13)
        assert cell.sd_corr == pytest.approx((nu + 2) * sd, rel=1e-13)

    @pytest.mark.parametrize("mode", ["equal", "random"])
    def test_agrees_with_the_two_estimator_reduction(self, mode):
        # pooling R and scaling it moves the cells by last bits only; the
        # rendered tables do not change
        cfg = make_cfg(k_values=(2, 3, 16, 64), nu_values=(1.0, 2.5, 8.0, 32.0),
                       replicates=6_000, block_size=2_500, seed=12345, weight_mode=mode)
        cells, reference = run_grid_detailed(cfg).cells, two_estimator_cells(cfg)
        assert_cells_close(cells, reference)
        for ratios in (False, True):
            assert render_cells(cells, 3, ratios) == render_cells(reference, 3, ratios)

    def test_kish_is_exactly_k_in_equal_mode(self):
        cfg = make_cfg(k_values=(3, 16), nu_values=(2.0,), replicates=500)
        for cell in run_grid_detailed(cfg).cells:
            assert cell.mean_kish == float(cell.k)
            assert cell.ratio_kish_k == 1.0

    def test_classic_estimator_biased_low_in_ideal_case(self):
        cfg = make_cfg(k_values=(2, 8), nu_values=(1.0, 4.0, 32.0), replicates=4_000)
        for cell in run_grid_detailed(cfg).cells:
            assert cell.mean_satt < cell.expected

    def test_classic_bias_shrinks_with_growing_dof(self):
        cfg = make_cfg(k_values=(4,), nu_values=(1.0, 4.0, 16.0, 64.0),
                       replicates=4_000)
        rel_bias = [(c.expected - c.mean_satt) / c.expected
                    for c in run_grid_detailed(cfg).cells]
        assert all(a > b for a, b in zip(rel_bias, rel_bias[1:]))

    def test_corrected_mean_near_expected_at_large_dof(self):
        # residual bias of the corrected estimator is below Monte Carlo
        # resolution once the component df are large
        cfg = make_cfg(k_values=(32,), nu_values=(500.0,), replicates=20_000)
        cell = run_grid_detailed(cfg).cells[0]
        tol = 4 * cell.sd_corr / math.sqrt(cfg.replicates)
        assert abs(cell.mean_corr - cell.expected) < tol

    def test_random_weights_shift_kish_ratio(self):
        # Normal(1, 0.3) weights: E[n_eff / K] near 1/(1 + 0.09) ~ 0.92
        cfg = make_cfg(k_values=(16,), nu_values=(5.0,), replicates=5_000,
                       weight_mode="random")
        cell = run_grid_detailed(cfg).cells[0]
        assert 0.91 <= cell.ratio_kish_k <= 0.93

    def test_all_ratios_converge_under_random_weights_at_large_dof(self):
        # at nu=500 the weight design effect dominates all three columns
        cfg = make_cfg(k_values=(16,), nu_values=(500.0,), replicates=5_000,
                       weight_mode="random")
        cell = run_grid_detailed(cfg).cells[0]
        for ratio in (cell.ratio_kish_k, cell.ratio_satt, cell.ratio_corr):
            assert ratio == pytest.approx(0.92, abs=0.01)

    def test_weight_rejections_are_counted(self):
        cfg = make_cfg(k_values=(16,), nu_values=(1.0, 5.0), replicates=50_000,
                       weight_mode="random")
        result = run_grid_detailed(cfg)
        # P(w <= 0) ~ 4.3e-4 per draw over 800k draws, shared by both nu: about
        # 343 redraws with an SD of about 19, where a count per nu would
        # give about 686
        assert 250 < result.weight_rejections < 440

    def test_weight_rejections_per_cell(self):
        cfg = make_cfg(k_values=(4, 32), nu_values=(1.0, 8.0), replicates=9_000,
                       block_size=2_000, weight_mode="random")
        result = run_grid_detailed(cfg, threads=2)
        per_cell = result.cell_weight_rejections
        assert len(per_cell) == len(cfg.grid)
        # grid order (4, 1), (4, 8), (32, 1), (32, 8): both nu share the
        # weights, a K=32 cell counts the redraws among all 32 of them and a
        # K=4 cell those among the first 4, so each K=32 cell holds every
        # redraw made
        assert per_cell[0] == per_cell[1] and per_cell[2] == per_cell[3]
        assert result.weight_rejections == per_cell[-1]
        # the total is derived from the per-cell counts, not stored beside them,
        # so replacing the cells (as a wrapper of the grid call may) keeps it
        assert ([f.name for f in dataclasses.fields(GridResult)]
                == ["cells", "cell_weight_rejections"])
        assert dataclasses.replace(result, cells=[]).weight_rejections == per_cell[-1]
        # P(w <= 0) ~ 4.3e-4 per draw: K=32 cells see 8x the weights of K=4 cells
        assert per_cell[2] > per_cell[0]

    @pytest.mark.parametrize("mode", ["equal", "random"])
    def test_a_larger_k_leaves_the_smaller_cells_unchanged(self, mode):
        # cell K uses the first K components of its column's replicates, which
        # are drawn before any larger K's
        small = make_cfg(k_values=(3, 16), nu_values=(1.0, 5.0), replicates=5_000,
                         block_size=2_000, weight_mode=mode)
        large = dataclasses.replace(small, k_values=(3, 16, 64))
        a, b = run_grid_detailed(small), run_grid_detailed(large, threads=2)
        assert b.cells[:4] == a.cells
        assert b.cell_weight_rejections[:4] == a.cell_weight_rejections
        csv_small = cells_csv_full_precision(a.cells)
        assert cells_csv_full_precision(b.cells).startswith(csv_small)

    def test_random_weights_are_shared_across_nu(self):
        # Kish n_eff is a function of the weights alone, and every nu column of
        # a block uses the same weights
        cfg = make_cfg(k_values=(3, 16), nu_values=(1.0, 5.0, 50.0), replicates=5_000,
                       block_size=2_000, weight_mode="random")
        result = run_grid_detailed(cfg, threads=2)
        for k in cfg.k_values:
            at_k = [(c.mean_kish, c.ratio_kish_k, count)
                    for c, count in zip(result.cells, result.cell_weight_rejections)
                    if c.k == k]
            assert len(at_k) == 3 and len(set(at_k)) == 1
        # the variances are not shared: columns drawing the same R would give
        # the same Satt / (K nu)
        assert len({c.ratio_satt for c in result.cells}) == len(result.cells)

    def test_adding_a_nu_leaves_the_kish_columns_unchanged(self):
        # 0.5 sorts first, so every earlier column moves to a new nu index and
        # a new variance substream; the weights are keyed by block alone
        small = make_cfg(k_values=(3, 16), nu_values=(2.5, 8.0), replicates=5_000,
                         block_size=2_000, weight_mode="random")
        large = dataclasses.replace(small, nu_values=(0.5, 2.5, 8.0, 32.0))
        a, b = run_grid_detailed(small), run_grid_detailed(large, threads=2)

        def per_k(result):
            return {(c.k, c.mean_kish, c.ratio_kish_k, count)
                    for c, count in zip(result.cells, result.cell_weight_rejections)}

        assert per_k(a) == per_k(b) and len(per_k(a)) == 2
        assert a.weight_rejections == b.weight_rejections > 0

    def test_no_weight_rejections_in_equal_mode(self):
        cfg = make_cfg(k_values=(2, 8), nu_values=(1.0, 4.0), replicates=600)
        result = run_grid_detailed(cfg, threads=2)
        assert result.cell_weight_rejections == (0, 0, 0, 0)
        assert result.weight_rejections == 0



class TestConfigValidation:
    def test_values_are_sorted_and_deduplicated(self):
        cfg = make_cfg(k_values=(4, 2, 4), nu_values=(8.0, 1.0, 8.0))
        assert cfg.k_values == (2, 4)
        assert cfg.nu_values == (1.0, 8.0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(k_values=()),
            dict(k_values=(0,)),
            dict(nu_values=(0.0,)),
            dict(nu_values=(-1.0,)),
            dict(replicates=0),
            dict(k_values=(-2,)),
            dict(seed=-1),
            dict(seed=2**64),
            dict(block_size=0),
            dict(replicates=100.0),
            dict(block_size=5000.0),
            dict(k_values=(2.7,)),
            dict(seed=True),
            dict(nu_values=()),
            dict(nu_values=(float("nan"),)),
            dict(nu_values=(float("inf"),)),
            dict(nu_values=(True,)),
            dict(nu_values=("1.0",)),
            dict(replicates=True),
            dict(block_size="10"),
            dict(seed=1.5),
            dict(replicates=10**400),
            dict(block_size=10**400),
        ],
    )
    def test_invalid_configs(self, kwargs):
        (field,) = kwargs
        with pytest.raises(ValueError, match=field):
            make_cfg(**kwargs)

    def test_block_array_is_bounded(self):
        # builds configs only, so no block array is ever allocated
        limit = _MAX_BLOCK_VALUES
        make_cfg(k_values=(limit // 1000,), replicates=10**9, block_size=1000)
        make_cfg(k_values=(2, limit // 2), replicates=2)  # replicates < block_size
        for kwargs in (dict(k_values=(2, 100_000_000), replicates=1),
                       dict(k_values=(limit // 1000 + 1,), replicates=10**9, block_size=1000),
                       dict(k_values=(limit // 2 + 1,), replicates=2)):
            with pytest.raises(ValueError, match=r"block_size.*k_values"):
                make_cfg(**kwargs)

    def test_weight_mode_coercion(self):
        class Scheme(str, enum.Enum):
            RANDOM = "random"

        # stored as the plain str, so its f-string is the value on every Python
        for mode in ("random", Scheme.RANDOM):
            stored = make_cfg(weight_mode=mode).weight_mode
            assert type(stored) is str
            assert stored == "random"
            assert f"{stored}" == "random"

    def test_unknown_weight_mode_names_the_field(self):
        with pytest.raises(FieldError, match="^weight_mode must be 'equal' or 'random', "
                                             "got 'fixed'$") as exc:
            make_cfg(weight_mode="fixed")
        assert exc.value.field == "weight_mode"

    def test_block_partition(self):
        assert _block_sizes(make_cfg(replicates=25_000, block_size=10_000)) == [
            10_000, 10_000, 5_000,
        ]
        assert _block_sizes(make_cfg(replicates=10, block_size=10_000)) == [10]

    def test_thread_validation(self):
        with pytest.raises(ValueError):
            run_grid_detailed(make_cfg(replicates=10), threads=0)
        # one block, so even a missing bound would start a single thread
        with pytest.raises(ValueError, match="between 1 and 256, got 257"):
            run_grid_detailed(make_cfg(replicates=10), threads=257)
        assert run_grid_detailed(make_cfg(replicates=10), threads=256).cells
        for threads in (True, 1.5):
            with pytest.raises(FieldError) as exc:
                run_grid_detailed(make_cfg(replicates=10), threads=threads)
            assert exc.value.field == "threads"
