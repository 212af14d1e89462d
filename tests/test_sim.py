import dataclasses

import mpmath
import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.special import expit
from scipy.stats import chi2_contingency

import crossrep as cr
from crossrep import (
    ConfigError,
    DataError,
    default_design,
    draw_truth,
    evaluate,
    null_truth_mask,
    simulate_panel,
    simulate_study,
    z_from_tables,
    z_from_tables_contingency,
)
from crossrep.sim import _margins, _pearson, case_control_dose_probs, disease_prob_per_dose
from helpers import NA, NR, three_sum_pearson_statistic, z_from_table


def pearson_statistic(tables):
    """Pearson chi-square (2 df) of a stack of 2x3 tables, as z_from_tables_contingency
    computes it."""
    return _pearson(*_margins(tables))


class TestDesign:
    def test_default_mass_budget(self):
        design = default_design()
        probs = design.config_probs
        assert sum(probs.values()) == pytest.approx(1.0, abs=1e-12)
        assert probs[(0, 0, 0)] == 0.90
        singles = [p for h, p in probs.items() if sum(abs(s) for s in h) == 1]
        assert len(singles) == 6 and all(p == 0.01 for p in singles)
        multi = [h for h in probs if abs(sum(h)) >= 2]
        assert len(multi) == 8 and all(probs[h] == 0.005 for h in multi)

    def test_no_mass_on_discordant_configurations(self):
        design = default_design()
        for h in design.config_probs:
            assert not (any(s == 1 for s in h) and any(s == -1 for s in h))

    def test_baseline_odds(self):
        design = default_design()
        assert np.exp(design.alpha) == pytest.approx(0.0025, rel=0.01)

    def test_probability_vector_alignment(self):
        design = default_design()
        vec = design.config_prob_vector()
        space = cr.enumerate_configurations(3)
        assert vec.sum() == pytest.approx(1.0)
        assert vec[space.index((0, 0, 0))] == 0.90
        assert (vec > 0).sum() == 15

    def test_design_validation(self):
        with pytest.raises(ConfigError):
            default_design()._replace_maf((0.0, 0.5)) if False else cr.SimDesign(
                n_studies=2,
                n_snps=10,
                n_cases=10,
                n_controls=10,
                config_probs={(0, 0): 1.0},
                effect_ranges={1: (0.25, 0.5), -1: (-0.5, -0.25)},
                maf_range=(0.0, 0.5),
                alpha=-6.0,
                seed=0,
            )
        with pytest.raises(ConfigError):
            cr.SimDesign(
                n_studies=2,
                n_snps=10,
                n_cases=10,
                n_controls=10,
                config_probs={(0, 0): 0.9},
                effect_ranges={1: (0.25, 0.5), -1: (-0.5, -0.25)},
                maf_range=(0.05, 0.5),
                alpha=-6.0,
                seed=0,
            )

    def test_negative_seed_is_a_config_error(self):
        with pytest.raises(ConfigError, match="seed must be nonnegative, got -1"):
            dataclasses.replace(default_design(n_snps=10), seed=-1)


class TestTruth:
    def test_deterministic_given_seed(self):
        design = default_design(n_snps=500, seed=11)
        a = draw_truth(design)
        b = draw_truth(design)
        assert np.array_equal(a.statuses, b.statuses)
        assert np.array_equal(a.theta, b.theta)
        assert np.array_equal(a.maf, b.maf)

    def test_effect_ranges_respected(self):
        truth = draw_truth(default_design(n_snps=5000, seed=3))
        pos = truth.theta[truth.statuses == 1]
        neg = truth.theta[truth.statuses == -1]
        assert np.all((pos >= 0.25) & (pos <= 0.5))
        assert np.all((neg >= -0.5) & (neg <= -0.25))
        assert np.all(truth.theta[truth.statuses == 0] == 0.0)
        assert np.all((truth.maf >= 0.05) & (truth.maf <= 0.5))

    def test_null_fraction_concentration(self):
        truth = draw_truth(default_design(n_snps=100_000, seed=4))
        frac = np.mean(np.all(truth.statuses == 0, axis=0))
        assert abs(frac - 0.90) < 0.005


class TestGenotypeModel:
    def test_null_effect_gives_identical_dose_distributions(self):
        p_case, p_ctrl = case_control_dose_probs(
            np.zeros(4), np.array([0.1, 0.2, 0.3, 0.5]), alpha=-6.0
        )
        assert_allclose(p_case, p_ctrl, atol=1e-15)

    def test_positive_effect_shifts_cases_upward(self):
        p_case, p_ctrl = case_control_dose_probs(
            np.array([0.5]), np.array([0.5]), alpha=-6.0
        )
        # strict stochastic dominance: case CDF below control CDF
        case_cdf = np.cumsum(p_case[0])[:-1]
        ctrl_cdf = np.cumsum(p_ctrl[0])[:-1]
        assert np.all(case_cdf < ctrl_cdf)

    def test_marginal_disease_probability(self):
        p = disease_prob_per_dose(np.array([0.0]), alpha=-6.0)
        assert_allclose(p, expit(-6.0), rtol=1e-12)
        assert p[0, 0] == pytest.approx(1 / (1 + np.exp(6.0)), rel=1e-12)

    def test_tables_have_fixed_margins(self):
        design = default_design(n_snps=200, seed=5)
        truth = draw_truth(design)
        tables = simulate_study(truth, design, 1)
        assert tables.shape == (200, 2, 3)
        assert np.all(tables[:, 0].sum(axis=1) == design.n_cases)
        assert np.all(tables[:, 1].sum(axis=1) == design.n_controls)


class TestTrendZ:
    def test_swapping_rows_flips_sign_exactly(self):
        rng = np.random.default_rng(6)
        tables = rng.integers(1, 50, size=(40, 2, 3))
        z = z_from_tables(tables)
        assert np.array_equal(z_from_tables(tables[:, ::-1, :]), -z)

    def test_balanced_tables_give_small_z(self):
        table = np.array([[900, 800, 300], [900, 800, 300]])
        assert z_from_table(table) == 0.0
        rng = np.random.default_rng(7)
        p = np.tile(np.array([0.45, 0.4, 0.15]), (500, 1))
        tables = np.stack(
            [rng.multinomial(1000, p), rng.multinomial(1000, p)], axis=1
        )
        assert np.median(np.abs(z_from_tables(tables))) < 1.0

    def test_monomorphic_table_gives_zero(self):
        assert z_from_table(np.array([[100, 0, 0], [100, 0, 0]])) == 0.0

    def test_empty_row_rejected(self):
        with pytest.raises(DataError):
            z_from_table(np.array([[0, 0, 0], [10, 5, 2]]))

    def test_null_calibration(self):
        # null design: theta=0, 2000/2000, MAF 0.3
        rng = np.random.default_rng(8)
        m = 100_000
        p_case, p_ctrl = case_control_dose_probs(
            np.zeros(m), np.full(m, 0.3), alpha=-6.0
        )
        tables = np.stack(
            [rng.multinomial(2000, p_case), rng.multinomial(2000, p_ctrl)], axis=1
        )
        z = z_from_tables(tables)
        assert abs(z.mean()) < 0.01
        assert abs(z.var() - 1.0) < 0.02
        zc = z_from_tables_contingency(tables)
        assert abs(zc.mean()) < 0.01
        # the discrete lattice of achievable statistics truncates the extreme
        # left of the quantile transform, costing ~2% variance
        assert abs(zc.var() - 1.0) < 0.03


class TestContingencyZ:
    def test_pearson_statistic_matches_scipy(self):
        rng = np.random.default_rng(9)
        tables = rng.integers(5, 200, size=(20, 2, 3))
        ours = pearson_statistic(tables)
        for k in range(20):
            ref = chi2_contingency(tables[k], correction=False)[0]
            assert ours[k] == pytest.approx(ref, rel=1e-12)

    def test_pearson_statistic_is_the_three_sum_oracle_bit_for_bit(self):
        rng = np.random.default_rng(12)
        tables = rng.integers(0, 3000, size=(20_000, 2, 3))
        tables[:500, :, 1:] = 0  # monomorphic: four expected cells are 0
        tables[500:1000, :, 1] = 0  # one empty dose column
        tables[1000:1100, 1] = 0  # no controls
        design = default_design(n_snps=5000, seed=12)
        simulated = simulate_study(draw_truth(design), design, 0)
        for t in (tables, simulated, tables[[0]], tables[[2000]]):
            stat = pearson_statistic(t)
            assert np.array_equal(stat.view(np.uint64), three_sum_pearson_statistic(t).view(np.uint64))
        with pytest.raises(DataError, match=r"shape \(M, 2, 3\)"):  # a lone table is refused
            pearson_statistic(tables[2000])
        assert np.all(pearson_statistic(tables[:500]) == 0.0)

    @pytest.mark.parametrize("transform", [z_from_tables, z_from_tables_contingency])
    @pytest.mark.parametrize("shape", [(2, 3), (4, 3, 2)], ids=["lone table", "transposed stack"])
    def test_only_stacks_of_2x3_tables_are_taken(self, transform, shape):
        with pytest.raises(DataError, match=r"shape \(M, 2, 3\)"):
            transform(np.ones(shape, dtype=np.int64))

    def test_sign_follows_trend_direction(self):
        rng = np.random.default_rng(10)
        theta = np.full(300, 0.5)
        p_case, p_ctrl = case_control_dose_probs(theta, np.full(300, 0.3), -6.0)
        tables = np.stack(
            [rng.multinomial(2000, p_case), rng.multinomial(2000, p_ctrl)], axis=1
        )
        z = z_from_tables_contingency(tables)
        trend = z_from_tables(tables)
        strong = np.abs(trend) > 1.0
        assert np.all(np.sign(z[strong]) == np.sign(trend[strong]))

    def test_weaker_than_trend_under_dose_alternative(self):
        rng = np.random.default_rng(11)
        theta = np.full(2000, 0.4)
        p_case, p_ctrl = case_control_dose_probs(theta, np.full(2000, 0.3), -6.0)
        tables = np.stack(
            [rng.multinomial(2000, p_case), rng.multinomial(2000, p_ctrl)], axis=1
        )
        assert z_from_tables_contingency(tables).mean() < z_from_tables(tables).mean()

    def test_monomorphic_table_gives_zero(self):
        assert z_from_tables_contingency(np.array([[[100, 0, 0], [100, 0, 0]]]))[0] == 0.0

    def test_matches_a_high_precision_reference(self):
        # 10**7 controls per table; cases move k carriers from the first dose
        # column to the last, so the statistic runs from about 4e-7 to 3e6
        controls = np.array([4_000_000, 4_000_000, 2_000_000])
        k = np.unique(np.round(np.logspace(0, 6.5, 300)).astype(np.int64))
        tables = np.stack([np.stack([controls + [-j, 0, j], controls]) for j in k])
        stat = pearson_statistic(tables)
        z = z_from_tables_contingency(tables)
        assert np.all(np.isfinite(z)) and np.all(np.diff(z) > 0)

        # z solves Phi(-z) = exp(-stat / 2), the chi-square(2) upper tail
        window = (stat >= 1e-6) & (stat <= 1400)
        with mpmath.workdps(30):
            ref = [
                float(mpmath.findroot(lambda x: mpmath.log(mpmath.ncdf(-x)) + s / 2, 1.0))
                for s in map(mpmath.mpf, stat[window])
            ]
        assert_allclose(z[window], ref, rtol=1e-11, atol=0)
        assert z[window].max() > 8.21


class TestPanel:
    def test_simulate_panel_deterministic(self):
        design = default_design(n_snps=300, seed=12)
        a, _ = simulate_panel(design)
        b, _ = simulate_panel(design)
        assert np.array_equal(a.z, b.z)

    def test_statistic_selector(self):
        design = default_design(n_snps=300, seed=13)
        a, _ = simulate_panel(design, statistic="trend")
        b, _ = simulate_panel(design, statistic="contingency")
        assert not np.array_equal(a.z, b.z)
        with pytest.raises(ConfigError):
            simulate_panel(design, statistic="wilcoxon")

    def test_null_panel_pi0_estimate_is_high(self):
        design = cr.SimDesign(
            n_studies=1,
            n_snps=100_000,
            n_cases=2000,
            n_controls=2000,
            config_probs={(0,): 1.0},
            effect_ranges={1: (0.25, 0.5), -1: (-0.5, -0.25)},
            maf_range=(0.05, 0.5),
            alpha=-6.0,
            seed=14,
        )
        panel, _ = simulate_panel(design)
        assert cr.estimate_pi0(panel.z[0]) >= 0.98


class TestEvaluate:
    def make_truth(self, statuses):
        statuses = np.asarray(statuses)
        theta = np.where(statuses > 0, 0.3, np.where(statuses < 0, -0.3, 0.0))
        maf = np.full(statuses.shape, 0.2)
        ids = tuple(f"s{j}" for j in range(statuses.shape[1]))
        return cr.TruthPanel(ids, statuses, theta, maf)

    def test_null_truth_definitions(self):
        statuses = np.array([[1, 1, 0], [1, -1, 0], [0, 0, 0]]).T
        assert null_truth_mask(statuses, NR).tolist() == [False, True, True]
        assert null_truth_mask(statuses, NA).tolist() == [False, False, True]

    def test_no_rejections_has_zero_fdp(self):
        truth = self.make_truth(np.zeros((2, 5), dtype=int))
        metrics = evaluate(np.zeros(5, dtype=bool), truth, NA)
        assert metrics.fdp == 0.0 and metrics.n_rejected == 0

    def test_perfect_rejection_set(self):
        statuses = np.array([[1, 1], [1, 1], [0, 0], [0, -1]]).T
        truth = self.make_truth(statuses)
        rejected = ~null_truth_mask(statuses, NR)
        metrics = evaluate(rejected, truth, NR)
        assert metrics.fdp == 0.0
        assert metrics.power == 1.0
        assert metrics.true_discoveries == int(rejected.sum())

    def test_reordering_invariance(self):
        rng = np.random.default_rng(15)
        statuses = rng.choice([-1, 0, 1], size=(3, 60))
        rejected = rng.random(60) < 0.3
        truth = self.make_truth(statuses)
        base = evaluate(rejected, truth, NR)
        perm = rng.permutation(60)
        truth_p = self.make_truth(statuses[:, perm])
        again = evaluate(rejected[perm], truth_p, NR)
        assert base == again

    def test_mismatched_lengths(self):
        truth = self.make_truth(np.zeros((2, 5), dtype=int))
        with pytest.raises(DataError):
            evaluate(np.zeros(4, dtype=bool), truth, NA)

    def test_status_array_scores_like_its_truth_panel(self):
        rng = np.random.default_rng(21)
        truth = self.make_truth(rng.choice([-1, 0, 1], size=(3, 80)))
        rejected = rng.random(80) < 0.4
        for u in (NA, NR):
            assert evaluate(rejected, truth.statuses, u) == evaluate(rejected, truth, u)

    @pytest.mark.parametrize("shape", [(2, 4), (2, 6), (5,), (1, 2, 5)])
    def test_status_array_of_another_shape_is_rejected(self, shape):
        with pytest.raises(DataError, match="does not match the truth panel"):
            evaluate(np.zeros(5, dtype=bool), np.zeros(shape, dtype=np.int8), NA)

    def test_accepts_discovery_report(self):
        report = cr.fdr_report(np.array([0.0, 1.0, 1.0]), q=0.05)
        truth = self.make_truth(np.array([[1, 0, 0], [1, 0, 0]]))
        metrics = evaluate(report, truth, NA)
        assert metrics.n_rejected == 1
        assert metrics.fdp == 0.0
