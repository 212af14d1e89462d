import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.stats import norm

from crossrep import (
    ConfigError,
    DataError,
    DegenerateAlternativeError,
    FitError,
    StudyExcludedError,
    TwoGroupFit,
    ZPanel,
    alternative_density,
    bin_panel,
    estimate_marginal_density,
    estimate_pi0,
    fit_panel,
    fit_study,
    local_fdr_single,
    null_bin_density,
    twogroup,
)
from crossrep.twogroup import DEFAULT_EXCLUSION_THRESHOLD, assign_bins


def make_panel(z_rows, ids=None):
    z = np.atleast_2d(np.asarray(z_rows, dtype=float))
    snps = tuple(f"s{j}" for j in range(z.shape[1]))
    studies = ids or tuple(f"study_{i}" for i in range(z.shape[0]))
    return ZPanel(snps, studies, z)


class TestPanelValidation:
    def test_rejects_nonfinite(self):
        with pytest.raises(DataError):
            ZPanel(("a", "b"), ("x",), np.array([[1.0, np.nan]]))

    def test_rejects_duplicate_ids(self):
        with pytest.raises(DataError):
            ZPanel(("a", "a"), ("x",), np.array([[1.0, 2.0]]))

    def test_rejects_shape_mismatch(self):
        with pytest.raises(DataError):
            ZPanel(("a", "b"), ("x",), np.array([[1.0, 2.0], [3.0, 4.0]]))


class TestBinning:
    def test_indices_increase_with_z(self):
        panel = make_panel([np.linspace(-1, 1, 30)])
        binned = bin_panel(panel, 10)
        idx = binned.bin_index[0]
        assert np.all(np.diff(idx) >= 0)
        assert idx[0] == 0 and idx[-1] == 9

    def test_bin_count_guard(self):
        panel = make_panel([np.linspace(-1, 1, 30)])
        with pytest.raises(ConfigError):
            bin_panel(panel, 9)

    def test_bin_count_is_an_integer(self):
        panel = make_panel([np.linspace(-1, 1, 30)])
        with pytest.raises(TypeError):
            bin_panel(panel, 10.0)
        assert bin_panel(panel, np.int64(10)).bin_count == 10

    def test_repeated_value_lands_in_one_bin(self):
        panel = make_panel([np.zeros(20)])
        binned = bin_panel(panel, 10)
        assert len(set(binned.bin_index[0].tolist())) == 1

    def test_edges_cover_all_values(self):
        rng = np.random.default_rng(0)
        panel = make_panel(rng.normal(size=(3, 500)))
        binned = bin_panel(panel, 25)
        for i in range(3):
            assert binned.edges[i, 0] < panel.z[i].min()
            assert binned.edges[i, -1] > panel.z[i].max()
            assert np.all(np.diff(binned.edges[i]) > 0)

    def test_bin_index_is_read_only(self):
        # a fit's likelihood is reused for the very array it was built from
        binned = bin_panel(make_panel(np.random.default_rng(1).normal(size=(2, 50))), 10)
        for panel in (binned, binned.select_studies([1])):
            with pytest.raises(ValueError, match="read-only"):
                panel.bin_index[0, 0] = 1

    def test_boundary_goes_to_lower_bin(self):
        edges = np.array([0.0, 1.0, 2.0, 3.0])
        assert assign_bins(np.array([1.0]), edges)[0] == 0
        assert assign_bins(np.array([2.0]), edges)[0] == 1
        assert assign_bins(np.array([1.5]), edges)[0] == 1
        assert assign_bins(np.array([0.0]), edges)[0] == 0
        assert assign_bins(np.array([3.0]), edges)[0] == 2

    def test_out_of_range_rejected(self):
        with pytest.raises(DataError):
            assign_bins(np.array([4.0]), np.array([0.0, 1.0, 2.0]))


class TestPi0:
    def test_all_central_clamps_to_one(self):
        z = np.full(2000, 0.1)
        assert estimate_pi0(z) == 1.0

    def test_none_central_gives_zero(self):
        z = np.full(2000, 5.0)
        assert estimate_pi0(z) == 0.0

    def test_permutation_invariant(self):
        rng = np.random.default_rng(1)
        z = rng.normal(size=5000)
        assert estimate_pi0(z) == estimate_pi0(z[::-1])

    def test_small_sample_warns(self):
        panel = make_panel([np.random.default_rng(2).normal(size=500)], ("a",))
        message = "study 'a': null-fraction estimate from only 500 z-scores is unstable"
        with pytest.warns(UserWarning, match=message):
            fit_study(panel, bin_panel(panel, 50), 0)

    def test_standard_normal_concentration(self):
        # with M=1e5 null draws the estimate lands in [0.99, 1.0] almost surely
        hits = 0
        for seed in range(20):
            z = np.random.default_rng(seed).normal(size=100_000)
            if 0.99 <= estimate_pi0(z) <= 1.0:
                hits += 1
        assert hits >= 19


class TestMarginalDensity:
    def test_normal_counts_recovered(self):
        centers = np.linspace(-4, 4, 60)
        width = centers[1] - centers[0]
        counts = 1e6 * norm.pdf(centers) * width
        f = estimate_marginal_density(counts, centers, width)
        target = norm.pdf(centers)
        inner = np.abs(centers) <= 3
        assert_allclose(f[inner], target[inner], rtol=0.02)
        assert np.all(f > 0)
        assert abs(f.sum() * width - 1.0) < 1e-9

    def test_uniform_counts_are_flat(self):
        centers = np.linspace(-2, 2, 40)
        width = centers[1] - centers[0]
        f = estimate_marginal_density(np.full(40, 250.0), centers, width)
        assert f.max() / f.min() < 1.1

    def test_bimodal_counts_give_two_modes(self):
        centers = np.linspace(-5, 5, 50)
        width = centers[1] - centers[0]
        dens = 0.5 * norm.pdf(centers, -2, 1) + 0.5 * norm.pdf(centers, 2, 1)
        f = estimate_marginal_density(2e5 * dens * width, centers, width)
        interior = (f[1:-1] > f[:-2]) & (f[1:-1] > f[2:])
        assert interior.sum() == 2

    def test_needs_enough_counts(self):
        centers = np.linspace(-2, 2, 20)
        with pytest.raises(DataError):
            estimate_marginal_density(np.full(20, 2.0), centers, 0.2)

    def test_non_convergence_is_a_fit_error(self, monkeypatch):
        centers = np.linspace(-4, 4, 60)
        width = centers[1] - centers[0]
        counts = 1e6 * norm.pdf(centers) * width
        monkeypatch.setattr(twogroup, "IRLS_MAX_ITER", 1)
        message = r"^Poisson density fit did not converge in 1 iterations$"
        with pytest.raises(FitError, match=message):
            estimate_marginal_density(counts, centers, width)

    def test_failed_least_squares_is_a_fit_error(self):
        # centering these centers overflows, and the least-squares step gets no finite system
        centers = 1.7e308 * np.linspace(-0.5, 1.0, 50)
        counts = np.full(50, 10.0)
        with np.errstate(all="ignore"), pytest.raises(FitError, match="Poisson density fit failed"):
            estimate_marginal_density(counts, centers, centers[1] - centers[0])


class TestAlternativeDensity:
    def test_exact_cancellation_leaves_zero(self):
        centers = np.linspace(-4, 4, 50)
        width = centers[1] - centers[0]
        f0 = null_bin_density(centers, width)
        pi0 = 0.8
        fa_true = np.where(centers > 1, 1.0, 0.0)
        fa_true = fa_true / (fa_true.sum() * width)
        f = pi0 * f0 + (1 - pi0) * fa_true
        fa = alternative_density(f, pi0, centers, width)
        assert np.all(fa[centers <= 1] == 0)
        assert_allclose(fa, fa_true, atol=1e-12)

    def test_pi0_zero_is_identity(self):
        centers = np.linspace(-3, 3, 30)
        width = centers[1] - centers[0]
        f = null_bin_density(centers, width)
        assert_allclose(alternative_density(f, 0.0, centers, width), f, rtol=1e-12)

    def test_symmetric_mixture_oracle(self):
        centers = np.linspace(-6, 6, 120)
        width = centers[1] - centers[0]
        f0 = null_bin_density(centers, width)
        two_comp = 0.5 * norm.pdf(centers, -2.5, 1) + 0.5 * norm.pdf(centers, 2.5, 1)
        f = 0.9 * f0 + 0.1 * two_comp
        fa = alternative_density(f, 0.9, centers, width)
        outer = np.abs(centers) >= 2
        assert_allclose(fa[outer], two_comp[outer], rtol=0.05)

    def test_grid_without_null_mass_is_excluded(self):
        centers = np.linspace(-1e200, 1e200, 50)
        with pytest.raises(StudyExcludedError, match=r"no mass at the bin centers \(nearest center"):
            null_bin_density(centers, centers[1] - centers[0])
        with pytest.raises(StudyExcludedError):
            alternative_density(np.full(50, 0.02), 0.5, centers, centers[1] - centers[0])

    def test_no_alternative_mass_anywhere_is_degenerate(self):
        centers = np.linspace(-3, 3, 30)
        width = centers[1] - centers[0]
        f = 0.5 * null_bin_density(centers, width)  # below pi0 * f0 in every bin
        with pytest.raises(DegenerateAlternativeError, match="vanished everywhere"):
            alternative_density(f, 0.9, centers, width)

    def test_pi0_one_is_excluded(self):
        centers = np.linspace(-3, 3, 30)
        with pytest.raises(StudyExcludedError):
            alternative_density(norm.pdf(centers), 1.0, centers, 0.2)

    def test_remix_reproduces_marginal(self):
        # without clamping, pi0*f0 + (1 - pi0)*fA rebuilds f exactly
        rng = np.random.default_rng(3)
        centers = np.linspace(-5, 5, 80)
        width = centers[1] - centers[0]
        f0 = null_bin_density(centers, width)
        for _ in range(5):
            pi0 = rng.uniform(0.3, 0.95)
            raw = rng.uniform(0.1, 1.0, size=80)
            fa_true = raw / (raw.sum() * width)
            f = pi0 * f0 + (1 - pi0) * fa_true
            fa = alternative_density(f, pi0, centers, width)
            assert_allclose(pi0 * f0 + (1 - pi0) * fa, f, atol=1e-9)


def make_fit(pi0, f_hat, centers, width, study="s"):
    return TwoGroupFit(
        study_id=study,
        pi0_hat=pi0,
        centers=centers,
        width=width,
        f_hat=np.asarray(f_hat, dtype=float),
        fA_hat=None,
        qualifies=pi0 < DEFAULT_EXCLUSION_THRESHOLD,
    )


class TestLocalFdr:
    def test_null_limit_is_one_everywhere(self):
        centers = np.linspace(-4, 4, 40)
        width = centers[1] - centers[0]
        fit = make_fit(1.0, null_bin_density(centers, width), centers, width)
        for b in range(40):
            assert local_fdr_single(b, fit) == 1.0

    def test_strong_signal_bin_is_near_zero(self):
        centers = np.linspace(-4, 4, 40)
        width = centers[1] - centers[0]
        f = null_bin_density(centers, width).copy()
        b = int(np.argmin(np.abs(centers - 3.0)))
        f[b] *= 500
        fit = make_fit(0.9, f, centers, width)
        assert local_fdr_single(b, fit) < 0.01

    def test_mixture_value_matches_arithmetic_oracle(self):
        # fit from counts proportional to 0.9 N(0,1) + 0.1 N(2.5,1); the exact
        # mixture arithmetic at z=3 gives 0.9*phi(3)/(0.9*phi(3)+0.1*phi(0.5));
        # the grid is aligned so 3.0 is a bin center
        centers = np.linspace(-5.0, 6.0, 111)
        width = centers[1] - centers[0]
        mix = 0.9 * norm.pdf(centers) + 0.1 * norm.pdf(centers, 2.5, 1)
        counts = 5e5 * mix * width
        f = estimate_marginal_density(counts, centers, width)
        fit = make_fit(0.9, f, centers, width)
        b = int(np.argmin(np.abs(centers - 3.0)))
        oracle = 0.9 * norm.pdf(3.0) / (0.9 * norm.pdf(3.0) + 0.1 * norm.pdf(0.5))
        assert abs(oracle - 0.10176409235434755) < 1e-12
        assert abs(local_fdr_single(b, fit) - oracle) < 0.02

    def test_monotone_beyond_central_region_one_sided(self):
        centers = np.linspace(-5, 6, 90)
        width = centers[1] - centers[0]
        f0 = null_bin_density(centers, width)
        f = 0.9 * f0 + 0.1 * norm.pdf(centers, 3.0, 1)
        fit = make_fit(0.9, f, centers, width)
        values = [local_fdr_single(b, fit) for b in np.nonzero(centers > 1.0)[0]]
        assert np.all(np.diff(values) <= 1e-12)


class TestQualification:
    """fit_study's exclusion rule, pi0 < threshold, with estimate_pi0 replaced."""

    @pytest.fixture
    def study(self):
        rng = np.random.default_rng(11)
        z = np.concatenate([rng.normal(size=4000), rng.normal(3, 1, 500), rng.normal(-3, 1, 500)])
        panel = make_panel([z])
        return panel, bin_panel(panel, 50)

    @pytest.mark.parametrize(
        "pi0,threshold,reason",
        [
            (0.89, DEFAULT_EXCLUSION_THRESHOLD, None),
            (0.999999999, DEFAULT_EXCLUSION_THRESHOLD,
             "estimated null fraction 1 is at or above 0.999999999"),
            (1.0, DEFAULT_EXCLUSION_THRESHOLD,
             "estimated null fraction 1 is at or above 0.999999999"),
            (0.97, 0.95, "estimated null fraction 0.97 is at or above 0.95"),
            (0.97, 0.99, None),
        ],
    )
    def test_null_fraction_below_the_threshold_qualifies(self, monkeypatch, study, pi0,
                                                         threshold, reason):
        assert 0.999999999 == DEFAULT_EXCLUSION_THRESHOLD  # the second case is the boundary
        monkeypatch.setattr(twogroup, "estimate_pi0", lambda z: pi0)
        fit = fit_study(*study, 0, exclusion_threshold=threshold)
        assert fit.pi0_hat == pi0
        assert fit.qualifies is (reason is None)
        assert fit.exclusion_reason == reason
        assert (fit.fA_hat is None) is (reason is not None)


class TestFitPipeline:
    def test_fit_panel_on_mixture_data(self):
        rng = np.random.default_rng(11)
        z_null = rng.normal(size=(2, 4500))
        z_alt = np.concatenate(
            [rng.normal(3, 1, size=(2, 250)), rng.normal(-3, 1, size=(2, 250))], axis=1
        )
        panel = ZPanel(
            tuple(f"s{j}" for j in range(5000)),
            ("a", "b"),
            np.concatenate([z_null, z_alt], axis=1),
        )
        binned = bin_panel(panel, 50)
        fits = fit_panel(panel, binned)
        for i, fit in enumerate(fits):
            assert 0.0 <= fit.pi0_hat <= 1.0
            assert fit.qualifies
            assert np.all(fit.f_hat > 0)
            assert abs(fit.f_hat.sum() * fit.width - 1.0) < 1e-9
            assert np.all(fit.fA_hat >= 0)
            assert abs(fit.fA_hat.sum() * fit.width - 1.0) < 1e-9

    def test_pure_null_study_is_excluded_with_reason(self):
        rng = np.random.default_rng(5)
        z = rng.uniform(-0.2, 0.2, size=(1, 3000))  # everything central
        panel = ZPanel(tuple(f"s{j}" for j in range(3000)), ("a",), z)
        binned = bin_panel(panel, 50)
        fit = fit_study(panel, binned, 0)
        assert fit.pi0_hat == 1.0
        assert not fit.qualifies
        assert fit.fA_hat is None
        assert "null fraction" in fit.exclusion_reason

    @pytest.mark.parametrize("empty,side", [(1, "z > 0"), (-1, "z < 0")])
    def test_one_sided_alternative_is_excluded_naming_its_side(self, monkeypatch, empty,
                                                                side):
        rng = np.random.default_rng(5)
        panel = make_panel(rng.normal(size=(1, 3000)))
        binned = bin_panel(panel, 50)
        one_sided = (lambda f, pi0, centers, width:
                     np.where(empty * centers > 0, 0.0, 1.0) / (25 * width))
        monkeypatch.setattr(twogroup, "alternative_density", one_sided)
        fit = fit_study(panel, binned, 0, exclusion_threshold=2.0)
        assert not fit.qualifies and fit.fA_hat is None
        assert fit.exclusion_reason == f"alternative density has no mass on {side}"

    def test_pure_null_study_is_excluded_above_threshold_one(self):
        # pi0 = 1 is below a threshold of 2, so the exclusion comes from the
        # missing alternative component instead of the threshold
        rng = np.random.default_rng(5)
        z = np.vstack([rng.normal(size=3000), rng.uniform(-0.2, 0.2, size=3000)])
        panel = make_panel(z, ("ok", "flat"))
        ok, flat = fit_panel(panel, bin_panel(panel, 50), 2.0)
        assert ok.qualifies
        assert flat.pi0_hat == 1.0 and not flat.qualifies and flat.fA_hat is None
        assert flat.exclusion_reason == (
            "estimated null fraction is 1; no alternative component to extract"
        )
