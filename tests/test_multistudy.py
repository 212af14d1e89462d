import dataclasses
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.stats import norm

import crossrep as cr
import crossrep.multistudy as ms
from crossrep import (
    ConditionalBinDensities,
    ConfigError,
    ConfigModel,
    DataError,
    DegenerateAlternativeError,
    ModelError,
    build_conditionals,
    em_fit,
    fdr_report,
    local_fdr_panel,
    posterior,
)
from helpers import (
    NA,
    NR,
    TIED_UNIT_VALUES,
    analytic_conditionals,
    config_likelihood,
    dense_em,
    dense_local_fdr,
    flat_study_panel,
    gather_likelihood_matrix,
    grid,
    lexsort_fdr_report,
    local_fdr_set,
    make_binned,
    run_empirical_bayes,
    unique_rows_collapse,
)


def sample_panel_bins(rng, cond, pi, m):
    """Draw configuration indices and bin vectors from a known model."""
    space = cr.enumerate_configurations(cond.n_studies)
    picks = rng.choice(len(space), size=m, p=pi)
    bins = np.empty((cond.n_studies, m), dtype=np.int32)
    b = cond.bin_count
    for i in range(cond.n_studies):
        for s in (-1, 0, 1):
            mask = np.array([space[k][i] == s for k in picks])
            if mask.any():
                bins[i, mask] = rng.choice(
                    b, size=int(mask.sum()), p=cond.probs[i, s + 1]
                )
    return bins, picks


def random_conditionals(rng, n, b):
    """Random conditionals on a shared grid, signed vectors truncated."""
    _, centers, _ = grid(-6.0, 6.0, b)
    probs = rng.dirichlet(np.ones(b), size=(n, 3))
    probs[:, 0, centers >= 0] = 0.0
    probs[:, 2, centers <= 0] = 0.0
    probs /= probs.sum(axis=2, keepdims=True)
    return ConditionalBinDensities(np.tile(centers, (n, 1)), probs)


def random_fit(seed, n, b=8, m=300):
    """A panel drawn from random conditionals and weights, and its EM fit."""
    rng = np.random.default_rng(seed)
    cond = random_conditionals(rng, n, b)
    bins, _ = sample_panel_bins(rng, cond, rng.dirichlet(np.ones(3**n)), m)
    binned = make_binned(bins, b=b)
    return rng, binned, em_fit(binned, cond)


def null_sets(n):
    return [cr.null_subset(u, n) for u in ((NR, NA) if n >= 2 else (NA,))]


class TestBuildConditionals:
    def fits_and_binned(self, fa):
        rng = np.random.default_rng(0)
        z = np.concatenate([rng.normal(0, 1, 2600), rng.normal(2.5, 1, 200), rng.normal(-2.5, 1, 200)])
        panel = cr.ZPanel(tuple(f"s{j}" for j in range(3000)), ("a",), z[None, :])
        binned = cr.bin_panel(panel, 40)
        fits = cr.fit_panel(panel, binned)
        return fits, binned

    def test_symmetric_alternative_mirrors(self):
        _, centers, width = grid(-4, 4, 40)
        fa = 0.5 * norm.pdf(centers, -2.5, 1) + 0.5 * norm.pdf(centers, 2.5, 1)
        fa /= fa.sum() * width
        fit = cr.TwoGroupFit("a", 0.9, centers, width, norm.pdf(centers), fa, True)
        binned = make_binned(np.zeros((1, 10), dtype=int), -4, 4, b=40)
        cond = build_conditionals([fit], binned)
        assert_allclose(cond.probs[0, 2], cond.probs[0, 0][::-1], atol=1e-12)
        assert not cond.probs[0, 2][cond.centers[0] <= 0].any()
        assert not cond.probs[0, 0][cond.centers[0] >= 0].any()

    def test_null_conditional_has_normal_shape(self):
        fits, binned = self.fits_and_binned(None)
        cond = build_conditionals(fits, binned)
        centers = binned.centers[0]
        b0 = int(np.argmin(np.abs(centers)))
        b3 = int(np.argmin(np.abs(centers - 3.0)))
        ratio = cond.probs[0, 1, b0] / cond.probs[0, 1, b3]
        expected = norm.pdf(centers[b0]) / norm.pdf(centers[b3])
        assert_allclose(ratio, expected, rtol=1e-9)

    def test_signed_mass_matches_truncated_mixture_oracle(self):
        # exact symmetric two-component alternative: the mass of the +1
        # conditional above center 1 is the truncated-mixture ratio
        # (phi mass of N(2.5,1) above 1 plus the mirrored sliver) / (above 0)
        _, centers, width = grid(-6, 6, 120)
        fa = 0.5 * norm.pdf(centers, -2.5, 1) + 0.5 * norm.pdf(centers, 2.5, 1)
        fa /= fa.sum() * width
        fit = cr.TwoGroupFit("a", 0.9, centers, width, norm.pdf(centers), fa, True)
        binned = make_binned(np.zeros((1, 10), dtype=int), -6, 6, b=120)
        cond = build_conditionals([fit], binned)
        oracle = (norm.cdf(1.5) + norm.cdf(-3.5)) / (norm.cdf(2.5) + norm.cdf(-2.5))
        got = cond.probs[0, 2][centers > 1.0].sum()
        assert abs(got - oracle) < 0.02
        assert got > 0.9

    def test_fitted_signed_mass_concentrates_in_the_tail(self):
        fits, binned = self.fits_and_binned(None)
        cond = build_conditionals(fits, binned)
        centers = binned.centers[0]
        assert cond.probs[0, 2][centers > 1.0].sum() > 0.8
        assert cond.probs[0, 0][centers < -1.0].sum() > 0.8

    def test_non_qualifying_study_is_refused(self):
        _, centers, width = grid(-4, 4, 40)
        fit = cr.TwoGroupFit("a", 1.0, centers, width, norm.pdf(centers), None, False, "null fraction 1")
        binned = make_binned(np.zeros((1, 5), dtype=int), -4, 4, b=40)
        with pytest.raises(ModelError):
            build_conditionals([fit], binned)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_conditionals_are_refused(self, value):
        cond = analytic_conditionals(2, b=10)
        probs = cond.probs.copy()
        probs[1, 1, 4] = value
        with pytest.raises(DataError, match="must be finite and nonnegative"):
            ConditionalBinDensities(cond.centers, probs)

    def test_one_sided_alternative_is_degenerate(self):
        _, centers, width = grid(-4, 4, 40)
        fa = np.where(centers > 0, norm.pdf(centers, 2.5, 1), 0.0)
        fa /= fa.sum() * width
        fit = cr.TwoGroupFit("a", 0.9, centers, width, norm.pdf(centers), fa, True)
        binned = make_binned(np.zeros((1, 5), dtype=int), -4, 4, b=40)
        with pytest.raises(DegenerateAlternativeError,
                           match="^study 'a': alternative density has no mass on z < 0$"):
            build_conditionals([fit], binned)


PENCIL_COND = ConditionalBinDensities(
    centers=np.array([[-3.0, -1.0, 1.0, 3.0], [-3.0, -1.0, 1.0, 3.0]]),
    probs=np.array(
        [
            [[0.7, 0.3, 0.0, 0.0], [0.1, 0.4, 0.4, 0.1], [0.0, 0.0, 0.3, 0.7]],
            [[0.6, 0.4, 0.0, 0.0], [0.2, 0.3, 0.3, 0.2], [0.0, 0.0, 0.25, 0.75]],
        ]
    ),
)


class TestConfigLikelihood:
    def test_single_study_reduces_to_bin_probability(self):
        cond = ConditionalBinDensities(
            centers=PENCIL_COND.centers[:1], probs=PENCIL_COND.probs[:1]
        )
        assert config_likelihood((1,), (0,), cond) == 0.4
        assert config_likelihood((3,), (1,), cond) == 0.7

    def test_truncation_zeroes_mismatched_sign(self):
        assert config_likelihood((0, 0), (1, 0), PENCIL_COND) == 0.0
        assert config_likelihood((3, 3), (-1, 0), PENCIL_COND) == 0.0

    def test_two_study_product_matches_hand_arithmetic(self):
        # bins (2, 0): study 1 center +1, study 2 center -3
        assert config_likelihood((2, 0), (1, -1), PENCIL_COND) == pytest.approx(
            0.3 * 0.6, abs=1e-15
        )
        assert config_likelihood((2, 0), (0, 0), PENCIL_COND) == pytest.approx(
            0.4 * 0.2, abs=1e-15
        )
        assert config_likelihood((1, 3), (0, 1), PENCIL_COND) == pytest.approx(
            0.4 * 0.75, abs=1e-15
        )


class TestEmFit:
    def test_all_null_data_recovers_null_weight(self):
        rng = np.random.default_rng(4)
        cond = analytic_conditionals(2, b=20)
        pi_true = np.zeros(9)
        pi_true[cr.enumerate_configurations(2).index((0, 0))] = 1.0
        bins, _ = sample_panel_bins(rng, cond, pi_true, 2000)
        model = em_fit(make_binned(bins), cond)
        assert model.pi[cr.enumerate_configurations(2).index((0, 0))] >= 0.99

    def test_trace_monotone_and_simplex(self):
        rng = np.random.default_rng(5)
        cond = analytic_conditionals(2, b=25)
        pi_true = np.full(9, 1 / 9)
        bins, _ = sample_panel_bins(rng, cond, pi_true, 1500)
        model = em_fit(make_binned(bins), cond)
        assert np.all(np.diff(model.em_trace) >= -1e-10)
        assert abs(model.pi.sum() - 1.0) <= 1e-12
        assert np.all(model.pi >= 0)

    def test_small_panel_warns(self):
        cond = analytic_conditionals(2, b=15)
        bins = np.zeros((2, 5), dtype=int)
        bins[:, :] = 7
        with pytest.warns(UserWarning, match="5 features for 9 configurations"):
            with pytest.warns(UserWarning, match="did not converge"):
                em_fit(make_binned(bins), cond, max_iter=5)

    def test_iteration_limit_warns_with_the_last_relative_change(self):
        rng = np.random.default_rng(5)
        cond = analytic_conditionals(2, b=25)
        bins, _ = sample_panel_bins(rng, cond, np.full(9, 1 / 9), 1500)
        message = (
            r"EM did not converge in 3 iterations "
            r"\(last relative change \S+, tolerance 1e-08, "
            r"log-likelihood gap at most (\S+) nats\)$"
        )
        with pytest.warns(UserWarning, match=message) as record:
            model = em_fit(make_binned(bins), cond, max_iter=3)
        assert not model.converged
        (quoted,) = re.search(message, str(record[-1].message)).groups()
        assert quoted == f"{model.em_gap:.3g}"

    def test_certified_gap_bounds_the_distance_to_a_long_run(self):
        rng = np.random.default_rng(1)
        cond = analytic_conditionals(3, b=25)
        bins, _ = sample_panel_bins(rng, cond, rng.dirichlet(np.ones(27)), 1500)
        binned = make_binned(bins)
        status_idx = np.array(cr.enumerate_configurations(3)) + 1
        combos, _, counts = unique_rows_collapse(binned.bin_index)
        like = gather_likelihood_matrix(cond, status_idx, combos)

        def loglik(pi):
            return float(counts @ np.log(pi @ like))

        def lindsay_gap(pi):  # m log max_k g_k with g = like @ (counts / mixture) / m
            return counts.sum() * np.log((like @ (counts / (pi @ like))).max() / counts.sum())

        with pytest.warns(UserWarning, match="EM did not converge"):
            fits = [em_fit(binned, cond, max_iter=3)]
        fits += [em_fit(binned, cond, tol=tol) for tol in (1e-4, 1e-8, 1e-12)]
        long_run = em_fit(binned, cond, tol=0.0)  # runs until L stops changing at all
        fits.append(long_run)
        for fit in fits:
            assert fit.em_gap == pytest.approx(lindsay_gap(fit.pi), rel=1e-9, abs=1e-9)
            assert fit.em_gap >= -1e-9
            assert fit.em_gap >= loglik(long_run.pi) - loglik(fit.pi) - 1e-9
        gaps = [fit.em_gap for fit in fits]
        assert gaps == sorted(gaps, reverse=True)  # a tighter stop never raises it
        assert gaps[-1] < 1e-3

    @pytest.mark.parametrize("tol", [-1.0, float("nan"), float("inf")])
    def test_tolerance_out_of_range_is_a_config_error(self, tol):
        binned = make_binned(np.full((1, 40), 7), b=15)
        with pytest.raises(ConfigError, match="EM tolerance must be finite and at least 0"):
            em_fit(binned, analytic_conditionals(1, b=15), tol=tol)

    def test_iteration_limit_is_a_positive_integer(self):
        binned = make_binned(np.full((1, 40), 7), b=15)
        cond = analytic_conditionals(1, b=15)
        with pytest.raises(ConfigError, match="EM iteration limit must be at least 1, got 0"):
            em_fit(binned, cond, max_iter=0)
        with pytest.raises(TypeError):
            em_fit(binned, cond, max_iter=10.0)

    def test_zero_mixture_names_snp(self):
        # the mixture check em_fit and local_fdr_panel share, on a hand-built model:
        # all mass on +1, but snp_b sits in a negative-center bin
        cond = analytic_conditionals(1, b=15, lo=-6, hi=6)
        model = ConfigModel(np.array([0.0, 0.0, 1.0]), cond)
        binned = make_binned(np.array([[12, 2, 13]], dtype=np.int32), b=15)
        with pytest.raises(ModelError, match="snp_b"):
            local_fdr_panel(binned, model, cr.null_subset(NA, 1), ("snp_a", "snp_b", "snp_c"))


class TestPosterior:
    def test_sums_to_one(self):
        rng = np.random.default_rng(7)
        cond = analytic_conditionals(3, b=20)
        pi = rng.dirichlet(np.ones(27))
        model = ConfigModel(pi, cond)
        for bins in ((0, 5, 19), (10, 10, 10), (3, 18, 9)):
            assert abs(posterior(bins, model).sum() - 1.0) <= 1e-12

    def test_degenerate_weights_pin_the_posterior(self):
        cond = analytic_conditionals(2, b=20)
        pi = np.zeros(9)
        idx = cr.enumerate_configurations(2).index((0, 0))
        pi[idx] = 1.0
        model = ConfigModel(pi, cond)
        for bins in ((0, 0), (19, 19), (10, 3)):
            post = posterior(bins, model)
            assert post[idx] == 1.0
            assert post.sum() == 1.0

    def test_zero_normalizer_is_a_model_error(self):
        cond = analytic_conditionals(1, b=20)
        pi = np.array([0.0, 0.0, 1.0])  # all weight on +1
        model = ConfigModel(pi, cond)
        with pytest.raises(ModelError, match="normalizer"):
            posterior((0,), model)  # negative-center bin under a +1-only model

    def test_matches_pencil_and_paper_bayes_rule(self):
        pi = np.array([0.05, 0.1, 0.05, 0.1, 0.4, 0.1, 0.05, 0.1, 0.05])
        model = ConfigModel(pi, PENCIL_COND)
        space = cr.enumerate_configurations(2)
        for bins in ((2, 0), (0, 0), (3, 3), (1, 2)):
            manual = np.array(
                [
                    pi[k]
                    * PENCIL_COND.probs[0, h[0] + 1, bins[0]]
                    * PENCIL_COND.probs[1, h[1] + 1, bins[1]]
                    for k, h in enumerate(space)
                ]
            )
            manual /= manual.sum()
            assert_allclose(posterior(bins, model), manual, atol=1e-12)


class TestLocalFdrSet:
    def make_model(self, seed=8):
        rng = np.random.default_rng(seed)
        cond = analytic_conditionals(2, b=20)
        pi = rng.dirichlet(np.ones(9))
        return ConfigModel(pi, cond)

    def test_subset_monotonicity(self):
        model = self.make_model()
        na = cr.null_subset(NA, 2)
        nr = cr.null_subset(NR, 2)
        for bins in ((0, 0), (5, 14), (19, 19), (10, 10)):
            assert local_fdr_set(bins, model, na) <= local_fdr_set(bins, model, nr) + 1e-15

    def test_panel_vector_matches_scalar(self):
        model = self.make_model(9)
        nr = cr.null_subset(NR, 2)
        rng = np.random.default_rng(10)
        bins = rng.integers(0, 20, size=(2, 50)).astype(np.int32)
        vec = local_fdr_panel(make_binned(bins), model, nr)
        for j in range(50):
            assert abs(vec[j] - local_fdr_set(bins[:, j], model, nr)) <= 1e-12

    def test_study_count_mismatch(self):
        model = self.make_model()
        with pytest.raises(DataError):
            local_fdr_set((0, 0), model, cr.null_subset(NA, 3))


class TestCollapsedLikelihood:
    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(1, 8),
        m=st.integers(1, 300),
        b=st.integers(1, 60),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(n=1, m=200, b=40, seed=0)
    @example(n=8, m=200, b=1, seed=1)  # every feature in one bin
    @example(n=8, m=300, b=400, seed=2)  # 400**8 overflows an int64 key
    def test_collapse_matches_unique_rows(self, n, m, b, seed):
        bin_index = np.random.default_rng(seed).integers(0, b, size=(n, m)).astype(np.int32)
        got = ms._collapse_bins(bin_index)
        for have, want in zip(got, unique_rows_collapse(bin_index)):
            assert have.dtype == want.dtype
            assert np.array_equal(have, want)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_khatri_rao_build_is_bit_identical_to_gather(self, n, seed):
        rng = np.random.default_rng(seed)
        cond = random_conditionals(rng, n, 9)
        combos, _, _ = ms._collapse_bins(rng.integers(0, 9, size=(n, 500)))
        status_idx = ms._status_index_matrix(cr.enumerate_configurations(n))
        like = ms._likelihood_matrix(cond, status_idx, combos)
        assert like.flags.c_contiguous
        assert np.array_equal(like, gather_likelihood_matrix(cond, status_idx, combos))

    def test_status_rows_out_of_order_are_refused(self):
        cond = analytic_conditionals(2, b=10)
        status_idx = ms._status_index_matrix(cr.enumerate_configurations(2))[::-1]
        with pytest.raises(ModelError, match="lexicographic"):
            ms._likelihood_matrix(cond, status_idx, np.zeros((1, 2), dtype=np.int32))

    @pytest.mark.parametrize("n,k", [(2, 27), (3, 9), (2, 3)])
    def test_weights_must_cover_the_conditionals_configurations(self, n, k):
        with pytest.raises(ModelError, match=rf"{k} configuration probabilities for {n} studies"):
            ConfigModel(np.full(k, 1 / k), analytic_conditionals(n, b=10))

    def test_space_is_the_lexicographic_enumeration(self):
        model = ConfigModel(np.full(27, 1 / 27), analytic_conditionals(3, b=10))
        assert model.n_studies == 3
        assert model.space == cr.enumerate_configurations(3)
        assert model.space.index((0, 0, 0)) == 13

    @pytest.mark.filterwarnings("ignore:\\d+ features for")
    @pytest.mark.parametrize("n", range(1, 9))
    @settings(max_examples=4, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_fit_and_reports_match_the_gather_path(self, n, seed):
        _, binned, model = random_fit(seed, n)
        cond = model.conditionals
        pi, trace = dense_em(binned, cond)
        assert model.n_iter == trace.size
        assert_allclose(model.pi, pi, rtol=0, atol=1e-12)
        for ns in null_sets(n):
            lf = local_fdr_panel(binned, model, ns)
            ref = dense_local_fdr(binned, cond, pi, ns)
            assert_allclose(lf, ref, rtol=0, atol=1e-12)
            # fdr_report ties only equal floats, so features within rounding of
            # either threshold (e.g. lf = 1 against 1 - 1 ulp) may go either way
            for q in (0.01, 0.05, 0.3):
                got, want = fdr_report(lf, q), fdr_report(ref, q)
                edge = (np.abs(ref - got.t_hat) <= 1e-12) | (np.abs(ref - want.t_hat) <= 1e-12)
                assert np.array_equal(got.rejected[~edge], want.rejected[~edge])
        status_idx = ms._status_index_matrix(model.space)
        for j in range(3):
            column = gather_likelihood_matrix(cond, status_idx, binned.bin_index[:, j : j + 1].T)
            weights = model.pi * column[:, 0]
            assert_allclose(
                posterior(binned.bin_index[:, j], model), weights / weights.sum(), rtol=0, atol=1e-12
            )

    def test_fit_and_both_reports_build_the_likelihood_once(self, monkeypatch):
        calls = []
        build = ms._sign_sparse
        monkeypatch.setattr(ms, "_sign_sparse", lambda *args: calls.append(1) or build(*args))
        rng, binned, model = random_fit(7, 3)
        for ns in null_sets(3):
            local_fdr_panel(binned, model, ns)
        assert len(calls) == 1
        other = make_binned(rng.permutation(binned.bin_index, axis=1), b=8)
        local_fdr_panel(other, model, null_sets(3)[0])
        assert len(calls) == 2
        # an equal but distinct panel is rebuilt, once, to the same bits
        same = make_binned(binned.bin_index.copy(), b=8)
        assert same.bin_index is not binned.bin_index and model.likelihood.bin_index is binned.bin_index
        for ns in null_sets(3):
            want = local_fdr_panel(binned, model, ns)
            assert local_fdr_panel(same, model, ns).tobytes() == want.tobytes()
        assert len(calls) == 2 + len(null_sets(3))

    def test_fit_and_reports_never_allocate_the_full_likelihood(self):
        rng = np.random.default_rng(8)
        n, m = 8, 10_000
        cond = random_conditionals(rng, n, 8)
        binned = make_binned(rng.integers(0, 8, size=(n, m)), b=8)
        u = len(ms._collapse_bins(binned.bin_index)[2])
        assert 3**n * u * 8 > 500 * 2**20  # the full likelihood
        dense_right = 3 ** ((n + 1) // 2) * u * 8  # the right factor of the 3**n halves
        tracemalloc.start()
        try:
            with pytest.warns(UserWarning, match="did not converge"):
                model = em_fit(binned, cond, max_iter=3)
            for ns in null_sets(n):
                local_fdr_panel(binned, model, ns)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < dense_right

    def test_untruncated_conditionals_are_refused(self):
        cond = analytic_conditionals(2, b=10)
        probs = cond.probs.copy()
        probs[1, 2] = probs[1, 0] = np.full(10, 0.1)
        cond = ConditionalBinDensities(cond.centers, probs)
        binned = make_binned(np.zeros((2, 20), dtype=np.int32), b=10)
        message = r"study 1 are not truncated: .* at bin 0 \(center -5\.4\)"
        with pytest.raises(DataError, match=message):
            em_fit(binned, cond)
        model = ConfigModel(np.full(9, 1 / 9), cond)
        with pytest.raises(DataError, match=message):
            local_fdr_panel(binned, model, cr.null_subset(NA, 2))
        with pytest.raises(DataError, match=message):
            posterior((0, 0), model)

    def test_one_study_has_an_empty_left_half(self):
        cond = analytic_conditionals(1, b=10)
        combos = np.arange(10, dtype=np.int32)[:, None]
        like = ms._sign_sparse(cond, combos)
        assert like.left.shape == (1, like.right.shape[1]) and np.all(like.left == 1.0)
        assert like.right.shape[0] == 2
        assert np.issubdtype(like.table.dtype, np.integer)
        dense = ms._likelihood_matrix(cond, ms._status_index_matrix(cr.enumerate_configurations(1)), combos)
        pi = np.array([0.2, 0.5, 0.3])
        assert_allclose(ms._mixture(like, pi), pi @ dense, rtol=0, atol=1e-15)
        assert_allclose(ms._direction(like, np.ones(10)), dense.sum(axis=1), rtol=0, atol=1e-15)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_certain_nulls_get_local_fdr_exactly_one(self, seed):
        # a feature with z > 0 in one study and z < 0 in the other shares no sign
        _, binned, model = random_fit(seed, 2)
        ns = cr.null_subset(NR, 2)
        status_idx = ms._status_index_matrix(model.space)
        like = gather_likelihood_matrix(model.conditionals, status_idx, binned.bin_index.T)
        outside = np.setdiff1d(np.arange(len(model.space)), ns.members)
        certain = ~np.any(like[outside] > 0, axis=0)
        assert certain.any()
        lf = local_fdr_panel(binned, model, ns)
        assert np.all(lf[certain] == 1.0)

    @settings(max_examples=25, deadline=None)
    @given(n=st.integers(2, 3), seed=st.integers(0, 2**32 - 1))
    def test_local_fdr_is_invariant_to_feature_order(self, n, seed):
        rng, binned, model = random_fit(seed, n)
        perm = rng.permutation(binned.n_snps)
        shuffled = make_binned(binned.bin_index[:, perm], b=8)
        for ns in null_sets(n):
            lf = local_fdr_panel(binned, model, ns)
            assert np.array_equal(local_fdr_panel(shuffled, model, ns), lf[perm])

    @settings(max_examples=25, deadline=None)
    @given(n=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
    def test_cached_likelihood_is_not_reused_for_another_panel(self, n, seed):
        rng, binned, model = random_fit(seed, n)
        other = make_binned(rng.integers(0, 8, size=binned.bin_index.shape), b=8)
        uncached = dataclasses.replace(model)
        assert model.likelihood is not None and uncached.likelihood is None
        for ns in null_sets(n):
            assert np.array_equal(
                local_fdr_panel(other, model, ns), local_fdr_panel(other, uncached, ns)
            )


class TestModelInvariances:
    """The model has no study order and no preferred sign.

    Panels are simulated from a seed rather than drawn as raw z values, so
    no value sits on a bin edge, where mirrored or reordered grids may
    round a value into the neighbouring bin.
    """

    @staticmethod
    def local_fdrs(panel):
        reports, included, _ = run_empirical_bayes(panel)
        return {label: rep.local_fdr for label, rep in reports.items()}, included

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(1, 10_000), order=st.permutations(range(3)))
    def test_local_fdr_is_invariant_to_study_order(self, seed, order):
        panel, _ = cr.simulate_panel(cr.default_design(4000, seed=seed))
        lf, included = self.local_fdrs(panel)
        reordered = cr.ZPanel(
            panel.snp_ids, [panel.study_ids[i] for i in order], panel.z[order]
        )
        lf_reordered, included_reordered = self.local_fdrs(reordered)
        assert sorted(order[i] for i in included_reordered) == included
        assert set(lf) == set(lf_reordered) and "na" in lf
        for label in lf:
            assert_allclose(lf_reordered[label], lf[label], rtol=0, atol=1e-9)

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(1, 10_000))
    def test_local_fdr_is_invariant_to_a_sign_flip(self, seed):
        panel, _ = cr.simulate_panel(cr.default_design(4000, seed=seed))
        lf, included = self.local_fdrs(panel)
        flipped = cr.ZPanel(panel.snp_ids, panel.study_ids, -panel.z)
        lf_flipped, included_flipped = self.local_fdrs(flipped)
        assert included_flipped == included
        assert set(lf) == set(lf_flipped) and "na" in lf
        for label in lf:
            assert_allclose(lf_flipped[label], lf[label], rtol=0, atol=1e-9)


def panel_with_a_flat_study(m=4000, seed=3):
    """A simulated three-study panel whose middle study is replaced by one that cannot qualify."""
    panel, _ = cr.simulate_panel(cr.default_design(m, seed=seed))
    z = panel.z.copy()
    z[1] = np.random.default_rng(seed).uniform(-0.3, 0.3, size=m)
    return cr.ZPanel(panel.snp_ids, panel.study_ids, z)


def readme_library_code() -> str:
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


class TestAnalyze:
    def test_matches_the_hand_wired_pipeline_bit_for_bit(self):
        panel = panel_with_a_flat_study()
        binned = cr.bin_panel(panel, cr.twogroup.DEFAULT_BIN_COUNT)
        fits = cr.fit_panel(panel, binned, cr.twogroup.DEFAULT_EXCLUSION_THRESHOLD)
        included = [i for i, fit in enumerate(fits) if fit.qualifies]
        assert included == [0, 2]
        sub = binned.select_studies(included)
        cond = build_conditionals([fits[i] for i in included], sub)
        model = em_fit(sub, cond, snp_ids=panel.snp_ids)
        reports = {}
        for label, u in (("nr", NR), ("na", NA)):
            null_set = cr.null_subset(u, len(included))
            lf = local_fdr_panel(sub, model, null_set, panel.snp_ids)
            reports[label] = fdr_report(lf, 0.05, null_set)

        got = cr.analyze(binned, fits, {"nr": NR, "na": NA}, 0.05, snp_ids=panel.snp_ids)
        assert got.included == included
        for attr in ("pi", "em_trace"):
            assert getattr(got.model, attr).tobytes() == getattr(model, attr).tobytes()
        assert list(got.reports) == ["nr", "na"]
        for label, report in reports.items():
            for attr in ("local_fdr", "fdr_estimate", "rejected"):
                assert getattr(got.reports[label], attr).tobytes() == getattr(report, attr).tobytes()
            assert got.reports[label].hypothesis == report.hypothesis
            assert got.reports[label].t_hat == report.t_hat

    def test_too_few_qualifying_studies_is_refused_before_em(self, monkeypatch):
        panel = flat_study_panel()
        binned = cr.bin_panel(panel, 50)
        fits = cr.fit_panel(panel, binned)

        def no_em(*args, **kwargs):
            raise AssertionError("EM ran")

        monkeypatch.setattr(ms, "em_fit", no_em)
        with pytest.raises(ModelError, match="the nr analysis needs at least u = 2 qualifying "
                                             "studies, got 1"):
            cr.analyze(binned, fits, {"nr": NR, "na": NA}, 0.05)

    def test_em_fit_gets_the_panel_by_position_and_the_options_by_keyword(self, monkeypatch):
        # an outside timer re-runs each em_fit call as em_fit(*args, **{**kwargs, "max_iter": 1})
        calls = []

        def recording_em_fit(*args, **kwargs):
            calls.append((args, kwargs))
            return em_fit(*args, **kwargs)

        monkeypatch.setattr(ms, "em_fit", recording_em_fit)
        panel = panel_with_a_flat_study(m=2000)
        binned = cr.bin_panel(panel, 50)
        cr.analyze(binned, cr.fit_panel(panel, binned), {"na": NA}, 0.05, tol=1e-7,
                   max_iter=400, snp_ids=panel.snp_ids)
        [(args, kwargs)] = calls
        assert isinstance(args[0], cr.BinnedPanel) and args[0].n_studies == 2
        assert kwargs == {"tol": 1e-7, "max_iter": 400, "snp_ids": panel.snp_ids}
        with pytest.warns(UserWarning, match="EM did not converge in 1 iterations"):
            assert em_fit(*args, **{**kwargs, "max_iter": 1}).n_iter == 1

    def test_readme_library_example_runs(self, capsys):
        code = readme_library_code()
        namespace = {}
        exec(code, namespace)
        assert namespace["included"] == [0, 1, 2]
        assert list(namespace["reports"]) == ["nr", "na"]
        assert [line.split()[0] for line in capsys.readouterr().out.splitlines()] == ["nr", "na"]

        # the same calls on a panel where one study is excluded
        *setup, calls = code.split("\n\n")
        assert "panel, truth =" in setup[-1] and "nulls =" in setup[-1]
        namespace = {"cr": cr, "panel": flat_study_panel(), "nulls": {"na": NA}}
        exec(calls, namespace)
        assert namespace["included"] == [0]
        assert namespace["reports"]["na"].n_rejected > 0
        namespace["nulls"] = {"nr": NR, "na": NA}
        with pytest.raises(ModelError, match="the nr analysis needs at least u = 2"):
            exec(calls, namespace)


# local FDR vectors with many exact ties and values at 0 and 1
LOCAL_FDRS = st.lists(
    st.one_of(st.floats(0.0, 1.0), st.sampled_from([0.0, 0.01, 0.02, 0.05, 0.5, 1.0])),
    min_size=1,
    max_size=60,
)


class TestFdrReport:
    def test_running_mean_example(self):
        report = fdr_report(np.array([0.01, 0.02, 0.20]), q=0.05)
        assert_allclose(report.fdr_estimate, [0.01, 0.015, np.mean([0.01, 0.02, 0.20])])
        assert report.t_hat == 0.02
        assert report.n_rejected == 2
        assert report.rejected.tolist() == [True, True, False]

    def test_all_ones_rejects_nothing(self):
        report = fdr_report(np.ones(10), q=0.05)
        assert report.n_rejected == 0
        assert report.t_hat == 0.0

    def test_all_zeros_rejects_everything(self):
        report = fdr_report(np.zeros(7), q=0.05)
        assert report.n_rejected == 7
        assert np.all(report.fdr_estimate == 0.0)

    def test_ties_share_the_last_rank_value(self):
        lf = np.array([0.02, 0.01, 0.02, 0.30])
        report = fdr_report(lf, q=0.016)
        # the tied 0.02s share the mean at the last tied rank
        tied = report.fdr_estimate[lf == 0.02]
        assert tied[0] == tied[1] == pytest.approx((0.01 + 0.02 + 0.02) / 3)
        assert report.n_rejected == 1
        assert report.rejected.tolist() == [False, True, False, False]

    def test_rejection_consistency_invariants(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            lf = rng.uniform(0, 1, size=rng.integers(1, 200))
            q = rng.uniform(0.01, 0.5)
            report = fdr_report(lf, q)
            assert np.array_equal(report.rejected, lf <= report.t_hat) or report.n_rejected == 0
            assert np.array_equal(report.rejected, report.fdr_estimate <= q)
            order = np.argsort(lf, kind="stable")
            assert np.all(np.diff(report.fdr_estimate[order]) >= -1e-15)

    @settings(max_examples=200, deadline=None)
    @given(lf=LOCAL_FDRS, q=st.floats(0.001, 0.999), seed=st.integers(0, 2**32 - 1))
    # the float running mean of these dips below 0.1 at rank 5
    @example(lf=[0.1] * 4 + [0.10000000000000002] * 3, q=0.5, seed=0)
    # zeros of both signs: t_hat's bits must not follow feature order
    @example(lf=[0.0, -0.0, 0.0, -0.0, 1.0], q=0.05, seed=3)
    def test_report_properties(self, lf, q, seed):
        lf = np.array(lf)
        report = fdr_report(lf, q)
        est = report.fdr_estimate
        # non-decreasing in local FDR, ties sharing one value
        order = np.argsort(lf, kind="stable")
        assert np.all(np.diff(est[order]) >= 0)
        for value in np.unique(lf):
            assert np.unique(est[lf == value]).size == 1
        assert np.array_equal(report.rejected, lf <= report.t_hat)
        if report.n_rejected:
            assert lf[report.rejected].mean() <= q + 1e-12
        perm = np.random.default_rng(seed).permutation(lf.size)
        shuffled = fdr_report(lf[perm], q)
        assert np.float64(shuffled.t_hat).view(np.uint64) == np.float64(report.t_hat).view(np.uint64)
        assert np.array_equal(shuffled.fdr_estimate, est[perm])
        assert np.array_equal(shuffled.rejected, report.rejected[perm])

    @settings(max_examples=300, deadline=None)
    @given(lf=TIED_UNIT_VALUES, q=st.sampled_from([0.01, 0.05, 0.5]))
    @example(lf=[1.0, 1.0, 0.0, -0.0], q=0.05)  # t_hat is +0: -0 reads as +0
    def test_ties_match_a_lexsort_ranking_bit_for_bit(self, lf, q):
        report = fdr_report(lf, q)
        estimate, t_hat, rejected = lexsort_fdr_report(lf, q)
        assert report.fdr_estimate.view(np.uint64).tolist() == estimate.view(np.uint64).tolist()
        assert np.float64(report.t_hat).view(np.uint64) == np.float64(t_hat).view(np.uint64)
        assert report.rejected.tolist() == rejected.tolist()

    def test_q_validation(self):
        with pytest.raises(ConfigError):
            fdr_report(np.array([0.1]), q=0.0)
        with pytest.raises(ConfigError):
            fdr_report(np.array([0.1]), q=1.0)

    def test_local_fdr_validation(self):
        with pytest.raises(DataError):
            fdr_report(np.array([0.1, 1.5]), q=0.05)
        with pytest.raises(DataError):
            fdr_report(np.array([]), q=0.05)


class TestBinCountStability:
    def test_rejection_sets_agree_across_bin_counts(self):
        # well-separated signal: the level-0.05 rejection sets at B=50 and
        # B=120 agree on nearly every feature
        rng = np.random.default_rng(21)
        m = 4000
        space = cr.enumerate_configurations(2)
        d = {(0, 0): 0.9, (1, 1): 0.04, (-1, -1): 0.03, (1, 0): 0.02, (0, 1): 0.01}
        pi_true = np.array([d.get(h, 0.0) for h in space])
        picks = rng.choice(len(space), size=m, p=pi_true)
        statuses = np.array(space, dtype=np.int8).T[:, picks]
        magnitude = np.abs(rng.normal(4.0, 0.8, statuses.shape))
        z = np.where(statuses == 0, rng.normal(0, 1, statuses.shape), magnitude * statuses)
        panel = cr.ZPanel(tuple(f"s{j}" for j in range(m)), ("a", "b"), z)
        sets = {}
        for b in (50, 120):
            binned = cr.bin_panel(panel, b)
            fits = cr.fit_panel(panel, binned)
            cond = build_conditionals(fits, binned)
            model = em_fit(binned, cond, snp_ids=panel.snp_ids)
            nr = cr.null_subset(NR, 2)
            lf = local_fdr_panel(binned, model, nr, panel.snp_ids)
            sets[b] = fdr_report(lf, 0.05, nr).rejected
        union = sets[50] | sets[120]
        disagree = (sets[50] ^ sets[120]).sum()
        assert union.sum() > 100
        # only features sitting on the threshold may flip between grids
        assert disagree <= 0.05 * union.sum()
