import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.stats import chi2, norm

from crossrep import (
    ConfigError,
    DataError,
    bh_adjust,
    bh_procedure,
    no_association_pvalues,
    no_replicability_pvalues,
)
from crossrep import metap
from crossrep.metap import partial_conjunction_pvalues
from helpers import (
    TIED_UNIT_VALUES,
    concordant_meta_pvalue,
    fisher_combine,
    mpmath_partial_conjunction_pvalue,
    no_association_pvalue,
    no_replicability_pvalue,
    partial_conjunction_pvalue,
    stable_bh_adjust,
    stable_zero_strongest,
    stepup_rejections,
)


class TestFisherCombine:
    def test_single_pvalue_is_identity(self):
        for p in (0.73, 0.05, 1e-8):
            assert fisher_combine([p]) == pytest.approx(p, rel=1e-10)

    def test_all_ones_combine_to_one(self):
        assert fisher_combine([1.0, 1.0, 1.0]) == 1.0

    def test_two_nominal_pvalues_oracle(self):
        # -2*(log .05 + log .05) = 11.9829...; chi-square(4) upper tail
        stat = -2.0 * (np.log(0.05) + np.log(0.05))
        oracle = chi2.sf(stat, 4)
        assert stat == pytest.approx(11.98293, abs=1e-5)
        assert oracle == pytest.approx(0.017498, abs=1e-4)
        assert fisher_combine([0.05, 0.05]) == pytest.approx(oracle, rel=1e-12)

    def test_zero_is_floored(self):
        assert fisher_combine([0.0, 0.5]) == fisher_combine([1e-300, 0.5])

    def test_contract_violations(self):
        with pytest.raises(ValueError):
            fisher_combine([])
        with pytest.raises(ValueError):
            fisher_combine([0.5, 1.2])
        with pytest.raises(ValueError):
            fisher_combine([-0.1])


class TestConcordantMeta:
    def test_two_positive_scores_oracle(self):
        # right tails 0.02275 each; Fisher ~4.44e-3; doubled ~8.88e-3
        right = norm.sf(2.0)
        combined = chi2.sf(-4.0 * np.log(right), 4)
        assert combined == pytest.approx(4.4395e-3, abs=1e-4)
        got = concordant_meta_pvalue([2.0, 2.0])
        assert got == pytest.approx(2 * combined, abs=1e-4)

    def test_strongly_negative_scores_use_left_side(self):
        z = np.array([-4.0, -3.5, -5.0])
        left = chi2.sf(-2.0 * norm.logcdf(z).sum(), 6)
        assert concordant_meta_pvalue(z) == pytest.approx(2 * left, rel=1e-10)

    def test_sign_symmetry_is_exact(self):
        rng = np.random.default_rng(0)
        z = rng.normal(size=(4, 200))
        for pvalues in (no_association_pvalues, no_replicability_pvalues):
            assert np.array_equal(pvalues(z), pvalues(-z))

    def test_capped_at_one(self):
        assert concordant_meta_pvalue([0.0]) == 1.0


class TestNoReplicability:
    def test_single_strong_study_yields_large_pvalue(self):
        # leaving out the strongest study leaves no evidence
        p = no_replicability_pvalue([8.0, 0.1, -0.2])
        assert p > 0.1

    def test_two_studies_reduce_to_max_of_singles(self):
        # per side the weaker study's one-sided p-value: 2 min(max(L1, L2), max(R1, R2))
        for z in ([2.5, 1.0], [-3.0, -2.0], [2.5, -1.0], [0.3, 4.0]):
            z = np.array(z)
            expected = min(1.0, 2.0 * min(norm.cdf(z).max(), norm.sf(z).max()))
            assert no_replicability_pvalues(z[:, None])[0] == pytest.approx(expected, rel=1e-12)

    def test_three_concordant_signals_are_tiny(self):
        assert no_replicability_pvalue([-5.0, -5.0, -5.0]) < 1e-6

    def test_study_permutation_invariance(self):
        rng = np.random.default_rng(1)
        z = rng.normal(size=(5, 300)) + rng.choice([-3.0, 0.0, 3.0], size=(5, 300))
        for pvalues in (no_association_pvalues, no_replicability_pvalues):
            p = pvalues(z)
            for _ in range(5):
                assert_allclose(pvalues(rng.permutation(z, axis=0)), p, rtol=1e-12)

    def test_needs_two_studies(self):
        with pytest.raises(ConfigError, match=r"number of studies \(1\), got u = 2"):
            no_replicability_pvalues(np.array([[1.5, -0.3]]))

    def test_opposite_signals_are_not_replicated(self):
        # (+, -, 0) has one study of each sign, so it is in the null
        assert no_replicability_pvalues(np.array([[6.0], [-6.0], [0.0]]))[0] == 1.0

    @pytest.mark.parametrize("n", range(3, 9))
    def test_valid_under_opposite_signals(self, n):
        # z drawn around (+a, -a, 0, ..., 0), a boundary point of the null
        rng = np.random.default_rng(100 + n)
        reps, a = 4000, 4.0
        centre = np.zeros(n)
        centre[:2] = a, -a
        p = no_replicability_pvalues(centre[:, None] + rng.normal(size=(n, reps)))
        for t in (0.01, 0.05, 0.1):
            slack = 3.0 * np.sqrt(t * (1 - t) / reps) + 1.0 / reps
            assert np.mean(p <= t) <= t + slack


class TestNoAssociation:
    def test_single_study_is_doubled_one_sided(self):
        for z in (1.7, -2.3, 0.4):
            expected = min(1.0, 2 * min(norm.cdf(z), norm.sf(z)))
            assert no_association_pvalue([z]) == pytest.approx(expected, rel=1e-9)

    def test_zero_vector_gives_one(self):
        assert no_association_pvalue([0.0, 0.0, 0.0]) == 1.0

    def test_three_negative_scores_oracle(self):
        # left-sided stat -2*3*log Phi(-3) = 39.646; chi-square(6) tail,
        # doubled: 1.069e-6 (recomputed from the contract's formula)
        stat = -6.0 * norm.logcdf(-3.0)
        assert stat == pytest.approx(39.6463, abs=1e-3)
        oracle = 2.0 * chi2.sf(stat, 6)
        assert oracle == pytest.approx(1.0690e-6, rel=1e-3)
        assert no_association_pvalue([-3.0, -3.0, -3.0]) == pytest.approx(
            oracle, rel=1e-10
        )

    def test_memory_layout_does_not_change_a_bit(self):
        # numpy sums contiguous runs of 8 or more values pairwise, so at
        # n = 8 a feature-major panel would round differently
        rng = np.random.default_rng(8)
        z = rng.normal(size=(8, 2000)) + rng.choice([0.0, 2.5], size=(8, 2000))
        c_order, f_order = np.ascontiguousarray(z), np.asfortranarray(z)
        assert no_association_pvalues(c_order).tobytes() == (
            no_association_pvalues(f_order).tobytes()
        )
        assert no_replicability_pvalues(c_order).tobytes() == (
            no_replicability_pvalues(f_order).tobytes()
        )

    def test_vector_form_matches_scalar(self):
        rng = np.random.default_rng(2)
        for n in range(1, 9):
            z = rng.normal(size=(n, 40)) + rng.choice([-3.0, 0.0, 3.0], size=(n, 40))
            for u, pvalues in ((1, no_association_pvalues), (2, no_replicability_pvalues)):
                if u > n:
                    with pytest.raises(ConfigError):
                        pvalues(z)
                    continue
                expected = [partial_conjunction_pvalue(z[:, j], u) for j in range(40)]
                assert_allclose(pvalues(z), expected, rtol=1e-10)
            for u in range(3, n + 1):
                expected = [partial_conjunction_pvalue(z[:, j], u) for j in range(40)]
                assert_allclose(partial_conjunction_pvalues(z, [u])[0], expected, rtol=1e-10)


class TestBothNulls:
    def test_shared_tails_give_each_null_bit_for_bit(self):
        rng = np.random.default_rng(21)
        z = rng.normal(size=(5, 3000)) + rng.choice([-4.0, 0.0, 4.0], size=(5, 3000))
        z[:, :4] = [[40.0], [-40.0], [np.inf], [0.0], [-0.0]]
        nr, na = partial_conjunction_pvalues(z, [2, 1])
        assert nr.tobytes() == no_replicability_pvalues(z).tobytes()
        assert na.tobytes() == no_association_pvalues(z).tobytes()

    def test_a_null_beyond_the_study_count_fails(self):
        with pytest.raises(ConfigError, match=r"number of studies \(1\), got u = 2"):
            partial_conjunction_pvalues(np.array([[1.5, -0.3]]), [1, 2])
        for u in (0, 4):
            with pytest.raises(ConfigError, match=rf"number of studies \(3\), got u = {u}$"):
                partial_conjunction_pvalues(np.zeros((3, 2)), [u])

    @pytest.mark.parametrize("n", range(3, 9))
    def test_u_minus_one_strong_studies_give_no_small_value_at_u_3(self, n):
        # two studies far out on one side, the rest null: fewer than u = 3 share a sign
        for sign in (1.0, -1.0):
            z = np.zeros((n, 1))
            z[:2] = sign * 40.0
            assert partial_conjunction_pvalues(z, [3])[0][0] == 1.0
        rng = np.random.default_rng(300 + n)
        reps = 4000
        z = rng.normal(size=(n, reps))
        z[:2] += 40.0 * rng.choice([-1.0, 1.0], size=reps)
        (p,) = partial_conjunction_pvalues(z, [3])
        for t in (0.01, 0.05, 0.1):
            slack = 3.0 * np.sqrt(t * (1 - t) / reps) + 1.0 / reps
            assert np.mean(p <= t) <= t + slack


class TestBlocks:
    @staticmethod
    def tied_panel(rng, n, m):
        """Rounded z with repeated rows, equal |z| across studies, +-0 and NaN."""
        z = np.round(rng.normal(scale=2.0, size=(n, m)) + rng.choice([-3.0, 0.0, 3.0], (n, m)))
        z[:, : m // 8] = z[0, : m // 8]
        z[:, m // 8 : m // 4] = np.abs(z[0, m // 8 : m // 4]) * rng.choice([-1.0, 1.0], (n, m // 8))
        z[:, -6:] = [[0.0], [-0.0]] * (n // 2) + [[0.0]] * (n % 2)
        z[rng.integers(0, n, m // 20), rng.integers(0, m, m // 20)] = np.nan
        return z

    @pytest.mark.parametrize("block", [1, 7])
    def test_blocks_do_not_change_a_bit(self, monkeypatch, block):
        rng = np.random.default_rng(40)
        for n in [*range(1, 9), 12]:  # from 8 rows numpy would sum a lone column pairwise
            z = self.tied_panel(rng, n, 64)
            us = range(1, n + 1)
            whole = partial_conjunction_pvalues(z, us)
            assert all(np.isnan(p).any() and np.isfinite(p).any() for p in whole)
            monkeypatch.setattr(metap, "BLOCK", block)
            for panel in (z, np.asfortranarray(z)):
                for got, want in zip(partial_conjunction_pvalues(panel, us), whole):
                    assert got.tobytes() == want.tobytes()
            monkeypatch.undo()

    @pytest.mark.parametrize("n", [*range(2, 9), 12])
    def test_tied_strongest_studies_go_in_study_order(self, n):
        # which of two equal values is zeroed changes the float sum of the rest
        rng = np.random.default_rng([41, n])
        z = self.tied_panel(rng, n, 4000)
        nan = np.isnan(z).any(axis=0)
        us = range(1, n + 1)
        for log_tail in (norm.logcdf(z), norm.logcdf(-z)):
            tied = np.count_nonzero(log_tail == log_tail.min(axis=0), axis=0) > 1
            assert tied.sum() > 500 and nan.any()
            for u in us:
                got, want = log_tail.copy(), log_tail.copy()
                metap._zero_strongest(got, u)
                stable_zero_strongest(want, u)
                assert got[:, ~nan].tobytes() == want[:, ~nan].tobytes()
                assert got[:, nan].tobytes() == log_tail[:, nan].tobytes()
        for p in partial_conjunction_pvalues(z, us):
            assert np.isnan(p[nan]).all() and np.isfinite(p[~nan]).all()

    def test_temporaries_do_not_grow_with_the_panel(self, monkeypatch):
        monkeypatch.setattr(metap, "BLOCK", 1024)
        rng = np.random.default_rng(42)
        held = {}
        for m in (8 * 1024, 64 * 1024):
            z = rng.normal(size=(3, m))
            tracemalloc.start()
            try:
                partial_conjunction_pvalues(z, [1, 2])
                held[m] = tracemalloc.get_traced_memory()[1] - 2 * 8 * m  # less the outputs
            finally:
                tracemalloc.stop()
        assert held[64 * 1024] < held[8 * 1024] + 64 * 1024  # a 3 x M temporary is 1.5 MB


class TestManyStudies:
    def test_150_studies_match_mpmath(self):
        # a plain forward sum of the Fisher tail's y^j / j! overflows from about 94 studies
        rng = np.random.default_rng(150)
        n, per = 150, 8
        signs = rng.choice([-1.0, 1.0], size=(1, per))
        extreme = signs * rng.uniform(20.0, 45.0, size=(n, per))
        extreme[:5, :2] = np.inf * signs[:, :2]
        strong = signs * rng.uniform(2.5, 3.2, size=(n, per))
        moderate = rng.normal(size=(n, per)) + rng.choice([-0.3, 0.0, 0.3], size=(1, per))
        alternating = np.where(np.arange(n) % 2 == 0, 1.0, -1.0)[:, None]
        mixed = alternating * rng.uniform(0.5, 3.0, size=(n, per))
        z = np.hstack([extreme, strong, moderate, mixed])
        for u, pvalues in ((1, no_association_pvalues), (2, no_replicability_pvalues)):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                p = pvalues(z)
            assert np.all((p >= 0.0) & (p <= 1.0))
            exact = np.array([mpmath_partial_conjunction_pvalue(column, u) for column in z.T])
            inside = exact >= 1e-290
            assert inside.sum() >= 3 * per
            assert np.all(np.abs(p[inside] - exact[inside]) <= 1e-12 * exact[inside])
            assert np.all(p[~inside] < 1e-290)


class TestBhProcedure:
    def test_worked_example(self):
        rejected = bh_procedure(np.array([0.001, 0.012, 0.9]), q=0.05)
        assert rejected.tolist() == [True, True, False]

    def test_all_ones_reject_nothing(self):
        assert bh_procedure(np.ones(5), q=0.05).sum() == 0

    def test_boundary_rejects_everything(self):
        m, q = 8, 0.05
        p = np.full(m, q / m)
        assert bh_procedure(p, q).sum() == m

    def test_adjusted_pvalues_agree_with_stepup(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            p = rng.uniform(size=rng.integers(1, 300))
            q = rng.uniform(0.01, 0.3)
            assert np.array_equal(stepup_rejections(p, q), bh_adjust(p) <= q)
        # every p and adjusted p one ulp above q: nothing is rejected
        p = np.full(3, np.nextafter(0.05, 1))
        assert not stepup_rejections(p, 0.05).any() and not (bh_adjust(p) <= 0.05).any()
        # j values at q * j / m, the rest at 1: both sides round p * m / j alike
        for q in (0.01, 0.05, 0.1, 0.2):
            for m in range(1, 60):
                for j in range(1, m + 1):
                    p = np.ones(m)
                    p[:j] = q * j / m
                    assert np.array_equal(stepup_rejections(p, q), bh_adjust(p) <= q)

    @settings(max_examples=300, deadline=None)
    @given(
        p=TIED_UNIT_VALUES
        | st.lists(st.floats(0.0, 1.0), min_size=1, max_size=60)
        | st.lists(st.floats(0.0, 1.0).map(lambda x: x**3), min_size=1, max_size=60),
        q=st.sampled_from([0.001, 0.01, 0.05, 0.1, 0.2, 0.5]),
    )
    def test_rejections_are_the_stepup_definition(self, p, q):
        assert bh_procedure(p, q).tolist() == stepup_rejections(p, q).tolist()

    def test_adjusted_pvalues_are_monotone_in_p(self):
        rng = np.random.default_rng(4)
        p = rng.uniform(size=100)
        adj = bh_adjust(p)
        order = np.argsort(p)
        assert np.all(np.diff(adj[order]) >= -1e-15)
        assert np.all(adj <= 1.0) and np.all(adj >= p - 1e-15)

    @settings(max_examples=300, deadline=None)
    @given(p=TIED_UNIT_VALUES)
    def test_adjusted_pvalues_match_a_stable_sort_bit_for_bit(self, p):
        got, want = bh_adjust(p), stable_bh_adjust(p)
        assert got.view(np.uint64).tolist() == want.view(np.uint64).tolist()

    def test_accepts_a_plain_sequence(self):
        assert bh_procedure([0.01, 0.2], 0.05).tolist() == [True, False]
        assert bh_adjust([0.01, 0.2]).tolist() == [0.02, 0.2]

    def test_validation(self):
        with pytest.raises(ConfigError):
            bh_procedure(np.array([0.5]), q=1.5)
        with pytest.raises(DataError):
            bh_procedure(np.array([0.5, np.nan]), q=0.05)
