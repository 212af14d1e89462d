"""The reference analyses in helpers that the acceptance criteria rely on."""

import numpy as np
import pytest

import crossrep as cr
from crossrep import DataError
from helpers import (
    NR,
    analytic_conditionals,
    composition_count,
    empirical_conditionals,
    make_binned,
    oracle_report,
    simplex_grid_search,
)


class TestOracleReport:
    def test_all_null_truth_rejects_nothing(self):
        bins = np.tile(np.arange(20, dtype=np.int32), (2, 1))
        binned = make_binned(bins)
        truth = np.zeros((2, 20), dtype=int)
        pi = np.zeros(9)
        pi[cr.enumerate_configurations(2).index((0, 0))] = 1.0
        report = oracle_report(binned, truth, pi, cr.null_subset(NR, 2), q=0.05)
        assert np.all(report.local_fdr == 1.0)
        assert report.n_rejected == 0

    def test_empirical_frequencies_converge_to_model(self):
        rng = np.random.default_rng(12)
        cond = analytic_conditionals(1, b=30)
        m = 100_000
        # every snp null in the single study; bins drawn from the null conditional
        bins = rng.choice(30, size=(1, m), p=cond.probs[0, 1]).astype(np.int32)
        truth = np.zeros((1, m), dtype=int)
        emp = empirical_conditionals(make_binned(bins, b=30), truth)
        assert np.max(np.abs(emp.probs[0, 1] - cond.probs[0, 1])) < 0.01
        # statuses absent from the data fall back to the truncated normal
        centers = emp.centers[0]
        assert np.all(emp.probs[0, 2][centers <= 0] == 0)
        assert abs(emp.probs[0, 2].sum() - 1.0) < 1e-12

    def test_truth_shape_validation(self):
        bins = np.zeros((2, 10), dtype=np.int32)
        with pytest.raises(DataError):
            oracle_report(
                make_binned(bins),
                np.zeros((2, 9), dtype=int),
                np.full(9, 1 / 9),
                cr.null_subset(NR, 2),
                0.05,
            )


def grid_instance(rng, k):
    """A random (like, counts, pi_star) with K = k; about every fifth likelihood is 0.

    Half of the instances take pi_star from 200 EM steps, so the bounds are
    tight near the optimum; the rest take a random interior point.
    """
    u = int(rng.integers(1, 13))
    like = rng.exponential(size=(k, u)) * (rng.uniform(size=(k, u)) < 0.8)
    like[rng.integers(k, size=u), np.arange(u)] += 0.1  # every column has mass
    counts = rng.integers(1, 50, size=u).astype(float)
    pi = rng.dirichlet(np.ones(k))
    if rng.uniform() < 0.5:
        for _ in range(200):
            pi = pi * (like @ (counts / (pi @ like))) / counts.sum()
    return like, counts, pi


class TestSimplexGridSearch:
    @pytest.mark.parametrize("k", range(2, 10))
    def test_pruned_search_finds_the_enumerated_maximum(self, k):
        rng = np.random.default_rng(100 + k)
        for _ in range(40):
            like, counts, pi = grid_instance(rng, k)
            steps = int(rng.integers(1, 30 if k < 5 else 8))
            full, n_exact, n_total = simplex_grid_search(like, counts, pi, steps, slack=np.inf)
            assert n_exact == n_total == composition_count(steps, k)
            for slack in (0.0, 1e-3, 0.5):
                best, n_exact, n_total = simplex_grid_search(like, counts, pi, steps, slack)
                assert n_total == composition_count(steps, k)
                assert 1 <= n_exact <= n_total
                # the same vector scored in a batch of another shape may move by an ulp
                assert best == full or abs(best - full) <= 1e-12 * abs(full)
