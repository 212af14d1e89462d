"""The reference analyses in helpers that the acceptance criteria rely on."""

import numpy as np
import pytest

import crossrep as cr
from crossrep import DataError
from helpers import NR, analytic_conditionals, empirical_conditionals, make_binned, oracle_report


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
