"""Start-up cost guards.

crossrep calls the scipy.special ufuncs behind the scipy.stats functions it
needs, because importing scipy.stats costs about a second per command. These
tests keep scipy.stats out of a fresh interpreter and check each replacement
bit for bit against scipy.stats, which only the tests import.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.special import chdtrc, log_ndtr, ndtri
from scipy.stats import chi2, norm

import crossrep
from crossrep.twogroup import normal_pdf
from helpers import concordant_meta_pvalues, fisher_combine


def bits(values):
    return np.asarray(values, dtype=np.float64).view(np.uint64)


# Tails, 0, +-1, |z| >= 38 (where the normal log CDF rounds to 0) and huge values.
Z_GRID = np.concatenate(
    [
        np.linspace(-45.0, 45.0, 1801),
        [0.0, -0.0, 1.0, -1.0, 37.5, 38.0, 38.5, 39.0, 1e3, 1e300, np.finfo(float).max],
        [-37.5, -38.0, -38.5, -39.0, -1e3, -1e300, 5e-324, -5e-324],
        np.random.default_rng(0).normal(scale=10.0, size=2000),
    ]
)
Q_GRID = np.concatenate(
    [
        [0.0, 1.0, 5e-324, 1e-300, 1e-16, 0.25, 0.5, 0.75, 1.0 - 1e-16],
        [np.nextafter(1.0, 0.0), np.nextafter(0.0, 1.0)],
        np.logspace(-300, 0, 601),
        np.linspace(0.0, 1.0, 1001),
    ]
)
X_GRID = np.concatenate(
    [
        [0.0, -0.0, 5e-324, 1e-300, 1.0, 2.0, 1e3, 1e4, 1e300, np.inf],
        np.logspace(-20, 4, 961),
    ]
)


def test_importing_the_cli_does_not_load_scipy_stats():
    src = Path(crossrep.__file__).resolve().parents[1]
    code = "import sys, crossrep, crossrep.cli; print('scipy.stats' in sys.modules)"
    result = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        check=True,
    )
    assert result.stdout.strip() == "False"


def test_ndtri_is_norm_ppf():
    assert np.array_equal(bits(ndtri(Q_GRID)), bits(norm.ppf(Q_GRID)))
    assert type(ndtri(0.25)) is type(norm.ppf(0.25))


def test_log_ndtr_is_norm_logcdf():
    assert np.array_equal(bits(log_ndtr(Z_GRID)), bits(norm.logcdf(Z_GRID)))


@pytest.mark.parametrize("df", [2, 4, 6, 8, 10, 12, 14, 16])
def test_chdtrc_is_chi2_sf(df):
    assert np.array_equal(bits(chdtrc(df, X_GRID)), bits(chi2.sf(X_GRID, df)))


def test_normal_pdf_is_norm_pdf():
    with np.errstate(over="ignore"):  # z**2 overflows to inf at |z| = 1e300
        assert np.array_equal(bits(normal_pdf(Z_GRID)), bits(norm.pdf(Z_GRID)))


def test_meta_pvalues_match_the_scipy_stats_formula():
    z = Z_GRID[: 4 * (Z_GRID.size // 4)].reshape(4, -1)
    z = np.hstack([z, [[np.inf, -np.inf, 40.0, 0.0]] * 4])
    log_left = np.maximum(norm.logcdf(z), np.log(1e-300)).sum(axis=0)
    log_right = np.maximum(norm.logcdf(-z), np.log(1e-300)).sum(axis=0)
    left, right = chi2.sf(-2.0 * log_left, 8), chi2.sf(-2.0 * log_right, 8)
    expected = np.minimum(1.0, 2.0 * np.minimum(left, right))
    assert np.array_equal(bits(concordant_meta_pvalues(z)), bits(expected))
    p = np.array([0.0, 1e-300, 0.5, 1.0])
    assert fisher_combine(p) == float(chi2.sf(-2.0 * np.log(np.maximum(p, 1e-300)).sum(), 8))
