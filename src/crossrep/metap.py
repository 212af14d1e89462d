"""Directional meta-analysis p-values and the step-up FDR comparator.

A null of u says that fewer than u studies share a sign (u = 1: no
association, u = 2: no replicability, 1 <= u <= n). Each is tested by the
directional partial-conjunction p-value of Benjamini & Heller (2008,
Biometrics 64:1215): per side, Fisher-combine the n - u + 1 largest
one-sided study p-values, then double the smaller side, capped at 1. No
u - 1 studies, whatever their signs, give a small value on their own.
Among tied strongest studies the first in study order is left out.
Rejections use the Benjamini-Hochberg step-up rule.
"""

from __future__ import annotations

from functools import reduce
from math import erfc, lgamma

import numpy as np

from .configspace import checked_u
from .errors import DataError, fdr_level

P_FLOOR = 1e-300
BLOCK = 1 << 16  # features per block of partial-conjunction p-values


def _checked(p) -> np.ndarray:
    """p as a float vector, checking it is 1-d with every value in [0, 1]."""
    values = np.asarray(p, dtype=float)
    if values.ndim != 1:
        raise DataError("p-values must form a 1-d vector")
    if np.any(~np.isfinite(values)) or np.any(values < 0) or np.any(values > 1):
        raise DataError("p-values must lie in [0, 1]")
    return values


def _even_chi2_tail(k: int, y: np.ndarray) -> np.ndarray:
    """Chi-square upper tail at 2y with 2k degrees of freedom: e^-y sum_{j<k} y^j / j!.

    Summed in log space relative to the largest term: no term over- or underflows.
    """
    log_factorials = np.array([lgamma(j + 1.0) for j in range(1, k)])[:, None]
    with np.errstate(divide="ignore"):  # y = 0 leaves the j = 0 term alone
        log_terms = np.arange(1, k)[:, None] * np.log(y) - log_factorials
    top = log_terms.max(axis=0, initial=0.0)
    log_terms -= top
    terms = reduce(np.add, np.exp(log_terms, out=log_terms), 0.0)  # row by row, as in the caller
    return np.exp(top - y + np.log(np.exp(-top) + terms))


def _zero_strongest(log_tail: np.ndarray, u: int) -> None:
    """Zero, not subtract, each column's u - 1 most negative, the first of tied ones in
    study order: no host picks another. A column holding a NaN zeroes nothing."""
    for _ in range(u - 1):
        low, pending = log_tail.min(axis=0), np.ones(log_tail.shape[1], dtype=bool)
        for row in log_tail:  # in study order; pending marks columns not yet zeroed
            hit = pending & (row == low)
            np.putmask(row, hit, 0.0)
            pending ^= hit


def partial_conjunction_pvalues(z_panel, us) -> list[np.ndarray]:
    """Partial-conjunction p-values of an (n, M) panel, one vector per u in us.

    Each value's smaller normal tail Phi(-|z|) = erfc(|z| / sqrt 2) / 2 is
    taken once for all u; a side's log tail is its log, floored at
    log(1e-300), or log1p of its complement, by the sign of z. Sums over
    studies go row by row: numpy would sum a lone column pairwise, so neither
    the memory layout nor a block's width changes a bit. Blocks of BLOCK
    features bound the temporaries.
    """
    z_all = np.atleast_2d(np.asarray(z_panel, dtype=float))
    n, m = z_all.shape
    us = [checked_u(u, n) for u in us]
    pvalues = [np.empty(m) for _ in us]
    for lo in range(0, m, BLOCK):
        z = z_all[:, lo : lo + BLOCK]
        scaled = memoryview((np.abs(z) / np.sqrt(2.0)).ravel())  # yields Python floats, no copy
        small = 0.5 * np.fromiter(map(erfc, scaled), float, z.size).reshape(z.shape)
        del scaled  # frees an n x BLOCK array before the two logs
        far = np.log1p(-small)
        near = np.log(np.maximum(small, P_FLOOR, out=small), out=small)
        for u, out in zip(us, pvalues):
            sides = []
            # left then right log tails, one n x BLOCK array at a time
            for log_tail in (np.where(z < 0, a, b) for a, b in ((near, far), (far, near))):
                _zero_strongest(log_tail, u)
                sides.append(_even_chi2_tail(n - u + 1, -reduce(np.add, log_tail)))
            np.minimum(1.0, 2.0 * np.minimum(*sides), out=out[lo : lo + BLOCK])
    return pvalues


def no_association_pvalues(z_panel: np.ndarray) -> np.ndarray:
    """Concordant meta-analysis p-value over all studies, per feature.

    z_panel has shape (n, M) with one row per study. At u = 1 the p-value is
    2 * min(left, right) of the Fisher combinations, capped at 1.
    """
    return partial_conjunction_pvalues(z_panel, [1])[0]


def no_replicability_pvalues(z_panel: np.ndarray) -> np.ndarray:
    """Partial-conjunction p-value at u = 2, per feature; needs two studies.

    Per side the strongest study is left out, so neither one study alone
    nor two studies of opposite sign give a small value.
    """
    return partial_conjunction_pvalues(z_panel, [2])[0]


def bh_procedure(p, q: float) -> np.ndarray:
    """Benjamini-Hochberg step-up rejections at level q (boolean mask)."""
    q = fdr_level(q)
    return bh_adjust(p) <= q


def bh_adjust(p) -> np.ndarray:
    """BH-adjusted p-values: running minimum from the top of M * p_(k) / k."""
    values = _checked(p)
    m = values.size
    order = np.argsort(values)  # ties all take the value at their last rank
    scaled = values[order] * m / np.arange(1, m + 1)
    adjusted_sorted = np.minimum(1.0, np.minimum.accumulate(scaled[::-1])[::-1])
    adjusted = np.empty(m)
    adjusted[order] = adjusted_sorted
    return adjusted
