"""Directional meta-analysis p-values and the step-up FDR comparator.

A null of u says that fewer than u studies share a sign (u = 1: no
association, u = 2: no replicability, 1 <= u <= n). Each is tested by the
directional partial-conjunction p-value of Benjamini & Heller (2008,
Biometrics 64:1215): per side, Fisher-combine the n - u + 1 largest
one-sided study p-values, then double the smaller side, capped at 1. No
u - 1 studies, whatever their signs, give a small value on their own.
Rejections use the Benjamini-Hochberg step-up rule.
"""

from __future__ import annotations

from math import erfc, lgamma

import numpy as np

from .configspace import checked_u
from .errors import DataError, fdr_level

P_FLOOR = 1e-300


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
    return np.exp(top - y + np.log(np.exp(-top) + np.exp(log_terms, out=log_terms).sum(axis=0)))


def partial_conjunction_pvalues(z_panel, us) -> list[np.ndarray]:
    """Partial-conjunction p-values of an (n, M) panel, one vector per u in us.

    Each value's smaller normal tail Phi(-|z|) = erfc(|z| / sqrt 2) / 2 is
    taken once for all u; a side's log tail is its log, floored at
    log(1e-300), or log1p of its complement, by the sign of z. The
    study-major copy sums over studies in one order for any memory layout.
    """
    z = np.ascontiguousarray(np.atleast_2d(np.asarray(z_panel, dtype=float)))
    n = z.shape[0]
    us = [checked_u(u, n) for u in us]
    scaled = memoryview((np.abs(z) / np.sqrt(2.0)).ravel())  # yields Python floats, no copy
    small = 0.5 * np.fromiter(map(erfc, scaled), float, z.size).reshape(z.shape)
    del scaled  # frees an n x M array before the two logs
    far = np.log1p(-small)
    near = np.log(np.maximum(small, P_FLOOR, out=small), out=small)
    pvalues = []
    for u in us:
        sides = []
        # left then right log tails, one n x M array at a time
        for log_tail in (np.where(z < 0, a, b) for a, b in ((near, far), (far, near))):
            if u > 1:
                # zero, not subtract, the u - 1 most negative: the rest sum as on their own
                strongest = np.argpartition(log_tail, u - 2, axis=0)[: u - 1]
                np.put_along_axis(log_tail, strongest, 0.0, axis=0)
            sides.append(_even_chi2_tail(n - u + 1, -log_tail.sum(axis=0)))
        pvalues.append(np.minimum(1.0, 2.0 * np.minimum(*sides)))
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
    values = _checked(p)
    m = values.size
    p_sorted = np.sort(values)
    ok = p_sorted <= q * np.arange(1, m + 1) / m
    if not np.any(ok):
        return np.zeros(m, dtype=bool)
    threshold = p_sorted[np.nonzero(ok)[0][-1]]
    return values <= threshold


def bh_adjust(p) -> np.ndarray:
    """BH-adjusted p-values: running minimum from the top of M * p_(k) / k."""
    values = _checked(p)
    m = values.size
    order = np.argsort(values, kind="stable")
    scaled = values[order] * m / np.arange(1, m + 1)
    adjusted_sorted = np.minimum(1.0, np.minimum.accumulate(scaled[::-1])[::-1])
    adjusted = np.empty(m)
    adjusted[order] = adjusted_sorted
    return adjusted
