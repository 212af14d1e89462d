"""Directional meta-analysis p-values and the step-up FDR comparator.

Both named nulls say that fewer than u studies share a sign, and both are
tested by the directional partial-conjunction p-value of Benjamini &
Heller (2008, Biometrics 64:1215): per side, Fisher-combine the n - u + 1
largest one-sided study p-values, then double the smaller side, capped at
1. No u - 1 studies, whatever their signs, give a small value on their
own. Rejections use the Benjamini-Hochberg step-up rule.
"""

from __future__ import annotations

import numpy as np
from scipy.special import chdtrc, log_ndtr

from .configspace import HypothesisKind, checked_shared_signs
from .errors import DataError, fdr_level

P_FLOOR = 1e-300
_LOG_FLOOR = np.log(P_FLOOR)


def _checked(p) -> np.ndarray:
    """p as a float vector, checking it is 1-d with every value in [0, 1]."""
    values = np.asarray(p, dtype=float)
    if values.ndim != 1:
        raise DataError("p-values must form a 1-d vector")
    if np.any(~np.isfinite(values)) or np.any(values < 0) or np.any(values > 1):
        raise DataError("p-values must lie in [0, 1]")
    return values


def _partial_conjunction(z_panel, kind: HypothesisKind) -> np.ndarray:
    """Partial-conjunction p-values of an (n, M) panel, one per feature.

    Log tails are floored at log(1e-300); the study-major copy sums over
    studies in one order for any memory layout.
    """
    z = np.ascontiguousarray(np.atleast_2d(np.asarray(z_panel, dtype=float)))
    n = z.shape[0]
    u = checked_shared_signs(kind, n)
    sides = []
    for log_tail in (log_ndtr(z), log_ndtr(-z)):
        log_tail = np.maximum(log_tail, _LOG_FLOOR)
        if u > 1:
            # zero, not subtract, the u - 1 most negative: the rest sum as on their own
            strongest = np.argpartition(log_tail, u - 2, axis=0)[: u - 1]
            np.put_along_axis(log_tail, strongest, 0.0, axis=0)
        sides.append(chdtrc(2 * (n - u + 1), -2.0 * log_tail.sum(axis=0)))
    return np.minimum(1.0, 2.0 * np.minimum(*sides))


def no_association_pvalues(z_panel: np.ndarray) -> np.ndarray:
    """Concordant meta-analysis p-value over all studies, per feature.

    z_panel has shape (n, M) with one row per study. At u = 1 the p-value is
    2 * min(left, right) of the Fisher combinations, capped at 1.
    """
    return _partial_conjunction(z_panel, HypothesisKind.NO_ASSOCIATION)


def no_replicability_pvalues(z_panel: np.ndarray) -> np.ndarray:
    """Partial-conjunction p-value at u = 2, per feature; needs two studies.

    Per side the strongest study is left out, so neither one study alone
    nor two studies of opposite sign give a small value.
    """
    return _partial_conjunction(z_panel, HypothesisKind.NO_REPLICABILITY)


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
