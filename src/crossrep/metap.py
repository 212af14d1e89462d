"""Directional meta-analysis p-values and the step-up FDR comparator.

The no-association p-value for a feature combines its one-sided study
p-values with Fisher's method, separately left and right, and doubles the
smaller combination so only direction-concordant signal drives it. The
no-replicability p-value is the maximum of those combinations over all
leave-one-out study subsets, so a single strong study cannot produce a
small value on its own. Rejections use the Benjamini-Hochberg step-up
rule.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import chdtrc, log_ndtr

from .configspace import HypothesisKind
from .errors import ConfigError, DataError

P_FLOOR = 1e-300
_LOG_FLOOR = np.log(P_FLOOR)


@dataclass(frozen=True, eq=False)
class PValueVector:
    """Per-feature p-values for one labeled null hypothesis."""

    values: np.ndarray
    label: HypothesisKind

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 1:
            raise DataError("p-values must form a 1-d vector")
        if np.any(~np.isfinite(values)) or np.any(values < 0) or np.any(values > 1):
            raise DataError("p-values must lie in [0, 1]")
        object.__setattr__(self, "values", values)


def _combined_tails(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Fisher-combined left- and right-sided p-values by study subset sums.

    z has shape (k, M); returns two (M,) vectors. Log CDFs keep extreme
    z-scores finite; tail probabilities are floored at 1e-300.
    """
    log_left = np.maximum(log_ndtr(z), _LOG_FLOOR)
    log_right = np.maximum(log_ndtr(-z), _LOG_FLOOR)
    df = 2 * z.shape[0]
    left = chdtrc(df, -2.0 * log_left.sum(axis=0))
    right = chdtrc(df, -2.0 * log_right.sum(axis=0))
    return left, right


def _concordant(z: np.ndarray) -> np.ndarray:
    if z.shape[0] < 1 or z.shape[1] < 1:
        raise ValueError("need at least one study and one feature")
    left, right = _combined_tails(z)
    return np.minimum(1.0, 2.0 * np.minimum(left, right))


def no_association_pvalues(z_panel: np.ndarray) -> np.ndarray:
    """Concordant meta-analysis p-value over all studies, per feature.

    z_panel has shape (k, M) with one row per study; the p-value is
    2 * min(left, right) of the Fisher combinations, capped at 1. The
    panel keeps its memory layout: at k = 8 the summation order, and so
    the last bits of the result, depend on it.
    """
    return _concordant(np.atleast_2d(np.asarray(z_panel, dtype=float)))


def no_replicability_pvalues(z_panel: np.ndarray) -> np.ndarray:
    """Maximum leave-one-out concordant p-value, per feature.

    Needs at least two studies: with one study left out each remaining
    subset must still witness the claimed signal.
    """
    z = np.atleast_2d(np.asarray(z_panel, dtype=float))
    n = z.shape[0]
    if n < 2:
        raise ValueError("replicability needs at least two studies")
    out = np.zeros(z.shape[1])
    keep = np.ones(n, dtype=bool)
    for drop in range(n):
        keep[drop] = False
        np.maximum(out, _concordant(z[keep]), out=out)
        keep[drop] = True
    return out


def bh_procedure(p, q: float) -> np.ndarray:
    """Benjamini-Hochberg step-up rejections at level q (boolean mask)."""
    if not 0.0 < q < 1.0:
        raise ConfigError(f"q must be inside (0, 1), got {q}")
    values = p.values if isinstance(p, PValueVector) else np.asarray(p, dtype=float)
    PValueVector(values, HypothesisKind.CUSTOM)  # reuse the range validation
    m = values.size
    p_sorted = np.sort(values)
    ok = p_sorted <= q * np.arange(1, m + 1) / m
    if not np.any(ok):
        return np.zeros(m, dtype=bool)
    threshold = p_sorted[np.nonzero(ok)[0][-1]]
    return values <= threshold


def bh_adjust(p) -> np.ndarray:
    """BH-adjusted p-values: running minimum from the top of M * p_(k) / k."""
    values = p.values if isinstance(p, PValueVector) else np.asarray(p, dtype=float)
    PValueVector(values, HypothesisKind.CUSTOM)
    m = values.size
    order = np.argsort(values, kind="stable")
    scaled = values[order] * m / np.arange(1, m + 1)
    adjusted_sorted = np.minimum(1.0, np.minimum.accumulate(scaled[::-1])[::-1])
    adjusted = np.empty(m)
    adjusted[order] = adjusted_sorted
    return adjusted
