"""Cross-study mixture model over association-status configurations.

Given binned z-scores and per-study conditional bin densities (null,
positive, negative), the model places a probability on each of the 3**n
status configurations. The weights are fit by EM on the composite
likelihood, the product over features of their marginal mixture
likelihoods. Posterior configuration probabilities then give a local
Bayes FDR for any null subset, and a running-mean estimate converts local
values into the level-q rejection rule.
"""

from __future__ import annotations

import warnings
from collections import namedtuple
from dataclasses import dataclass, field

import numpy as np

from .configspace import HypothesisSet, enumerate_configurations
from .errors import ConfigError, DataError, DegenerateAlternativeError, ModelError, fdr_level
from .twogroup import BinnedPanel, TwoGroupFit, normal_pdf

EM_DEFAULT_TOL = 1e-8
EM_DEFAULT_MAX_ITER = 10_000

_STATUSES = (-1, 0, 1)


@dataclass(frozen=True, eq=False)
class ConditionalBinDensities:
    """Per-study bin probability vectors conditional on status -1, 0, +1.

    probs[i, s + 1] is the probability vector over bins for study i and
    status s; each row sums to 1. Model-based conditionals are truncated:
    the +1 vector vanishes on bins with center <= 0 and the -1 vector on
    bins with center >= 0 (empirical oracle conditionals need not be).
    """

    centers: np.ndarray  # (n, B)
    probs: np.ndarray    # (n, 3, B)

    def __post_init__(self):
        centers = np.asarray(self.centers, dtype=float)
        probs = np.asarray(self.probs, dtype=float)
        if probs.ndim != 3 or probs.shape[1] != 3 or centers.shape != (
            probs.shape[0],
            probs.shape[2],
        ):
            raise DataError("conditional densities have inconsistent shapes")
        if np.any(probs < 0):
            raise DataError("conditional bin probabilities must be nonnegative")
        if np.any(np.abs(probs.sum(axis=2) - 1.0) > 1e-9):
            raise DataError("each conditional bin vector must sum to 1")
        object.__setattr__(self, "centers", centers)
        object.__setattr__(self, "probs", probs)

    @property
    def n_studies(self) -> int:
        return self.probs.shape[0]

    @property
    def bin_count(self) -> int:
        return self.probs.shape[2]


def build_conditionals(
    fits: list[TwoGroupFit], binned: BinnedPanel
) -> ConditionalBinDensities:
    """Conditional bin densities from per-study two-group fits.

    Status 0 uses the standard normal at the bin centers; status +1/-1 use
    the fitted alternative density truncated to the positive/negative
    half-line. Every vector is normalized over bins.
    """
    n = binned.n_studies
    if len(fits) != n:
        raise DataError("one fit per study is required")
    probs = np.zeros((n, 3, binned.bin_count))
    for i, fit in enumerate(fits):
        if not fit.qualifies or fit.fA_hat is None:
            raise ModelError(
                f"study {fit.study_id!r} does not qualify: {fit.exclusion_reason}"
            )
        centers = binned.centers[i]
        phi = normal_pdf(centers)
        probs[i, 1] = phi / phi.sum()
        for s, side in ((1, "z > 0"), (-1, "z < 0")):
            w = _half_line(fit.fA_hat, centers, s)
            if w.sum() <= 0:
                raise DegenerateAlternativeError(
                    f"study {fit.study_id!r}: alternative density has no mass on {side}"
                )
            probs[i, s + 1] = w / w.sum()
    return ConditionalBinDensities(binned.centers.copy(), probs)


def _half_line(values: np.ndarray, centers: np.ndarray, status: int) -> np.ndarray:
    """values on the half-line of a signed status (z > 0 for +1, z < 0 for -1), else 0."""
    return np.where(status * centers > 0, values, 0.0)


@dataclass(frozen=True, eq=False)
class ConfigModel:
    """Fitted configuration-probability model."""

    space: tuple
    pi: np.ndarray
    conditionals: ConditionalBinDensities
    em_trace: np.ndarray = field(default_factory=lambda: np.empty(0))
    converged: bool = True
    n_iter: int = 0
    # set by em_fit, never by __init__, so dataclasses.replace cannot carry it stale
    likelihood: CollapsedLikelihood | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self):
        pi = np.asarray(self.pi, dtype=float)
        if pi.ndim != 1 or pi.size != len(self.space):
            raise ModelError("probability vector does not match the space")
        if np.any(pi < 0) or abs(pi.sum() - 1.0) > 1e-12:
            raise ModelError("configuration probabilities must lie on the simplex")
        if tuple(self.space) != tuple(enumerate_configurations(len(self.space[0]))):
            raise ModelError("configurations must follow the lexicographic order")
        object.__setattr__(self, "pi", pi)
        object.__setattr__(self, "em_trace", np.asarray(self.em_trace, dtype=float))

    @property
    def n_studies(self) -> int:
        return len(self.space[0])


def _status_index_matrix(space) -> np.ndarray:
    return np.array(space, dtype=np.int8) + 1  # (K, n) with values 0, 1, 2


# A panel's bin_index (n, M), its distinct bin combos (U, n) in lexicographic
# order, each feature's combo (M,), combo counts (U,) and the (K, U) like as
# its Khatri-Rao halves (left, right) over studies 0..n//2-1 and the rest:
# like[a * len(right) + b] = left[a] * right[b], a product never formed.
CollapsedLikelihood = namedtuple("CollapsedLikelihood", "bin_index combos inverse counts like")


def _collapse_bins(bin_index: np.ndarray):
    """Unique bin combinations with multiplicities; EM cost scales with them.

    Mixed-radix keys, study 0 most significant, re-ranked before overflow.
    """
    radix = int(bin_index.max()) + 1
    key = np.zeros(bin_index.shape[1], dtype=np.int64)
    for row in bin_index:
        if (int(key.max()) + 1) * radix > np.iinfo(np.int64).max:
            key = np.unique(key, return_inverse=True)[1]
        key = key * radix + row
    _, first, inverse, counts = np.unique(
        key, return_index=True, return_inverse=True, return_counts=True
    )
    return bin_index.T[first], inverse.ravel(), counts.astype(float)


def _khatri_rao(cond: ConditionalBinDensities, combos: np.ndarray, studies) -> np.ndarray:
    """(3**len(studies), U) row-wise Khatri-Rao product of the studies' (3, U) factors.

    Rows follow enumerate_configurations over those studies. Factors are made
    C-contiguous: BLAS rounds products of strided operands differently.
    """
    like = np.ones((1, combos.shape[0]))
    for i in studies:
        factor = np.ascontiguousarray(cond.probs[i][:, combos[:, i]])
        like = (like[:, None, :] * factor[None, :, :]).reshape(-1, combos.shape[0])
    return like


def _likelihood_matrix(
    cond: ConditionalBinDensities, status_idx: np.ndarray, combos: np.ndarray
) -> np.ndarray:
    """(K, U) matrix of combo probabilities under each configuration."""
    n = cond.n_studies
    if not np.array_equal(status_idx, _status_index_matrix(enumerate_configurations(n))):
        raise ModelError("status rows must follow the lexicographic configuration order")
    return _khatri_rao(cond, combos, range(n))


def _mixture(like, pi: np.ndarray) -> np.ndarray:
    """pi @ like, the (U,) mixture likelihood, through the two halves."""
    left, right = like
    return (left * (pi.reshape(left.shape[0], -1) @ right)).sum(axis=0)


def _direction(like, w: np.ndarray) -> np.ndarray:
    """like @ w, a (K,) vector, through the two halves."""
    left, right = like
    return (right @ (left * w).T).T.ravel()


def _collapsed_likelihood(bin_index, cond) -> CollapsedLikelihood:
    n = cond.n_studies
    combos, inverse, counts = _collapse_bins(bin_index)
    like = _khatri_rao(cond, combos, range(n // 2)), _khatri_rao(cond, combos, range(n // 2, n))
    return CollapsedLikelihood(bin_index.copy(), combos, inverse, counts, like)


def _check_mixture(mixture: np.ndarray, inverse: np.ndarray, snp_ids) -> None:
    bad = np.nonzero(mixture <= 0.0)[0]
    if bad.size:
        j = int(np.nonzero(inverse == bad[0])[0][0])
        snp = snp_ids[j] if snp_ids is not None else f"index {j}"
        raise ModelError(f"zero mixture likelihood for snp {snp}")


def em_fit(
    binned: BinnedPanel,
    cond: ConditionalBinDensities,
    init: np.ndarray | None = None,
    tol: float = EM_DEFAULT_TOL,
    max_iter: int = EM_DEFAULT_MAX_ITER,
    snp_ids=None,
) -> ConfigModel:
    """Maximize the composite likelihood over configuration probabilities.

    Standard mixture-weight EM with the conditional densities held fixed:
    responsibilities are proportional to pi(h) times the configuration
    likelihood, and the M-step averages them over features. The composite
    log-likelihood trace is non-decreasing; iteration stops when its
    relative change drops below tol.

    Parameters
    ----------
    binned : BinnedPanel
        Panel restricted to the studies covered by cond.
    cond : ConditionalBinDensities
        Fixed per-study, per-status bin densities.
    init : array of length 3**n, optional
        Starting weights on the simplex; uniform when omitted.
    """
    n = cond.n_studies
    if binned.n_studies != n:
        raise DataError("binned panel and conditionals disagree on study count")
    space = enumerate_configurations(n)
    k = len(space)
    m = binned.n_snps
    if m < k:
        warnings.warn(
            f"{m} features for {k} configurations; weight estimates will be noisy",
            stacklevel=2,
        )
    if init is None:
        pi = np.full(k, 1.0 / k)
    else:
        pi = np.asarray(init, dtype=float).copy()
        if pi.shape != (k,) or np.any(pi < 0) or abs(pi.sum() - 1.0) > 1e-9:
            raise ConfigError("init must be a length-3**n vector on the simplex")
        pi /= pi.sum()
    if max_iter < 1:
        raise ConfigError("max_iter must be positive")

    collapsed = _collapsed_likelihood(binned.bin_index, cond)
    like, counts = collapsed.like, collapsed.counts

    trace = []
    converged = False
    for iteration in range(max_iter):
        mixture = _mixture(like, pi)
        _check_mixture(mixture, collapsed.inverse, snp_ids)
        loglik = float(counts @ np.log(mixture))
        trace.append(loglik)
        if iteration > 0 and abs(loglik - trace[-2]) <= tol * abs(trace[-2]):
            converged = True
            break
        pi = pi * _direction(like, counts / mixture) / m
        pi /= pi.sum()

    model = ConfigModel(
        space=tuple(space),
        pi=pi,
        conditionals=cond,
        em_trace=np.array(trace),
        converged=converged,
        n_iter=len(trace),
    )
    object.__setattr__(model, "likelihood", collapsed)
    return model


def posterior(snp_bins, model: ConfigModel) -> np.ndarray:
    """Posterior configuration probabilities for one feature's bin vector."""
    if len(snp_bins) != model.n_studies:
        raise DataError("bin vector length must equal the model's study count")
    combo = np.reshape(snp_bins, (1, -1))
    like = _likelihood_matrix(model.conditionals, _status_index_matrix(model.space), combo)[:, 0]
    weights = model.pi * like
    total = weights.sum()
    if total <= 0.0:
        raise ModelError("zero posterior normalizer for the given bin vector")
    return weights / total


def local_fdr_panel(
    binned: BinnedPanel,
    model: ConfigModel,
    null_set: HypothesisSet,
    snp_ids=None,
) -> np.ndarray:
    """Vector of local FDR values for every feature in the panel."""
    if null_set.n != model.n_studies or binned.n_studies != model.n_studies:
        raise DataError("panel, model and hypothesis set disagree on study count")
    collapsed = model.likelihood
    if collapsed is None or not np.array_equal(collapsed.bin_index, binned.bin_index):
        collapsed = _collapsed_likelihood(binned.bin_index, model.conditionals)
    # one contraction for both, so a feature with no non-null likelihood gets exactly 1
    null_pi = model.pi * np.isin(np.arange(model.pi.size), null_set.members)
    numer = _mixture(collapsed.like, null_pi)
    denom = _mixture(collapsed.like, model.pi)
    _check_mixture(denom, collapsed.inverse, snp_ids)
    lf = np.minimum(numer / denom, 1.0)
    return lf[collapsed.inverse]


@dataclass(frozen=True, eq=False)
class DiscoveryReport:
    """Rejection decisions for one null hypothesis at target level q."""

    hypothesis: HypothesisSet | None
    q: float
    local_fdr: np.ndarray
    fdr_estimate: np.ndarray
    t_hat: float
    rejected: np.ndarray

    @property
    def n_rejected(self) -> int:
        return int(np.count_nonzero(self.rejected))


def fdr_report(
    local_fdrs: np.ndarray, q: float, hypothesis: HypothesisSet | None = None
) -> DiscoveryReport:
    """Turn local FDR values into level-q rejections.

    Features are ranked by local FDR; the estimate for each feature is the
    running mean of local values up to its rank, with ties sharing the
    value at the last tied rank. The threshold t_hat is the largest local
    FDR whose running mean stays at or below q; every feature at or below
    it is rejected. With no feasible rank, nothing is rejected and t_hat
    is 0.
    """
    q = fdr_level(q)
    lf = np.asarray(local_fdrs, dtype=float)
    if lf.ndim != 1 or lf.size == 0:
        raise DataError("local FDR input must be a nonempty 1-d vector")
    if np.any(~np.isfinite(lf)) or np.any(lf < 0) or np.any(lf > 1 + 1e-12):
        raise DataError("local FDR values must lie in [0, 1]")
    lf = np.minimum(lf, 1.0)
    m = lf.size

    order = np.lexsort((np.arange(m), lf))
    lf_sorted = lf[order]
    # rounding can dip a running mean over near-tied values; keep it non-decreasing
    running = np.maximum.accumulate(np.cumsum(lf_sorted) / np.arange(1, m + 1))
    last_tied = np.searchsorted(lf_sorted, lf_sorted, side="right") - 1
    fdr_sorted = running[last_tied]

    feasible = fdr_sorted <= q
    if np.any(feasible):
        t_hat = float(lf_sorted[np.nonzero(feasible)[0][-1]])
        rejected = lf <= t_hat
    else:
        t_hat = 0.0
        rejected = np.zeros(m, dtype=bool)

    fdr_estimate = np.empty(m)
    fdr_estimate[order] = fdr_sorted
    return DiscoveryReport(
        hypothesis=hypothesis,
        q=float(q),
        local_fdr=lf,
        fdr_estimate=fdr_estimate,
        t_hat=t_hat,
        rejected=rejected,
    )


def _empirical_conditionals(
    binned: BinnedPanel, truth: np.ndarray
) -> ConditionalBinDensities:
    """Relative bin frequencies per (study, status), with normal fallbacks.

    A status with no features in a study falls back to the standard normal
    at the centers, truncated to the matching half-line for signed states.
    """
    n, b = binned.centers.shape
    probs = np.zeros((n, 3, b))
    for i in range(n):
        centers = binned.centers[i]
        for s in _STATUSES:
            sel = truth[i] == s
            if np.any(sel):
                freq = np.bincount(binned.bin_index[i, sel], minlength=b).astype(float)
                probs[i, s + 1] = freq / freq.sum()
            else:
                w = normal_pdf(centers)
                if s:
                    w = _half_line(w, centers, s)
                if w.sum() <= 0:
                    raise ModelError("cannot build a fallback conditional density")
                probs[i, s + 1] = w / w.sum()
    return ConditionalBinDensities(binned.centers.copy(), probs)


def oracle_report(
    binned: BinnedPanel,
    truth: np.ndarray,
    true_pi: np.ndarray,
    null_set: HypothesisSet,
    q: float,
    snp_ids=None,
) -> DiscoveryReport:
    """Reference analysis that knows the true statuses and weights.

    Conditional bin probabilities are the empirical relative frequencies
    given the true status, and the true configuration weights replace the
    EM estimate; the rest of the pipeline is unchanged.
    """
    truth = np.asarray(truth)
    if truth.shape != binned.bin_index.shape:
        raise DataError("truth matrix must match the binned panel shape")
    if not np.all(np.isin(truth, (-1, 0, 1))):
        raise DataError("truth entries must be -1, 0 or +1")
    cond = _empirical_conditionals(binned, truth)
    model = ConfigModel(
        space=tuple(enumerate_configurations(binned.n_studies)),
        pi=np.asarray(true_pi, dtype=float),
        conditionals=cond,
    )
    lf = local_fdr_panel(binned, model, null_set, snp_ids=snp_ids)
    return fdr_report(lf, q, hypothesis=null_set)
