"""Cross-study mixture model over association-status configurations.

Given binned z-scores and per-study conditional bin densities (null,
positive, negative), the model places a probability on each of the 3**n
status configurations. The weights are fit by EM on the composite
likelihood, the product over features of their marginal mixture
likelihoods. Posterior configuration probabilities then give a local
Bayes FDR for any null subset, and a running-mean estimate converts local
values into the level-q rejection rule; analyze runs the whole pipeline.

The signed densities are truncated to their half-lines, so a feature's
likelihood is zero on all but 2**n of the 3**n configurations; EM,
posteriors and local FDR work on that sign-sparse form (Likelihood) alone.
"""

from __future__ import annotations

import warnings
from collections import namedtuple
from dataclasses import dataclass, field

import numpy as np

from .configspace import HypothesisSet, enumerate_configurations, null_subset
from .errors import (EM_DEFAULT_MAX_ITER, EM_DEFAULT_TOL, DataError, DegenerateAlternativeError,
                     ModelError, em_iterations, em_tolerance, enough_studies, fdr_level)
from .twogroup import BinnedPanel, TwoGroupFit, half_line, null_bin_density


@dataclass(frozen=True, eq=False)
class ConditionalBinDensities:
    """Per-study bin probability vectors conditional on status -1, 0, +1.

    probs[i, s + 1] is the probability vector over bins for study i and
    status s; each row sums to 1. build_conditionals truncates them: the
    +1 vector vanishes on bins with center <= 0 and the -1 vector on bins
    with center >= 0. em_fit and local_fdr_panel refuse conditionals where
    both signed vectors are positive at one bin.
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
        if not np.all(np.isfinite(probs) & (probs >= 0)):
            raise DataError("conditional bin probabilities must be finite and nonnegative")
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
        probs[i, 1] = null_bin_density(centers, 1.0)
        try:
            for s in (1, -1):
                w = half_line(fit.fA_hat, centers, s)
                probs[i, s + 1] = w / w.sum()
        except DegenerateAlternativeError as exc:
            raise DegenerateAlternativeError(f"study {fit.study_id!r}: {exc}") from exc
    return ConditionalBinDensities(binned.centers.copy(), probs)


@dataclass(frozen=True, eq=False)
class ConfigModel:
    """Fitted configuration-probability model: pi weighs space, the 3**n configurations."""

    pi: np.ndarray
    conditionals: ConditionalBinDensities
    em_trace: np.ndarray = field(default_factory=lambda: np.empty(0))
    converged: bool = True
    n_iter: int = 0
    # Lindsay's bound on L(best pi) - L(pi) in nats; None when pi was not fit by em_fit
    em_gap: float | None = None
    # set by em_fit, never by __init__, so dataclasses.replace cannot carry it stale
    likelihood: Likelihood | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        pi = np.asarray(self.pi, dtype=float)
        if pi.shape != (3**self.n_studies,):
            raise ModelError(f"{pi.size} configuration probabilities for {self.n_studies} "
                             f"studies; expected 3**{self.n_studies}")
        if np.any(pi < 0) or abs(pi.sum() - 1.0) > 1e-12:
            raise ModelError("configuration probabilities must lie on the simplex")
        object.__setattr__(self, "pi", pi)
        object.__setattr__(self, "em_trace", np.asarray(self.em_trace, dtype=float))

    @property
    def n_studies(self) -> int:
        return self.conditionals.n_studies

    @property
    def space(self) -> list:
        return enumerate_configurations(self.n_studies)


def _status_index_matrix(space) -> np.ndarray:
    return np.array(space, dtype=np.int8) + 1  # (K, n) with values 0, 1, 2


# A panel's likelihood in sign-sparse form: its bin_index (n, M), each feature's
# combo (M,) among its U distinct bin combos in lexicographic order and their
# counts (U,). Each study's sign at a bin is -1 where its -1 conditional is
# positive, else +1; a combo's likelihood vanishes off the 2**n configurations
# with every h_i in {0, sign_i}. Combos sorted by sign pattern fill blocks of
# BLOCK columns, one pattern each, zero-padded. left (G, 2**(n//2), BLOCK) and
# right (G, 2**(n - n//2), BLOCK) are the Khatri-Rao halves over studies
# 0..n//2-1 and the rest, a row per null/signed choice: in block g, column c
# has likelihood left[g, a, c] * right[g, b, c] under configuration
# configs[g, a, b]. runs are slices of blocks, slots (U,) each combo's column
# in the flat G * BLOCK columns, and k = 3**n.
Likelihood = namedtuple("Likelihood", "bin_index inverse counts left right configs runs slots k")

BLOCK = 64  # columns per block; a pattern pads fewer than BLOCK
CHUNK = 2**16  # elements in the temporaries of one run


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
    _, inverse, counts = np.unique(key, return_inverse=True, return_counts=True)
    inverse = inverse.ravel()
    member = np.empty(counts.size, dtype=np.intp)  # any feature of each combo: keys are exact
    member[inverse] = np.arange(inverse.size)
    return bin_index.T[member], inverse, counts.astype(float)


def _likelihood_matrix(
    cond: ConditionalBinDensities, status_idx: np.ndarray, combos: np.ndarray
) -> np.ndarray:
    """(K, U) combo probabilities under each configuration, C-contiguous.

    The row-wise Khatri-Rao product of the studies' (3, U) factors: the dense
    reference for the sign-sparse form, which no fit or report uses.
    """
    n = cond.n_studies
    if not np.array_equal(status_idx, _status_index_matrix(enumerate_configurations(n))):
        raise ModelError("status rows must follow the lexicographic configuration order")
    like = np.ones((1, combos.shape[0]))
    for i in range(n):
        factor = np.ascontiguousarray(cond.probs[i][:, combos[:, i]])
        like = (like[:, None] * factor).reshape(-1, combos.shape[0])
    return like


def _likelihood(bin_index: np.ndarray, cond: ConditionalBinDensities) -> Likelihood:
    """The Likelihood of a panel's bin_index under truncated conditionals."""
    combos, inverse, counts = _collapse_bins(bin_index)
    n, u, half = cond.n_studies, combos.shape[0], cond.n_studies // 2
    neg = cond.probs[:, 0] > 0
    both = np.argwhere(neg & (cond.probs[:, 2] > 0))
    if both.size:
        i, b = both[0]
        raise DataError(f"conditionals of study {i} are not truncated: both signed densities "
                        f"are positive at bin {b} (center {cond.centers[i, b]:g})")
    pattern = np.zeros(u, dtype=np.uint16)  # bit i set where study i's sign is -1
    for i in range(n):
        pattern |= neg[i, combos[:, i]].astype(np.uint16) << i
    order = np.argsort(pattern, kind="stable")  # a radix sort for a small unsigned key
    sizes = np.bincount(pattern, minlength=2**n)
    blocks = -(-sizes // BLOCK)
    slots = np.empty(u, dtype=np.intp)
    start = BLOCK * (np.cumsum(blocks) - blocks) - np.cumsum(sizes) + sizes
    slots[order] = start[pattern[order]] + np.arange(u)

    bits = (np.arange(2**n)[:, None] >> np.arange(n)) & 1  # of patterns and of choices
    table = np.zeros((2**n, 2**n), dtype=np.int64)  # configuration of (pattern, choice)
    for i in range(n):
        table = 3 * table + 1 + np.outer(1 - 2 * bits[:, i], bits[:, i])
    table = table.reshape(2**n, -1, 2**half).transpose(0, 2, 1).astype(np.min_scalar_type(3**n))
    configs = np.repeat(table, blocks, axis=0)

    null, signed = np.zeros((2, n, cond.bin_count + 1))
    null[:, :-1], signed[:, :-1] = cond.probs[:, 1], cond.probs[:, 0] + cond.probs[:, 2]

    def factors(studies):  # Khatri-Rao rows over the studies; bit j set: studies[j] signed
        out = np.empty((len(configs), 2 ** len(studies), BLOCK))
        out[:, 0] = 1.0
        for j, i in enumerate(studies):
            bins = np.full((len(configs), 1, BLOCK), cond.bin_count, dtype=combos.dtype)
            bins.ravel()[slots] = combos[:, i]  # padding: an empty bin
            np.multiply(out[:, : 1 << j], signed[i, bins], out=out[:, 1 << j : 2 << j])
            out[:, : 1 << j] *= null[i, bins]
        return out

    left, right = factors(range(half)), factors(range(half, n))
    step = max(1, CHUNK // (left.shape[1] * (right.shape[1] + BLOCK)))
    runs = [slice(lo, lo + step) for lo in range(0, len(configs), step)]
    return Likelihood(bin_index, inverse, counts, left, right, configs, runs, slots, 3**n)


def _mixture(like: Likelihood, pi: np.ndarray) -> np.ndarray:
    """pi @ like, the (U,) mixture likelihood, by batched products over blocks."""
    mix = np.empty((like.left.shape[0], BLOCK))
    for run in like.runs:
        part = pi.take(like.configs[run]) @ like.right[run]
        np.einsum("gac,gac->gc", part, like.left[run], out=mix[run])
    return mix.take(like.slots)


def _direction(like: Likelihood, w: np.ndarray) -> np.ndarray:
    """like @ w, a (K,) vector: batched products over blocks, summed by configuration."""
    weights = np.zeros((len(like.configs), 1, BLOCK))  # padding columns weigh 0
    weights.ravel()[like.slots] = w
    out = np.zeros(like.k)
    for run in like.runs:
        part = (like.left[run] * weights[run]) @ like.right[run].transpose(0, 2, 1)
        out += np.bincount(like.configs[run].ravel(), part.ravel(), minlength=like.k)
    return out


def _check_mixture(mixture: np.ndarray, inverse: np.ndarray, snp_ids) -> None:
    bad = np.nonzero(mixture <= 0.0)[0]
    if bad.size:
        j = int(np.nonzero(inverse == bad[0])[0][0])
        snp = snp_ids[j] if snp_ids is not None else f"index {j}"
        raise ModelError(f"zero mixture likelihood for snp {snp}")


def em_fit(binned: BinnedPanel, cond: ConditionalBinDensities, tol: float = EM_DEFAULT_TOL,
           max_iter: int = EM_DEFAULT_MAX_ITER, snp_ids=None) -> ConfigModel:
    """Maximize the composite likelihood over configuration probabilities.

    Standard mixture-weight EM with the conditional densities held fixed:
    responsibilities are proportional to pi(h) times the configuration
    likelihood, and the M-step averages them over features. The composite
    log-likelihood trace is non-decreasing; iteration stops when its
    relative change drops below tol, and warns when max_iter ends it first.
    The returned model's em_gap bounds how far its log-likelihood L lies
    below the maximum: L(pi*) - L(pi) <= m log max_k g_k, with g the EM
    direction at pi (Lindsay 1983, Ann. Statist. 11:86). binned holds the
    studies of cond, whose densities stay fixed; EM starts from uniform weights.
    """
    tol, max_iter = em_tolerance(tol), em_iterations(max_iter)
    if binned.n_studies != cond.n_studies:
        raise DataError("binned panel and conditionals disagree on study count")
    k = 3**cond.n_studies
    m = binned.n_snps
    if m < k:
        warnings.warn(f"{m} features for {k} configurations; weight estimates will be noisy",
                      stacklevel=2)
    pi = np.full(k, 1.0 / k)
    like = _likelihood(binned.bin_index, cond)

    trace = []
    converged = False
    for iteration in range(max_iter):
        mixture = _mixture(like, pi)
        _check_mixture(mixture, like.inverse, snp_ids)
        loglik = float((like.counts * np.log(mixture)).sum())
        trace.append(loglik)
        if iteration > 0 and abs(loglik - trace[-2]) <= tol * abs(trace[-2]):
            converged = True
            break
        pi = pi * _direction(like, like.counts / mixture) / m
        pi /= pi.sum()
    em_trace = np.array(trace)
    if not converged:  # pi moved after the last mixture
        mixture = _mixture(like, pi)
    gap = m * float(np.log(_direction(like, like.counts / mixture).max() / m))
    if not converged:
        change = (abs(em_trace[-1] - em_trace[-2]) / abs(em_trace[-2]) if len(trace) > 1
                  else float("nan"))
        warnings.warn(
            f"EM did not converge in {len(trace)} iterations "
            f"(last relative change {change:.3g}, tolerance {tol:g}, "
            f"log-likelihood gap at most {gap:.3g} nats)",
            stacklevel=2,
        )

    model = ConfigModel(pi=pi, conditionals=cond, em_trace=em_trace, converged=converged,
                        n_iter=len(trace), em_gap=gap)
    object.__setattr__(model, "likelihood", like)
    return model


def posterior(snp_bins, model: ConfigModel) -> np.ndarray:
    """Posterior configuration probabilities for one feature's bin vector."""
    if len(snp_bins) != model.n_studies:
        raise DataError("bin vector length must equal the model's study count")
    like = _likelihood(np.reshape(snp_bins, (-1, 1)), model.conditionals)
    weights = model.pi * _direction(like, like.counts)
    total = weights.sum()
    if total <= 0.0:
        raise ModelError("zero posterior normalizer for the given bin vector")
    return weights / total


def local_fdr_panel(binned: BinnedPanel, model: ConfigModel, null_set: HypothesisSet,
                    snp_ids=None) -> np.ndarray:
    """Vector of local FDR values for every feature in the panel."""
    if null_set.n != model.n_studies or binned.n_studies != model.n_studies:
        raise DataError("panel, model and hypothesis set disagree on study count")
    like = model.likelihood
    if like is None or like.bin_index is not binned.bin_index:
        like = _likelihood(binned.bin_index, model.conditionals)
    # one contraction for both, so a feature with no non-null likelihood gets exactly 1
    null_pi = model.pi * np.isin(np.arange(model.pi.size), null_set.members)
    numer = _mixture(like, null_pi)
    denom = _mixture(like, model.pi)
    _check_mixture(denom, like.inverse, snp_ids)
    lf = np.minimum(numer / denom, 1.0)
    return lf[like.inverse]


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
    value at the last tied rank. Every feature whose estimate is at or below
    q is rejected; the estimate never decreases with rank, so the rejections
    are the first k ranks. t_hat is the local FDR at rank k, or 0 when k = 0.
    """
    q = fdr_level(q)
    lf = np.asarray(local_fdrs, dtype=float)
    if lf.ndim != 1 or lf.size == 0:
        raise DataError("local FDR input must be a nonempty 1-d vector")
    if np.any(~np.isfinite(lf)) or np.any(lf < 0) or np.any(lf > 1 + 1e-12):
        raise DataError("local FDR values must lie in [0, 1]")
    lf = np.minimum(lf, 1.0) + 0.0  # -0 reads as +0, so tied values are bitwise equal
    m = lf.size

    order = np.argsort(lf)
    lf_sorted = lf[order]
    # rounding can dip a running mean over near-tied values; keep it non-decreasing
    running = np.maximum.accumulate(np.cumsum(lf_sorted) / np.arange(1, m + 1))
    last_tied = np.searchsorted(lf_sorted, lf_sorted, side="right") - 1
    fdr_sorted = running[last_tied]

    fdr_estimate = np.empty(m)
    fdr_estimate[order] = fdr_sorted
    rejected = fdr_estimate <= q
    k = int(np.count_nonzero(rejected))
    t_hat = float(lf_sorted[k - 1]) if k else 0.0
    return DiscoveryReport(hypothesis, float(q), lf, fdr_estimate, t_hat, rejected)


# The qualifying studies' indices, the model fit on them, a DiscoveryReport per null label
Analysis = namedtuple("Analysis", "included model reports")


def analyze(binned: BinnedPanel, fits: list[TwoGroupFit], nulls: dict, q: float,
            tol: float = EM_DEFAULT_TOL, max_iter: int = EM_DEFAULT_MAX_ITER,
            snp_ids=None) -> Analysis:
    """Drop the studies whose fit does not qualify, fit the rest by EM, and report each
    label -> u of nulls at level q. A u above the qualifying count is a ModelError, raised
    before EM runs."""
    included = [i for i, fit in enumerate(fits) if fit.qualifies]
    enough_studies(nulls, len(included), "qualifying studies")
    sub = binned.select_studies(included)
    cond = build_conditionals([fits[i] for i in included], sub)
    # panel by position, options by keyword: a timer re-runs em_fit(*args, **{**kwargs, ...})
    model = em_fit(sub, cond, tol=tol, max_iter=max_iter, snp_ids=snp_ids)
    reports = {}
    for label, u in nulls.items():
        null_set = null_subset(u, len(included))
        lf = local_fdr_panel(sub, model, null_set, snp_ids)
        reports[label] = fdr_report(lf, q, null_set)
    return Analysis(included, model, reports)
