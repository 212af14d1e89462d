"""Shared pipeline drivers for the test suite."""

from __future__ import annotations

import itertools
import warnings

import mpmath
import numpy as np
from scipy.special import chdtrc
from scipy.stats import chi2, norm

import crossrep as cr
import crossrep.io as cio

# u of each named null: it holds while fewer than u studies share a sign
NR = 2
NA = 1


def run_empirical_bayes(panel, q=0.05, bins=50, exclusion=None):
    """Fit, exclude, model and report both nulls for a z panel.

    Returns (reports, included, model) where reports maps "nr"/"na" to a
    DiscoveryReport; "nr" is absent when fewer than two studies qualify and
    both are absent when none does.
    """
    kwargs = {} if exclusion is None else {"exclusion_threshold": exclusion}
    binned = cr.bin_panel(panel, bins)
    fits = cr.fit_panel(panel, binned, **kwargs)
    included = [i for i, fit in enumerate(fits) if fit.qualifies]
    reports = {}
    if not included:
        return reports, included, None
    sub_binned = binned.select_studies(included)
    cond = cr.build_conditionals([fits[i] for i in included], sub_binned)
    model = cr.em_fit(sub_binned, cond, snp_ids=panel.snp_ids)
    todo = [("na", NA)]
    if len(included) >= 2:
        todo.insert(0, ("nr", NR))
    for label, u in todo:
        null_set = cr.null_subset(u, len(included))
        lf = cr.local_fdr_panel(sub_binned, model, null_set, panel.snp_ids)
        reports[label] = cr.fdr_report(lf, q, null_set)
    return reports, included, model


def run_table3_rep(n_snps, seed, q=0.05, bins=50):
    """One repetition of the reference simulation study, all analyses.

    Returns a dict of SimMetrics keyed by analysis name; empirical Bayes
    entries are missing when study exclusion leaves too few studies.
    """
    design = cr.default_design(n_snps=n_snps, seed=seed)
    panel, truth = cr.simulate_panel(design)
    out = {}

    p_nr = cr.no_replicability_pvalues(panel.z)
    p_na = cr.no_association_pvalues(panel.z)
    out["meta_nr"] = cr.evaluate(cr.bh_procedure(p_nr, q), truth, NR)
    out["meta_na"] = cr.evaluate(cr.bh_procedure(p_na, q), truth, NA)

    binned = cr.bin_panel(panel, bins)
    true_pi = design.config_prob_vector()
    for label, u in (("nr", NR), ("na", NA)):
        null_set = cr.null_subset(u, design.n_studies)
        report = oracle_report(binned, truth.statuses, true_pi, null_set, q)
        out[f"oracle_{label}"] = cr.evaluate(report, truth, u)

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        reports, included, _ = run_empirical_bayes(panel, q=q, bins=bins)
    for label, report in reports.items():
        out[f"eb_{label}"] = cr.evaluate(report, truth, NR if label == "nr" else NA)
    out["n_included"] = len(included)
    return out


def concordant_design(n: int, n_snps: int, seed: int) -> dict:
    """A simulate --design payload for n studies in default_design's pattern.

    90% all-null; the rest split over single-signal configurations (weight
    2) and multi-signal configurations whose signals share one sign
    (weight 1). At n = 3 these are default_design's probabilities.
    """
    weights = {}
    for h in itertools.product((-1, 0, 1), repeat=n):
        signed = [s for s in h if s]
        if len(signed) == 1:
            weights[h] = 2
        elif len(signed) > 1 and len(set(signed)) == 1:
            weights[h] = 1
    total = sum(weights.values())
    probs = {"0" * n: 0.9}
    probs.update({"".join("-0+"[s + 1] for s in h): 0.1 * w / total
                  for h, w in weights.items()})
    return {
        "n_studies": n, "n_snps": n_snps, "n_cases": 2000, "n_controls": 2000,
        "config_probs": probs, "effect_ranges": {"1": [0.25, 0.5], "-1": [-0.5, -0.25]},
        "maf_range": [0.05, 0.5], "alpha": -6.0, "seed": seed,
    }


def mean_metric(rows, key, attr):
    values = [getattr(r[key], attr) for r in rows if key in r]
    return float(np.mean(values)), len(values)


def composition_memo(total, parts):
    """memo[s] = int8 array of all compositions of s into `parts` parts."""
    memo = {s: np.array([[s]], dtype=np.int8) for s in range(total + 1)}
    for p in range(2, parts + 1):
        nxt = {}
        for s in range(total + 1):
            rows = sum(memo[s - first].shape[0] for first in range(s + 1))
            out = np.empty((rows, p), dtype=np.int8)
            at = 0
            for first in range(s + 1):
                tail = memo[s - first]
                k = tail.shape[0]
                out[at : at + k, 0] = first
                out[at : at + k, 1:] = tail
                at += k
            nxt[s] = out
        memo = nxt
    return memo


def composition_count(total, parts):
    from math import comb

    return comb(total + parts - 1, parts - 1)


def weighted_loglik(pis, like, counts):
    """Composite log-likelihood of each weight vector in a (P, K) stack."""
    mixture = pis @ like
    if np.any(mixture <= 0):
        return np.where(
            np.any(mixture <= 0, axis=1), -np.inf, (np.log(np.maximum(mixture, 1e-300)) @ counts)
        )
    return np.log(mixture) @ counts


def simplex_grid_search(like, counts, pi_star, steps=50, slack=2e-3, chunk=6_000_000):
    """Exact maximum of the composite log-likelihood over the simplex grid.

    Enumerates every weight vector with entries k/steps on the K-simplex.
    Points that a first-order concavity bound proves to lie below
    ll(pi_star) - slack are skipped (the log-likelihood is concave in the
    weights, so ll(pi) <= ll(pi_star) + grad . (pi - pi_star) is a true
    upper bound); every surviving point is evaluated exactly.

    Returns (best_ll, n_exact, n_total).
    """
    k = like.shape[0]
    mixture_star = pi_star @ like
    ll_star = float(np.log(mixture_star) @ counts)
    grad = like @ (counts / mixture_star)
    base = ll_star - float(pi_star @ grad)
    threshold = ll_star - slack

    best = -np.inf
    n_exact = 0
    n_total = 0
    if k <= 7:
        memo = composition_memo(steps, k)
        rows = memo[steps].astype(np.float64) / steps
        n_total = rows.shape[0]
        for lo in range(0, rows.shape[0], chunk):
            block = rows[lo : lo + chunk]
            lls = weighted_loglik(block, like, counts)
            n_exact += block.shape[0]
            best = max(best, float(lls.max()))
        return best, n_exact, n_total

    outer = k - 7
    memo7 = composition_memo(steps, 7)
    outer_rows = composition_memo(steps, outer) if outer > 1 else None
    g_tail = grad[outer:]
    for s in range(steps + 1):
        tail = memo7[s]
        tail_dot = np.empty(tail.shape[0])
        for lo in range(0, tail.shape[0], chunk):
            tail_dot[lo : lo + chunk] = tail[lo : lo + chunk] @ g_tail
        heads = (
            outer_rows[steps - s]
            if outer_rows is not None
            else np.array([[steps - s]], dtype=np.int8)
        )
        for head in heads:
            head_dot = float(head.astype(np.float64) @ grad[:outer])
            bound = base + (head_dot + tail_dot) / steps
            n_total += tail.shape[0]
            cand = np.nonzero(bound >= threshold)[0]
            if cand.size == 0:
                continue
            pis = np.empty((cand.size, k))
            pis[:, :outer] = head / steps
            pis[:, outer:] = tail[cand].astype(np.float64) / steps
            lls = weighted_loglik(pis, like, counts)
            n_exact += cand.size
            best = max(best, float(lls.max()))
    return best, n_exact, n_total


# Scalar and duplicate views of the vectorized library functions, kept as
# reference oracles for the tests.

concordant_meta_pvalues = cr.no_association_pvalues


def concordant_meta_pvalue(z):
    """Concordant meta-analysis p-value for one feature's z-scores."""
    z = np.asarray(z, dtype=float).ravel()
    return float(cr.no_association_pvalues(z[:, None])[0])


no_association_pvalue = concordant_meta_pvalue


def partial_conjunction_pvalue(z, u):
    """Directional partial-conjunction p-value of one feature's z-scores.

    Benjamini & Heller (2008): on each side, sort the one-sided p-values,
    Fisher-combine the n - u + 1 largest, and double the smaller side,
    capped at 1. Zeros are floored at 1e-300.
    """
    z = np.asarray(z, dtype=float).ravel()
    sides = []
    for p in (norm.cdf(z), norm.sf(z)):
        kept = np.sort(np.maximum(p, cr.metap.P_FLOOR))[u - 1 :]
        sides.append(chi2.sf(-2.0 * np.log(kept).sum(), 2 * kept.size))
    return float(min(1.0, 2.0 * min(sides)))


def mpmath_partial_conjunction_pvalue(z, u, dps=50):
    """partial_conjunction_pvalue at dps digits: normal tails and the Fisher tail in mpmath.

    Tails are floored at the double 1e-300 before taking logs, as in metap.
    |z| is capped at 1e4, where the tails are that floor and 1 to any
    working precision (mpmath overflows near 1e300).
    """
    with mpmath.workdps(dps):
        floor = mpmath.mpf(cr.metap.P_FLOOR)
        z = np.clip(np.asarray(z, dtype=float), -1e4, 1e4)
        sides = []
        for sign in (1, -1):
            tails = sorted(max(mpmath.ncdf(sign * mpmath.mpf(float(x))), floor) for x in z)
            kept = tails[u - 1 :]
            stat = -sum(mpmath.log(t) for t in kept)
            sides.append(mpmath.gammainc(len(kept), stat, mpmath.inf, regularized=True))
        return float(min(mpmath.mpf(1), 2 * min(sides)))


def no_replicability_pvalue(z):
    return partial_conjunction_pvalue(z, 2)


def fisher_combine(p):
    """Fisher's combination: chi-square upper tail of -2 * sum(log p).

    Exact zeros are floored at 1e-300 before taking logs.
    """
    p = np.asarray(p, dtype=float).ravel()
    if p.size == 0:
        raise ValueError("cannot combine an empty set of p-values")
    if np.any(~np.isfinite(p)) or np.any(p < 0) or np.any(p > 1):
        raise ValueError("p-values must lie in [0, 1]")
    stat = -2.0 * np.log(np.maximum(p, cr.metap.P_FLOOR)).sum()
    return float(chdtrc(2 * p.size, stat))


def z_from_table(table):
    return float(cr.z_from_tables(np.asarray(table)))


def three_sum_pearson_statistic(tables):
    """Pearson chi-square (2 df) of a stack of 2x3 tables, by array reductions.

    Row, column and grand totals are three sums over the float tables, and
    the statistic is one sum over all six cells: the reference whose bits
    sim.pearson_statistic keeps.
    """
    t = np.asarray(tables, dtype=float)
    row = t.sum(axis=2, keepdims=True)
    col = t.sum(axis=1, keepdims=True)
    total = t.sum(axis=(1, 2), keepdims=True)
    expected = row * col / total
    with np.errstate(invalid="ignore", divide="ignore"):
        cells = np.where(expected > 0, (t - expected) ** 2 / expected, 0.0)
    return cells.sum(axis=(1, 2))


def study_qualifies(fit, threshold=cr.twogroup.DEFAULT_EXCLUSION_THRESHOLD):
    """True when the estimated null fraction is below the exclusion threshold."""
    return fit.pi0_hat < threshold


def config_likelihood(snp_bins, h, cond):
    """Probability of one feature's bin vector under configuration h."""
    if len(snp_bins) != cond.n_studies or len(h) != cond.n_studies:
        raise cr.DataError("bin vector, configuration and densities disagree on n")
    return float(np.prod(cond.probs[np.arange(cond.n_studies), np.add(h, 1), snp_bins]))


def local_fdr_set(snp_bins, model, null_set):
    """Posterior probability that the configuration lies in the null subset."""
    if null_set.n != model.n_studies:
        raise cr.DataError("hypothesis set and model disagree on the study count")
    post = cr.posterior(snp_bins, model)
    return float(min(1.0, post[list(null_set.members)].sum()))


def gather_likelihood_matrix(cond, status_idx, combos):
    """Reference (K, U) configuration likelihood: one gather per study.

    The per-configuration form of multistudy._likelihood_matrix; the two
    multiply in the same order, so their results are bit-identical.
    """
    like = np.ones((status_idx.shape[0], combos.shape[0]))
    for i in range(status_idx.shape[1]):
        like *= cond.probs[i, status_idx[:, i]][:, combos[:, i]]
    return like


def dense_em(binned, cond, tol=cr.multistudy.EM_DEFAULT_TOL,
             max_iter=cr.multistudy.EM_DEFAULT_MAX_ITER):
    """Reference EM on the dense (K, U) gather matrix: the weights and log-likelihood trace.

    Plain mixture-weight EM from uniform weights with em_fit's stopping rule.
    """
    status_idx = np.array(cr.enumerate_configurations(cond.n_studies)) + 1
    combos, _, counts = unique_rows_collapse(binned.bin_index)
    like = gather_likelihood_matrix(cond, status_idx, combos)
    pi = np.full(like.shape[0], 1.0 / like.shape[0])
    trace = []
    for _ in range(max_iter):
        mixture = pi @ like
        trace.append(float(counts @ np.log(mixture)))
        if len(trace) > 1 and abs(trace[-1] - trace[-2]) <= tol * abs(trace[-2]):
            break
        pi = pi * (like @ (counts / mixture)) / binned.n_snps
        pi /= pi.sum()
    return pi, np.array(trace)


def dense_local_fdr(binned, cond, pi, null_set):
    """Reference local FDR: posterior null mass of each feature from the dense gather matrix."""
    status_idx = np.array(cr.enumerate_configurations(cond.n_studies)) + 1
    combos, inverse, _ = unique_rows_collapse(binned.bin_index)
    like = gather_likelihood_matrix(cond, status_idx, combos)
    members = list(null_set.members)
    return np.minimum(pi[members] @ like[members] / (pi @ like), 1.0)[inverse]


def grid(lo, hi, b):
    """Edges, centers and width of b equal bins on [lo, hi]."""
    edges = np.linspace(lo, hi, b + 1)
    centers = 0.5 * (edges[:-1] + edges[1:])
    return edges, centers, (hi - lo) / b


def make_binned(bin_index, lo=-6.0, hi=6.0, b=None):
    """A BinnedPanel of given bin indices on one shared equal-width grid."""
    bin_index = np.asarray(bin_index, dtype=np.int32)
    n = bin_index.shape[0]
    if b is None:
        b = max(int(bin_index.max()) + 1 if bin_index.size else 1, 10)
    edges, centers, width = grid(lo, hi, b)
    return cr.BinnedPanel(
        b,
        np.tile(edges, (n, 1)),
        np.tile(centers, (n, 1)),
        np.full(n, width),
        bin_index,
    )


def analytic_conditionals(n, b=40, lo=-6.0, hi=6.0, mode=2.5, sd=1.0):
    """Truncated symmetric-mixture conditionals on a shared grid."""
    _, centers, _ = grid(lo, hi, b)
    phi = norm.pdf(centers)
    alt = 0.5 * norm.pdf(centers, -mode, sd) + 0.5 * norm.pdf(centers, mode, sd)
    pos = np.where(centers > 0, alt, 0.0)
    neg = np.where(centers < 0, alt, 0.0)
    probs = np.stack([neg / neg.sum(), phi / phi.sum(), pos / pos.sum()])
    return cr.ConditionalBinDensities(
        np.tile(centers, (n, 1)), np.tile(probs, (n, 1, 1))
    )


def empirical_conditionals(binned, truth):
    """Relative bin frequencies per (study, status), with normal fallbacks.

    A status with no features in a study falls back to the standard normal
    at the centers, truncated to the matching half-line for signed states.
    The frequencies themselves are not truncated.
    """
    n, b = binned.centers.shape
    probs = np.zeros((n, 3, b))
    for i in range(n):
        centers = binned.centers[i]
        for s in (-1, 0, 1):
            sel = truth[i] == s
            if np.any(sel):
                freq = np.bincount(binned.bin_index[i, sel], minlength=b).astype(float)
                probs[i, s + 1] = freq / freq.sum()
            else:
                w = cr.twogroup.normal_pdf(centers)
                if s:
                    w = np.where(s * centers > 0, w, 0.0)
                if w.sum() <= 0:
                    raise cr.ModelError("cannot build a fallback conditional density")
                probs[i, s + 1] = w / w.sum()
    return cr.ConditionalBinDensities(binned.centers.copy(), probs)


def oracle_report(binned, truth, true_pi, null_set, q):
    """Reference analysis that knows the true statuses and weights.

    Conditional bin probabilities are the empirical relative frequencies
    given the true status, and the true configuration weights replace the
    EM estimate. Empirical conditionals are not truncated to a half-line,
    so local FDR comes from the dense gather matrix.
    """
    truth = np.asarray(truth)
    if truth.shape != binned.bin_index.shape:
        raise cr.DataError("truth matrix must match the binned panel shape")
    if not np.all(np.isin(truth, (-1, 0, 1))):
        raise cr.DataError("truth entries must be -1, 0 or +1")
    cond = empirical_conditionals(binned, truth)
    lf = dense_local_fdr(binned, cond, np.asarray(true_pi, dtype=float), null_set)
    return cr.fdr_report(lf, q, hypothesis=null_set)


def unique_rows_collapse(bin_index):
    """Reference bin collapse: np.unique over the feature rows."""
    combos, inverse, counts = np.unique(
        bin_index.T, axis=0, return_inverse=True, return_counts=True
    )
    return combos, inverse.ravel(), counts.astype(float)


# Row-by-row TSV readers and writers: the reference oracles of the columnar
# codec in crossrep.io. read_truth_rows names a bad theta or maf cell by its
# header, as the status column always did.

def _read_lines(path):
    """Every line of a text file, read whole; an empty file is a DataError."""
    with cio._reading(path) as handle:
        lines = handle.read().splitlines()
    if not lines:
        raise cr.DataError(f"{path}: empty file")
    return lines


def _parse_float(token, path, lineno, column):
    try:
        value = float(token)
    except ValueError as exc:
        raise cr.DataError(
            f"{path}: line {lineno}: column {column!r}: {token!r} is not a number"
        ) from exc
    if not np.isfinite(value):
        raise cr.DataError(
            f"{path}: line {lineno}: column {column!r}: missing or non-finite value"
        )
    return value


def _check_line(fields, width, path, lineno):
    """Every reader's line check: a blank line, then the field count."""
    if fields == [""]:
        raise cr.DataError(f"{path}: line {lineno}: blank line")
    if len(fields) != width:
        raise cr.DataError(f"{path}: line {lineno}: expected {width} fields, got {len(fields)}")


def _parse_status(token, path, lineno, column):
    try:
        value = int(token)
    except ValueError:
        value = None
    if value not in (-1, 0, 1):
        raise cr.DataError(
            f"{path}: line {lineno}: column {column!r}: {token!r} is not -1, 0 or +1"
        )
    return value


def read_zpanel_rows(path):
    lines = _read_lines(path)
    header = lines[0].split("\t")
    if header[0] != "snp_id" or len(header) < 2:
        raise cr.DataError(f"{path}: line 1: header must be snp_id followed by study ids")
    study_ids = header[1:]
    snp_ids = []
    rows = []
    for lineno, line in enumerate(lines[1:], start=2):
        fields = line.split("\t")
        _check_line(fields, len(header), path, lineno)
        snp_ids.append(fields[0])
        rows.append(
            [
                _parse_float(tok, path, lineno, study_ids[k])
                for k, tok in enumerate(fields[1:])
            ]
        )
    if not rows:
        raise cr.DataError(f"{path}: no data rows")
    return cr.ZPanel(tuple(snp_ids), tuple(study_ids), np.array(rows).T)


def write_zpanel_rows(panel, path):
    lines = ["snp_id\t" + "\t".join(panel.study_ids)]
    for j, snp in enumerate(panel.snp_ids):
        values = "\t".join("%.17g" % v for v in panel.z[:, j])
        lines.append(f"{snp}\t{values}")
    cio._atomic_write(path, "\n".join(lines) + "\n")


def write_analysis_report_rows(path, snp_ids, reports):
    labels = list(reports)
    header = ["snp_id"]
    for label in labels:
        header += [f"local_fdr_{label}", f"fdr_{label}", f"rejected_{label}"]
    lines = ["\t".join(header)]
    for j, snp in enumerate(snp_ids):
        fields = [snp]
        for label in labels:
            report = reports[label]
            fields += [
                "%.6g" % report.local_fdr[j],
                "%.6g" % report.fdr_estimate[j],
                "%d" % report.rejected[j],
            ]
        lines.append("\t".join(fields))
    cio._atomic_write(path, "\n".join(lines) + "\n")


def write_comparison_report_rows(path, snp_ids, columns):
    labels = list(columns)
    header = ["snp_id"]
    for label in labels:
        header += [f"p_{label}", f"p_adj_{label}", f"rejected_{label}"]
    lines = ["\t".join(header)]
    for j, snp in enumerate(snp_ids):
        fields = [snp]
        for label in labels:
            col = columns[label]
            fields += [
                "%.6g" % col["p"][j],
                "%.6g" % col["p_adjusted"][j],
                "%d" % col["rejected"][j],
            ]
        lines.append("\t".join(fields))
    cio._atomic_write(path, "\n".join(lines) + "\n")


def read_report_rejections_rows(path):
    lines = _read_lines(path)
    header = lines[0].split("\t")
    if header[0] != "snp_id":
        raise cr.DataError(f"{path}: first column must be snp_id")
    labels = {
        name.removeprefix("rejected_"): k
        for k, name in enumerate(header)
        if name.startswith("rejected_")
    }
    if not labels:
        raise cr.DataError(f"{path}: no rejected_* columns found")
    snp_ids = []
    masks = {label: [] for label in labels}
    for lineno, line in enumerate(lines[1:], start=2):
        fields = line.split("\t")
        _check_line(fields, len(header), path, lineno)
        snp_ids.append(fields[0])
        for label, k in labels.items():
            if fields[k] not in ("0", "1"):
                raise cr.DataError(f"{path}: line {lineno}: bad rejection flag {fields[k]!r}")
            masks[label].append(fields[k] == "1")
    return tuple(snp_ids), {label: np.array(v, dtype=bool) for label, v in masks.items()}


def write_truth_rows(truth, study_ids, path):
    header = ["snp_id"]
    for sid in study_ids:
        header += [f"h_{sid}", f"theta_{sid}", f"maf_{sid}"]
    lines = ["\t".join(header)]
    for j, snp in enumerate(truth.snp_ids):
        fields = [snp]
        for i in range(len(study_ids)):
            fields += [
                "%d" % truth.statuses[i, j],
                "%.17g" % truth.theta[i, j],
                "%.17g" % truth.maf[i, j],
            ]
        lines.append("\t".join(fields))
    cio._atomic_write(path, "\n".join(lines) + "\n")


def read_truth_rows(path):
    lines = _read_lines(path)
    header = lines[0].split("\t")
    if header[0] != "snp_id" or len(header) < 4 or (len(header) - 1) % 3 != 0:
        raise cr.DataError(f"{path}: malformed truth header")
    study_ids = [name.removeprefix("h_") for name in header[1::3]]
    n = len(study_ids)
    snp_ids, statuses, theta, maf = [], [], [], []
    for lineno, line in enumerate(lines[1:], start=2):
        fields = line.split("\t")
        _check_line(fields, len(header), path, lineno)
        snp_ids.append(fields[0])
        statuses.append(
            [
                _parse_status(fields[1 + 3 * i], path, lineno, header[1 + 3 * i])
                for i in range(n)
            ]
        )
        theta.append(
            [_parse_float(fields[2 + 3 * i], path, lineno, header[2 + 3 * i]) for i in range(n)]
        )
        maf.append(
            [_parse_float(fields[3 + 3 * i], path, lineno, header[3 + 3 * i]) for i in range(n)]
        )
    truth = cr.TruthPanel(
        tuple(snp_ids),
        np.array(statuses, dtype=np.int8).T,
        np.array(theta).T,
        np.array(maf).T,
    )
    return truth, study_ids
