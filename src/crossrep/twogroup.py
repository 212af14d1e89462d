"""Per-study two-group model on binned z-scores.

For each study this module bins the z-scores, estimates the fraction of
null features from the central half of the null distribution, fits the
marginal density with a Poisson log-linear model on the bin counts, and
extracts the alternative (non-null) density component used by the
cross-study model. A study whose estimated null fraction reaches 1 has no
extractable alternative and is flagged as not qualifying.

All densities on a bin grid are taken with respect to the grid measure:
the null reference density is the standard normal renormalized so that it
integrates to exactly 1 over the bins, which keeps the single-study and
cross-study local FDR formulas consistent to machine precision.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from . import errors
from .errors import (DEFAULT_BIN_COUNT, DataError, DegenerateAlternativeError, FitError,
                     StudyExcludedError)

DEFAULT_EXCLUSION_THRESHOLD = 1.0 - 1e-9
POLY_DEGREE = 7
IRLS_MAX_ITER = 200
IRLS_TOL = 1e-8
PI0_STABLE_SIZE = 1000

_CENTRAL_LO = np.float64(-0.6744897501960817)  # scipy.special.ndtri(0.25), bit for bit
_CENTRAL_HI = np.float64(0.6744897501960817)  # scipy.special.ndtri(0.75)


def _breaks(text: str) -> bool:
    return "\t" in text or "\n" in text or "\r" in text  # where the readers end a field or line


def field_ids(ids, kind: str) -> tuple:
    """ids as strings that a TSV field holds: an id with a tab, LF or CR is refused."""
    ids = tuple(map(str, ids))
    if _breaks("".join(ids)):
        bad = next(filter(_breaks, ids))
        raise DataError(f"{kind} identifier {bad!r} holds a tab or a line break")
    return ids


@dataclass(frozen=True, eq=False)
class ZPanel:
    """n x M matrix of study z-scores with feature and study identifiers."""

    snp_ids: tuple
    study_ids: tuple
    z: np.ndarray

    def __post_init__(self):
        snp_ids, study_ids = field_ids(self.snp_ids, "snp"), field_ids(self.study_ids, "study")
        z = np.array(self.z, dtype=float)
        if z.ndim != 2:
            raise DataError("z must be a 2-d array of shape (n_studies, n_snps)")
        if z.shape != (len(study_ids), len(snp_ids)):
            raise DataError(f"z has shape {z.shape}, expected ({len(study_ids)}, {len(snp_ids)})")
        if len(snp_ids) < 1 or len(study_ids) < 1:
            raise DataError("panel needs at least one study and one snp")
        for kind, ids in (("snp", snp_ids), ("study", study_ids)):
            if len(set(ids)) != len(ids):
                seen = set()  # the first id seen twice
                repeat = next(s for s in ids if s in seen or seen.add(s))
                raise DataError(f"duplicate {kind} identifier {repeat!r}")
        if "" in study_ids:
            raise DataError("empty study identifier")
        if not np.all(np.isfinite(z)):
            raise DataError("z-scores must all be finite")
        z.setflags(write=False)
        object.__setattr__(self, "snp_ids", snp_ids)
        object.__setattr__(self, "study_ids", study_ids)
        object.__setattr__(self, "z", z)

    @property
    def n_studies(self) -> int:
        return len(self.study_ids)

    @property
    def n_snps(self) -> int:
        return len(self.snp_ids)


@dataclass(frozen=True, eq=False)
class BinnedPanel:
    """Equal-width per-study binning of a z-score panel."""

    bin_count: int
    edges: np.ndarray      # (n, B+1)
    centers: np.ndarray    # (n, B)
    widths: np.ndarray     # (n,)
    bin_index: np.ndarray  # (n, M), 0-based

    def __post_init__(self):
        self.bin_index.setflags(write=False)  # a fit's likelihood is reused while it is this array

    @property
    def n_studies(self) -> int:
        return self.edges.shape[0]

    @property
    def n_snps(self) -> int:
        return self.bin_index.shape[1]

    def counts(self, study: int) -> np.ndarray:
        return np.bincount(self.bin_index[study], minlength=self.bin_count).astype(float)

    def select_studies(self, indices) -> "BinnedPanel":
        indices = list(indices)
        return BinnedPanel(
            self.bin_count,
            self.edges[indices],
            self.centers[indices],
            self.widths[indices],
            self.bin_index[indices],
        )


def assign_bins(z: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """Map values to 0-based bin indices; values on an edge go to the lower bin."""
    z = np.asarray(z, dtype=float)
    if np.any(z < edges[0]) or np.any(z > edges[-1]):
        raise DataError("values outside the bin range")
    idx = np.searchsorted(edges, z, side="left") - 1
    return np.clip(idx, 0, len(edges) - 2).astype(np.int32)


def bin_panel(panel: ZPanel, bin_count: int = DEFAULT_BIN_COUNT) -> BinnedPanel:
    """Bin each study's z-scores into bin_count equal-width bins.

    Edges span [min - pad, max + pad] with pad equal to 1% of the study's
    z range (a unit pad when the range is degenerate), so every value falls
    strictly inside the grid.
    """
    bin_count = errors.bin_count(bin_count)
    n, m = panel.z.shape
    edges = np.empty((n, bin_count + 1))
    centers = np.empty((n, bin_count))
    widths = np.empty(n)
    bin_index = np.empty((n, m), dtype=np.int32)
    for i in range(n):
        zi = panel.z[i]
        lo, hi = float(zi.min()), float(zi.max())
        pad = 0.01 * (hi - lo)
        if pad == 0.0:
            pad = 1.0
        with np.errstate(over="ignore", invalid="ignore"):  # the density fit centers the grid
            edges[i] = np.linspace(lo - pad, hi + pad, bin_count + 1)
            centers[i] = 0.5 * (edges[i, :-1] + edges[i, 1:])
            widths[i] = (edges[i, -1] - edges[i, 0]) / bin_count
            if not np.isfinite([centers[i].mean(), widths[i]]).all():
                raise FitError(f"study {panel.study_ids[i]}: z-scores too large to bin and center")
        bin_index[i] = assign_bins(zi, edges[i])
    return BinnedPanel(bin_count, edges, centers, widths, bin_index)


def estimate_pi0(z_study: np.ndarray) -> float:
    """Fraction of null features, from counts in the central null quartiles.

    Counts z-scores inside [Phi^-1(0.25), Phi^-1(0.75)], divides by half the
    panel size, and clamps at 1. Stable only for large panels; fit_study
    warns below PI0_STABLE_SIZE observations.
    """
    z = np.asarray(z_study, dtype=float).ravel()
    if z.size == 0:
        raise DataError("cannot estimate the null fraction from an empty vector")
    inside = int(np.count_nonzero((z >= _CENTRAL_LO) & (z <= _CENTRAL_HI)))
    return min(1.0, inside / (0.5 * z.size))


def normal_pdf(x):
    """Standard normal density, computed as scipy's norm.pdf computes it."""
    with np.errstate(over="ignore"):  # x**2 = inf gives density 0
        return np.exp(-x**2 / 2.0) / np.sqrt(2 * np.pi)


def null_bin_density(centers: np.ndarray, width: float) -> np.ndarray:
    """Standard normal density renormalized to integrate to 1 over the grid.

    A grid where it underflows to 0 at every center raises StudyExcludedError.
    """
    w = normal_pdf(np.asarray(centers, dtype=float))
    total = w.sum()
    if not total > 0:
        raise StudyExcludedError("the standard normal has no mass at the bin centers "
                                 f"(nearest center {np.abs(centers).min():.6g})")
    return w / (total * width)


def _poisson_deviance(y: np.ndarray, mu: np.ndarray) -> float:
    term = mu - y
    pos = y > 0
    term[pos] += y[pos] * np.log(y[pos] / mu[pos])
    return 2.0 * float(term.sum())


def estimate_marginal_density(
    counts: np.ndarray,
    centers: np.ndarray,
    width: float,
) -> np.ndarray:
    """Fit the marginal z density from bin counts by Poisson regression.

    The expected bin count is modeled as exp of a degree-7 polynomial in
    the bin center, fit by iteratively reweighted least squares on an
    orthonormalized polynomial basis. Fitted counts are normalized into a
    strictly positive density over the grid.

    Parameters
    ----------
    counts : array of shape (B,)
        Observed counts per bin; total must be at least 100.
    centers : array of shape (B,)
        Bin centers.
    width : float
        Common bin width.

    Returns
    -------
    f_hat : array of shape (B,)
        Density values at the bin centers; f_hat.sum() * width == 1.
    """
    y = np.asarray(counts, dtype=float)
    x = np.asarray(centers, dtype=float)
    if y.ndim != 1 or y.shape != x.shape:
        raise DataError("counts and centers must be 1-d arrays of equal length")
    if np.any(y < 0):
        raise DataError("bin counts must be nonnegative")
    if y.sum() < 100:
        raise DataError("need at least 100 observations to fit the marginal density")

    # Orthonormal polynomial basis on rescaled centers keeps IRLS well
    # conditioned at degree 7.
    t = x - x.mean()
    scale = np.abs(t).max()
    if scale > 0:
        t = t / scale
    design, _ = np.linalg.qr(np.vander(t, POLY_DEGREE + 1, increasing=True))

    mu = y + 0.5
    eta = np.log(mu)
    deviance = _poisson_deviance(y, mu)
    for _ in range(IRLS_MAX_ITER):
        sw = np.sqrt(mu)
        work = eta + (y - mu) / mu
        try:
            beta, *_ = np.linalg.lstsq(design * sw[:, None], work * sw, rcond=None)
        except np.linalg.LinAlgError as exc:
            raise FitError(f"Poisson density fit failed: {exc}") from exc
        eta = np.clip(design @ beta, -300.0, 300.0)
        mu = np.exp(eta)
        new_deviance = _poisson_deviance(y, mu)
        if abs(new_deviance - deviance) < IRLS_TOL * (abs(deviance) + 0.1):
            break
        deviance = new_deviance
    else:
        raise FitError(f"Poisson density fit did not converge in {IRLS_MAX_ITER} iterations")
    return mu / (mu.sum() * width)


def alternative_density(
    f_hat: np.ndarray, pi0_hat: float, centers: np.ndarray, width: float
) -> np.ndarray:
    """Alternative component (f_hat - pi0 * f0) / (1 - pi0), cleaned up.

    f0 is the grid-renormalized standard normal. Negative values (possible
    with estimation noise) are clamped to zero and the result renormalized
    to integrate to 1 over the grid.
    """
    if pi0_hat >= 1.0:
        raise StudyExcludedError(
            "estimated null fraction is 1; no alternative component to extract"
        )
    f0 = null_bin_density(centers, width)
    fa = (np.asarray(f_hat, dtype=float) - pi0_hat * f0) / (1.0 - pi0_hat)
    fa = np.clip(fa, 0.0, None)
    mass = fa.sum() * width
    if mass <= 0.0:
        raise DegenerateAlternativeError("alternative density vanished everywhere")
    return fa / mass


def half_line(values: np.ndarray, centers: np.ndarray, status: int) -> np.ndarray:
    """values on the half-line of a signed status (z > 0 for +1, z < 0 for -1), else 0.

    A DegenerateAlternativeError when no mass of values lies on that half-line.
    """
    part = np.where(status * centers > 0, values, 0.0)
    if part.sum() <= 0:
        side = "z > 0" if status > 0 else "z < 0"
        raise DegenerateAlternativeError(f"alternative density has no mass on {side}")
    return part


@dataclass(frozen=True, eq=False)
class TwoGroupFit:
    """Per-study two-group fit on a bin grid.

    fA_hat is None exactly when the study does not qualify (no stable
    alternative component); exclusion_reason then says why.
    """

    study_id: str
    pi0_hat: float
    centers: np.ndarray
    width: float
    f_hat: np.ndarray
    fA_hat: np.ndarray | None
    qualifies: bool
    exclusion_reason: str | None = None


def local_fdr_single(z_bin: int, fit: TwoGroupFit) -> float:
    """Single-study local FDR at a bin: min(1, pi0 * f0 / f_hat) at its center."""
    f0 = null_bin_density(fit.centers, fit.width)
    return min(1.0, fit.pi0_hat * f0[z_bin] / fit.f_hat[z_bin])


def fit_study(
    panel: ZPanel,
    binned: BinnedPanel,
    study: int,
    exclusion_threshold: float = DEFAULT_EXCLUSION_THRESHOLD,
) -> TwoGroupFit:
    """Run the full two-group estimation for one study column."""
    if panel.n_snps < PI0_STABLE_SIZE:
        warnings.warn(
            f"study {panel.study_ids[study]!r}: null-fraction estimate from only "
            f"{panel.n_snps} z-scores is unstable"
        )
    pi0 = estimate_pi0(panel.z[study])
    centers = binned.centers[study]
    width = float(binned.widths[study])
    try:
        f_hat = estimate_marginal_density(binned.counts(study), centers, width)
    except FitError as exc:
        raise FitError(f"study {panel.study_ids[study]!r}: {exc}") from exc
    fa = None
    reason = None
    qualifies = pi0 < exclusion_threshold
    if not qualifies:
        reason = f"estimated null fraction {pi0:.6g} is at or above {exclusion_threshold:.12g}"
    else:
        try:
            fa = alternative_density(f_hat, pi0, centers, width)
            for status in (1, -1):  # the cross-study model needs alternative mass on both sides
                half_line(fa, centers, status)
        except (StudyExcludedError, DegenerateAlternativeError) as exc:
            qualifies, fa, reason = False, None, str(exc)
    return TwoGroupFit(
        study_id=panel.study_ids[study],
        pi0_hat=pi0,
        centers=centers,
        width=width,
        f_hat=f_hat,
        fA_hat=fa,
        qualifies=qualifies,
        exclusion_reason=reason,
    )


def fit_panel(
    panel: ZPanel,
    binned: BinnedPanel,
    exclusion_threshold: float = DEFAULT_EXCLUSION_THRESHOLD,
) -> list[TwoGroupFit]:
    """Two-group fits for every study in the panel."""
    if panel.n_studies != binned.n_studies or panel.n_snps != binned.n_snps:
        raise DataError("panel and binned panel shapes disagree")
    return [
        fit_study(panel, binned, i, exclusion_threshold)
        for i in range(panel.n_studies)
    ]
