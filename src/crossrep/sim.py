"""Case-control panel generator and truth-scored evaluation metrics.

Features are simulated independently. Each feature draws an
association-status configuration, per-study effect sizes and minor allele
frequencies; genotype dose tables for a fixed number of cases and controls
follow from the logistic disease model combined with Hardy-Weinberg dose
frequencies via Bayes' rule. Tables become z-scores through either the
signed Cochran-Armitage trend statistic or the signed two-sided
contingency transform (the panel default); both are standard normal under
no association.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .configspace import (
    HypothesisKind,
    enumerate_configurations,
    null_truth_mask,
    validate_configuration,
)
from .errors import ConfigError, DataError
from .twogroup import ZPanel

DOSE_SCORES = np.array([0.0, 0.5, 1.0])

_STREAM_TRUTH = 0
_STREAM_GENOTYPES = 1


def _stream(seed: int, *key: int) -> np.random.Generator:
    """Counter-based generator tied to (seed, purpose, study) for reproducibility."""
    return np.random.Generator(
        np.random.Philox(np.random.SeedSequence(entropy=seed, spawn_key=key))
    )


@dataclass(frozen=True, eq=False)
class SimDesign:
    """Full specification of one simulated multi-study panel."""

    n_studies: int
    n_snps: int
    n_cases: int
    n_controls: int
    config_probs: dict
    effect_ranges: dict
    maf_range: tuple
    alpha: float
    seed: int

    def __post_init__(self):
        if self.n_studies < 1 or self.n_snps < 1:
            raise ConfigError("need at least one study and one snp")
        if self.n_cases < 1 or self.n_controls < 1:
            raise ConfigError("need at least one case and one control")
        probs = {}
        for h, p in self.config_probs.items():
            h = validate_configuration(h)
            if len(h) != self.n_studies:
                raise ConfigError("configuration length does not match the study count")
            if p < 0:
                raise ConfigError("configuration probabilities must be nonnegative")
            probs[h] = float(p)
        if abs(sum(probs.values()) - 1.0) > 1e-9:
            raise ConfigError("configuration probabilities must sum to 1")
        lo, hi = self.maf_range
        if not (0.0 < lo <= hi <= 0.5):
            raise ConfigError("minor allele frequencies must lie in (0, 0.5]")
        for s in (1, -1):
            a, b = self.effect_ranges[s]
            if a > b:
                raise ConfigError("effect range bounds must be ordered")
            if s * a <= 0 or s * b <= 0:
                raise ConfigError("effect sign must match the association status")
        object.__setattr__(self, "config_probs", probs)
        object.__setattr__(self, "maf_range", (float(lo), float(hi)))

    def config_prob_vector(self) -> np.ndarray:
        """Probabilities aligned with enumerate_configurations(n_studies)."""
        space = enumerate_configurations(self.n_studies)
        return np.array([self.config_probs.get(h, 0.0) for h in space])


def default_design(n_snps: int = 10_000, seed: int = 0) -> SimDesign:
    """Three-study case-control design with 2000 cases and 2000 controls.

    90% of features are null everywhere; the six single-signal
    configurations get 1% each and the eight direction-concordant
    multi-signal configurations (|sum of statuses| >= 2) get 0.5% each.
    Effects are U(0.25, 0.5) per positive status, mirrored for negative;
    minor allele frequencies are U(0.05, 0.5); the intercept -6 puts the
    baseline disease odds at e^-6, about 0.0025.
    """
    probs = {}
    for h in enumerate_configurations(3):
        total = sum(h)
        n_signed = sum(1 for s in h if s != 0)
        if n_signed == 0:
            probs[h] = 0.90
        elif n_signed == 1:
            probs[h] = 0.01
        elif abs(total) >= 2:
            probs[h] = 0.005
    return SimDesign(
        n_studies=3,
        n_snps=n_snps,
        n_cases=2000,
        n_controls=2000,
        config_probs=probs,
        effect_ranges={1: (0.25, 0.5), -1: (-0.5, -0.25)},
        maf_range=(0.05, 0.50),
        alpha=-6.0,
        seed=seed,
    )


@dataclass(frozen=True, eq=False)
class TruthPanel:
    """True statuses, effect sizes and allele frequencies per (study, snp)."""

    snp_ids: tuple
    statuses: np.ndarray  # (n, M) in {-1, 0, 1}
    theta: np.ndarray     # (n, M)
    maf: np.ndarray       # (n, M)

    def __post_init__(self):
        statuses = np.asarray(self.statuses)
        theta = np.asarray(self.theta, dtype=float)
        maf = np.asarray(self.maf, dtype=float)
        if statuses.shape != theta.shape or statuses.shape != maf.shape:
            raise DataError("truth matrices must share one shape")
        if not np.all(np.isin(statuses, (-1, 0, 1))):
            raise DataError("statuses must be -1, 0 or +1")
        if np.any(np.sign(theta) != statuses):
            raise DataError("effect sign must match the status (zero iff null)")
        object.__setattr__(self, "snp_ids", tuple(str(s) for s in self.snp_ids))
        object.__setattr__(self, "statuses", statuses)
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "maf", maf)

    @property
    def n_snps(self) -> int:
        return self.statuses.shape[1]


def draw_truth(design: SimDesign) -> TruthPanel:
    """Sample configurations, effects and allele frequencies for a design."""
    rng = _stream(design.seed, _STREAM_TRUTH)
    space = enumerate_configurations(design.n_studies)
    probs = design.config_prob_vector()
    picks = rng.choice(len(space), size=design.n_snps, p=probs)
    statuses = np.array(space, dtype=np.int8).T[:, picks]
    theta = np.zeros(statuses.shape)
    for s in (1, -1):
        lo, hi = design.effect_ranges[s]
        mask = statuses == s
        theta[mask] = rng.uniform(lo, hi, size=int(mask.sum()))
    maf = rng.uniform(design.maf_range[0], design.maf_range[1], size=statuses.shape)
    snp_ids = tuple(f"snp_{j:06d}" for j in range(design.n_snps))
    return TruthPanel(snp_ids, statuses, theta, maf)


def disease_prob_per_dose(theta: np.ndarray, alpha: float) -> np.ndarray:
    """Disease probability at each dose (0, 0.5, 1) under the logistic model."""
    from scipy.special import expit

    theta = np.asarray(theta, dtype=float)
    return expit(alpha + theta[..., None] * DOSE_SCORES)


def case_control_dose_probs(
    theta: np.ndarray, maf: np.ndarray, alpha: float
) -> tuple[np.ndarray, np.ndarray]:
    """Dose distributions among cases and controls, by Bayes' rule.

    Doses start from Hardy-Weinberg frequencies at the given minor allele
    frequency; conditioning on case status reweights them by the logistic
    disease probabilities.
    """
    maf = np.asarray(maf, dtype=float)
    hwe = np.stack(
        [(1 - maf) ** 2, 2 * maf * (1 - maf), maf**2], axis=-1
    )
    p_dis = disease_prob_per_dose(theta, alpha)
    joint_case = hwe * p_dis
    joint_ctrl = hwe * (1.0 - p_dis)
    p_case = joint_case / joint_case.sum(axis=-1, keepdims=True)
    p_ctrl = joint_ctrl / joint_ctrl.sum(axis=-1, keepdims=True)
    return p_case, p_ctrl


def simulate_study(truth: TruthPanel, design: SimDesign, study: int) -> np.ndarray:
    """Per-feature 2x3 genotype-dose tables (cases row 0, controls row 1)."""
    rng = _stream(design.seed, _STREAM_GENOTYPES, study)
    p_case, p_ctrl = case_control_dose_probs(
        truth.theta[study], truth.maf[study], design.alpha
    )
    cases = rng.multinomial(design.n_cases, p_case)
    controls = rng.multinomial(design.n_controls, p_ctrl)
    return np.stack([cases, controls], axis=1)


def z_from_tables(tables: np.ndarray) -> np.ndarray:
    """Signed Cochran-Armitage trend z-scores for a stack of 2x3 tables.

    Dose scores are (0, 0.5, 1); the sign is positive when cases are
    allele-enriched. The variance is the margin-conditional one, so the
    statistic is standard normal for large tables under no association.
    Zero-variance (monomorphic) tables get z = 0.
    """
    t = np.asarray(tables, dtype=float)
    squeeze = t.ndim == 2
    if squeeze:
        t = t[None]
    if t.ndim != 3 or t.shape[1:] != (2, 3):
        raise DataError("expected tables of shape (..., 2, 3)")
    cases = t[:, 0, :]
    controls = t[:, 1, :]
    col = cases + controls
    n_cases = cases.sum(axis=1)
    n_controls = controls.sum(axis=1)
    total = n_cases + n_controls
    if np.any(n_cases <= 0) or np.any(n_controls <= 0):
        raise DataError("each table needs at least one case and one control")
    # centered statistic written as (C * sum(s*r) - R * sum(s*c)) / N so that
    # swapping the case and control rows negates it exactly in float arithmetic
    centered = (n_controls * (cases @ DOSE_SCORES) - n_cases * (controls @ DOSE_SCORES)) / total
    mean_score = (col @ DOSE_SCORES) / total
    score_var = np.clip((col @ DOSE_SCORES**2) / total - mean_score**2, 0.0, None)
    var = n_cases * n_controls * score_var / (total - 1)
    with np.errstate(divide="ignore", invalid="ignore"):
        z = np.where(var > 0, centered / np.sqrt(var), 0.0)
    return z[0] if squeeze else z


def pearson_statistic(tables: np.ndarray) -> np.ndarray:
    """Pearson chi-square statistic (2 df) for a stack of 2x3 tables."""
    t = np.asarray(tables, dtype=float)
    squeeze = t.ndim == 2
    if squeeze:
        t = t[None]
    row = t.sum(axis=2, keepdims=True)
    col = t.sum(axis=1, keepdims=True)
    total = t.sum(axis=(1, 2), keepdims=True)
    expected = row * col / total
    with np.errstate(invalid="ignore", divide="ignore"):
        cells = np.where(expected > 0, (t - expected) ** 2 / expected, 0.0)
    stat = cells.sum(axis=(1, 2))
    return stat[0] if squeeze else stat


def z_from_tables_contingency(tables: np.ndarray) -> np.ndarray:
    """z-scores from the two-sided contingency test, signed by trend direction.

    The Pearson statistic on the full 2x3 table is pushed through its null
    CDF and the standard normal quantile, then given the sign of the dose
    trend. This mirrors how signed z-scores are conventionally rebuilt from
    published two-sided test results, and is less powerful than the
    one-degree-of-freedom trend statistic. Under no association the result
    is standard normal; monomorphic tables again get z = 0. The quantile of
    the log upper tail, -stat / 2, keeps |z| accurate for any statistic.
    """
    from scipy.special import ndtri_exp

    stat = pearson_statistic(tables)
    trend = z_from_tables(tables)
    magnitude = -ndtri_exp(-0.5 * stat)
    with np.errstate(invalid="ignore"):  # a monomorphic table: sign 0 times magnitude -inf
        return np.where(trend == 0.0, 0.0, np.sign(trend) * magnitude)


_PANEL_STATISTICS = {
    "contingency": z_from_tables_contingency,
    "trend": z_from_tables,
}


def simulate_panel(
    design: SimDesign, statistic: str = "contingency"
) -> tuple[ZPanel, TruthPanel]:
    """Draw the truth and generate the full z-score panel for a design.

    statistic selects how genotype tables become z-scores: "contingency"
    (default) uses the signed two-sided contingency transform, "trend" the
    Cochran-Armitage trend statistic directly.
    """
    if statistic not in _PANEL_STATISTICS:
        raise ConfigError(f"unknown panel statistic {statistic!r}")
    z_fun = _PANEL_STATISTICS[statistic]
    truth = draw_truth(design)
    z = np.empty((design.n_studies, design.n_snps))
    for i in range(design.n_studies):
        z[i] = z_fun(simulate_study(truth, design, i))
    study_ids = tuple(f"study_{i + 1}" for i in range(design.n_studies))
    return ZPanel(truth.snp_ids, study_ids, z), truth


@dataclass(frozen=True)
class SimMetrics:
    """Truth-scored summary of one rejection set."""

    n_rejected: int
    false_discoveries: int
    true_discoveries: int
    fdp: float
    power: float

    def to_json(self) -> dict:
        return asdict(self)


def evaluate(rejections, truth: TruthPanel, kind: HypothesisKind) -> SimMetrics:
    """Score a rejection set against the known truth.

    Accepts a DiscoveryReport or a boolean mask. The false discovery
    proportion divides by max(R, 1); power is the fraction of non-null
    features recovered.
    """
    rejected = np.asarray(getattr(rejections, "rejected", rejections), dtype=bool)
    if rejected.shape != (truth.n_snps,):
        raise DataError("rejection vector does not match the truth panel")
    null_true = null_truth_mask(truth.statuses, kind)
    n_rejected = int(rejected.sum())
    false_disc = int((rejected & null_true).sum())
    true_disc = n_rejected - false_disc
    n_false_nulls = int((~null_true).sum())
    return SimMetrics(
        n_rejected=n_rejected,
        false_discoveries=false_disc,
        true_discoveries=true_disc,
        fdp=false_disc / max(n_rejected, 1),
        power=true_disc / max(n_false_nulls, 1),
    )
