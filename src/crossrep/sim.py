"""Case-control panel generator and truth-scored evaluation metrics.

Features are simulated independently. Each feature draws an
association-status configuration, per-study effect sizes and minor allele
frequencies; genotype dose tables for a fixed number of cases and controls
follow from the logistic disease model combined with Hardy-Weinberg dose
frequencies via Bayes' rule. Tables become z-scores through either the
signed Cochran-Armitage trend statistic or the signed two-sided
contingency transform (the panel default); both are standard normal under
no association.

The two scipy.special functions the simulator needs, expit and ndtri_exp,
are ported here bit for bit (tests/test_startup.py checks them), so that
simulate never loads scipy. Their exp, expm1 and log come from the math
module, which calls the C library as scipy does; NumPy's own exp differs
from it in the last bit on about 5 % of inputs.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .configspace import enumerate_configurations, null_truth_mask, validate_configuration
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


def _libm(fun, x) -> np.ndarray:
    """A math-module function at each value of a float array."""
    x = np.asarray(x, dtype=float)
    values = memoryview(np.ascontiguousarray(x).ravel())  # yields Python floats, no copy
    return np.fromiter(map(fun, values), float, x.size).reshape(x.shape)


_EXP_MAX = 709.782712893384  # the largest x with a finite exp(x); math.exp raises past it


def _exp(x) -> np.ndarray:
    """libm exp at each value of a float array, inf where it overflows."""
    x = np.asarray(x, dtype=float)
    e = _libm(math.exp, np.minimum(x, _EXP_MAX))
    e[x > _EXP_MAX] = np.inf
    return e


def _expit(x: np.ndarray, alpha: float) -> np.ndarray:
    """scipy.special.expit, 1 / (1 + exp(-x)), bit for bit.

    Null features and dose 0 give x == alpha exactly; those share one exp.
    """
    moved = x != alpha
    e = np.full(x.shape, _exp(-alpha))
    e[moved] = _exp(-x[moved])
    return 1.0 / (1.0 + e)


def disease_prob_per_dose(theta: np.ndarray, alpha: float) -> np.ndarray:
    """Disease probability at each dose (0, 0.5, 1) under the logistic model."""
    theta = np.asarray(theta, dtype=float)
    return _expit(alpha + theta[..., None] * DOSE_SCORES, alpha)


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


def _margins(tables):
    """Cells, row totals, dose-column totals and grand totals of 2x3 tables.

    Returns float arrays of shapes (2, 3, M), (2, M), (3, M) and (M,), and
    whether a single table was given. Counts are integers, so every margin
    is an exact sum.
    """
    t = np.asarray(tables)
    squeeze = t.ndim == 2
    if squeeze:
        t = t[None]
    if t.ndim != 3 or t.shape[1:] != (2, 3):
        raise DataError("expected tables of shape (..., 2, 3)")
    cells = np.moveaxis(t, 0, -1).astype(float, order="C")
    rows = cells[:, 0] + cells[:, 1] + cells[:, 2]
    cols = cells[0] + cells[1]
    return cells, rows, cols, rows[0] + rows[1], squeeze


def _trend_z(cells, rows, cols, total) -> np.ndarray:
    n_cases, n_controls = rows
    if np.any(n_cases <= 0) or np.any(n_controls <= 0):
        raise DataError("each table needs at least one case and one control")
    # (0, 0.5, 1) dose sums; half-integers, so exact
    case_score, control_score = 0.5 * cells[:, 1] + cells[:, 2]
    # centered statistic written as (C * sum(s*r) - R * sum(s*c)) / N so that
    # swapping the case and control rows negates it exactly in float arithmetic
    centered = (n_controls * case_score - n_cases * control_score) / total
    mean_score = (0.5 * cols[1] + cols[2]) / total
    score_var = np.clip((0.25 * cols[1] + cols[2]) / total - mean_score**2, 0.0, None)
    var = n_cases * n_controls * score_var / (total - 1)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(var > 0, centered / np.sqrt(var), 0.0)


def _pearson(cells, rows, cols, total) -> np.ndarray:
    stat = None
    with np.errstate(invalid="ignore", divide="ignore"):
        # cases then controls, dose by dose: the order of a C-order sum over both axes
        for r in range(2):
            for j in range(3):
                expected = rows[r] * cols[j] / total
                cell = np.where(expected > 0, (cells[r, j] - expected) ** 2 / expected, 0.0)
                stat = cell if stat is None else stat + cell
    return stat


def z_from_tables(tables: np.ndarray) -> np.ndarray:
    """Signed Cochran-Armitage trend z-scores for a stack of 2x3 tables.

    Dose scores are (0, 0.5, 1); the sign is positive when cases are
    allele-enriched. The variance is the margin-conditional one, so the
    statistic is standard normal for large tables under no association.
    Zero-variance (monomorphic) tables get z = 0.
    """
    *margins, squeeze = _margins(tables)
    z = _trend_z(*margins)
    return z[0] if squeeze else z


def pearson_statistic(tables: np.ndarray) -> np.ndarray:
    """Pearson chi-square statistic (2 df) for a stack of 2x3 tables."""
    *margins, squeeze = _margins(tables)
    stat = _pearson(*margins)
    return stat[0] if squeeze else stat


# Cephes ndtri coefficients, as scipy.special carries them
_NDTRI_S2PI = 2.50662827463100050242e0
_NDTRI_P0 = (-5.99633501014107895267e1, 9.80010754185999661536e1, -5.66762857469070293439e1,
             1.39312609387279679503e1, -1.23916583867381258016e0)
_NDTRI_Q0 = (1.95448858338141759834e0, 4.67627912898881538453e0, 8.63602421390890590575e1,
             -2.25462687854119370527e2, 2.00260212380060660359e2, -8.20372256168333339912e1,
             1.59056225126211695515e1, -1.18331621121330003142e0)
_NDTRI_P1 = (4.05544892305962419923e0, 3.15251094599893866154e1, 5.71628192246421288162e1,
             4.40805073893200834700e1, 1.46849561928858024014e1, 2.18663306850790267539e0,
             -1.40256079171354495875e-1, -3.50424626827848203418e-2, -8.57456785154685413611e-4)
_NDTRI_Q1 = (1.57799883256466749731e1, 4.53907635128879210584e1, 4.13172038254672030440e1,
             1.50425385692907503408e1, 2.50464946208309415979e0, -1.42182922854787788574e-1,
             -3.80806407691578277194e-2, -9.33259480895457427372e-4)
_NDTRI_P2 = (3.23774891776946035970e0, 6.91522889068984211695e0, 3.93881025292474443415e0,
             1.33303460815807542389e0, 2.01485389549179081538e-1, 1.23716634817820021358e-2,
             3.01581553508235416007e-4, 2.65806974686737550832e-6, 6.23974539184983293730e-9)
_NDTRI_Q2 = (6.02427039364742014255e0, 3.67983563856160859403e0, 1.37702099489081330271e0,
             2.16236993594496635890e-1, 1.34204006088543189037e-2, 3.28014464682127739104e-4,
             2.89247864745380683936e-6, 6.79019408009981274425e-9)
_EXP_M2 = 0.13533528323661269189  # exp(-2)
_LOG1M_EXP_M2 = -0.14541345786885906  # log1p(-exp(-2))


def _polevl(x: np.ndarray, coef, monic: bool = False) -> np.ndarray:
    """Cephes polevl by Horner's rule; p1evl, with an implicit leading 1, if monic."""
    ans = x + coef[0] if monic else np.full(x.shape, coef[0])
    for c in coef[1:]:
        ans *= x
        ans += c
    return ans


def _ndtri_tail(x: np.ndarray) -> np.ndarray:
    """Cephes ndtri(p) for 0 < p <= exp(-2), given x = sqrt(-2 log p)."""
    z = 1.0 / x
    x1 = np.empty(x.shape)
    near = x < 8.0  # p > exp(-32)
    for part, p, q in ((near, _NDTRI_P1, _NDTRI_Q1), (~near, _NDTRI_P2, _NDTRI_Q2)):
        x1[part] = z[part] * _polevl(z[part], p) / _polevl(z[part], q, monic=True)
    return x1 - (x - _libm(math.log, x) / x)


def _ndtri(p: np.ndarray) -> np.ndarray:
    """scipy.special.ndtri (Cephes) for 0 <= p <= 1 - exp(-2), bit for bit.

    Cephes reflects p above 1 - exp(-2) into the tail; no caller gets there.
    """
    x = np.full(p.shape, -np.inf)  # p = 0
    central = p > _EXP_M2
    y = p[central] - 0.5
    y2 = y * y
    ratio = y2 * _polevl(y2, _NDTRI_P0) / _polevl(y2, _NDTRI_Q0, monic=True)
    x[central] = (y + y * ratio) * _NDTRI_S2PI
    tail = ~central & (p != 0.0)
    x[tail] = _ndtri_tail(np.sqrt(-2.0 * _libm(math.log, p[tail])))
    return x


def _ndtri_exp(y: np.ndarray) -> np.ndarray:
    """scipy.special.ndtri_exp, the normal quantile of exp(y), bit for bit.

    For -DBL_MAX / 2 <= y <= 0, which holds every -stat / 2 of a finite
    stat >= 0; below that Cephes rescales sqrt(-2 y), which is left out.
    """
    x = np.empty(y.shape)
    small = y < -2.0
    x[small] = _ndtri_tail(np.sqrt(-2.0 * y[small]))
    upper = y > _LOG1M_EXP_M2  # 0 <= -expm1(y) < exp(-2)
    x[upper] = -_ndtri(-_libm(math.expm1, y[upper]))
    mid = ~(small | upper)  # exp(-2) <= exp(y) <= 1 - exp(-2)
    x[mid] = _ndtri(_libm(math.exp, y[mid]))
    return x


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
    *margins, squeeze = _margins(tables)
    stat = _pearson(*margins)
    trend = _trend_z(*margins)
    magnitude = -_ndtri_exp(-0.5 * stat)
    with np.errstate(invalid="ignore"):  # a monomorphic table: sign 0 times magnitude -inf
        z = np.where(trend == 0.0, 0.0, np.sign(trend) * magnitude)
    return z[0] if squeeze else z


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


def evaluate(rejections, truth, u: int) -> SimMetrics:
    """Score a rejection set against the known truth for the null of u.

    Accepts a DiscoveryReport or a boolean mask, and a TruthPanel or its
    (n, M) status array. The false discovery proportion divides by
    max(R, 1); power is the fraction of non-null features recovered.
    """
    rejected = np.asarray(getattr(rejections, "rejected", rejections), dtype=bool)
    statuses = np.asarray(getattr(truth, "statuses", truth))
    if statuses.ndim != 2 or rejected.shape != statuses.shape[1:]:
        raise DataError("rejection vector does not match the truth panel")
    null_true = null_truth_mask(statuses, u)
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
