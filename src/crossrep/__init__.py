"""Empirical Bayes replicability analysis across parallel studies.

The package fits per-study two-group models on binned z-scores, estimates
the probabilities of all association-status configurations across studies
by composite-likelihood EM, and reports features whose no-replicability or
no-association null is rejected at a target Bayes FDR. A directional
meta-analysis comparator and a case-control simulation harness round out
the pipeline.
"""

from .configspace import (
    HypothesisKind,
    HypothesisSet,
    config_from_string,
    config_to_string,
    enumerate_configurations,
    is_null_member,
    no_replicability_size,
    null_subset,
)
from .errors import (
    ConfigError,
    CrossrepError,
    DataError,
    DegenerateAlternativeError,
    FitError,
    ModelError,
    SizeLimitError,
    StudyExcludedError,
)
from .twogroup import (
    BinnedPanel,
    TwoGroupFit,
    ZPanel,
    alternative_density,
    bin_panel,
    estimate_marginal_density,
    estimate_pi0,
    fit_panel,
    fit_study,
    local_fdr_single,
    null_bin_density,
)
from .multistudy import (
    ConditionalBinDensities,
    ConfigModel,
    DiscoveryReport,
    build_conditionals,
    em_fit,
    fdr_report,
    local_fdr_panel,
    oracle_report,
    posterior,
)
from .metap import (
    PValueVector,
    bh_adjust,
    bh_procedure,
    no_association_pvalues,
    no_replicability_pvalues,
)
from .sim import (
    SimDesign,
    SimMetrics,
    TruthPanel,
    default_design,
    draw_truth,
    evaluate,
    null_truth_mask,
    pearson_statistic,
    simulate_panel,
    simulate_study,
    z_from_tables,
    z_from_tables_contingency,
)

__version__ = "0.1.0"
