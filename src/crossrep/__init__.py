"""Empirical Bayes replicability analysis across parallel studies.

The package fits per-study two-group models on binned z-scores, estimates
the probabilities of all association-status configurations across studies
by composite-likelihood EM, and reports features whose no-replicability or
no-association null is rejected at a target Bayes FDR. A directional
meta-analysis comparator and a case-control simulation harness round out
the pipeline.

Start-up cost: no command loads scipy. compare takes its normal tails from
math.erfc, and simulate carries bit-for-bit ports of scipy.special's expit
and ndtri_exp; scipy is needed only by the tests. The names below are
imported on first access (PEP 562), so `import crossrep.cli`, its parser and
evaluate load no numpy; simulate, analyze and compare import it when they run.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "configspace": "HypothesisSet config_from_string config_to_string"
    " enumerate_configurations is_null_member no_replicability_size null_subset null_truth_mask",
    "errors": "ConfigError CrossrepError DataError DegenerateAlternativeError FitError"
    " ModelError SizeLimitError StudyExcludedError",
    "twogroup": "BinnedPanel TwoGroupFit ZPanel alternative_density bin_panel estimate_pi0"
    " estimate_marginal_density fit_panel fit_study local_fdr_single null_bin_density",
    "multistudy": "Analysis ConditionalBinDensities ConfigModel DiscoveryReport analyze"
    " build_conditionals em_fit fdr_report local_fdr_panel posterior",
    "metap": "bh_adjust bh_procedure no_association_pvalues no_replicability_pvalues",
    "sim": "SimDesign SimMetrics TruthPanel default_design draw_truth evaluate simulate_panel"
    " simulate_study z_from_tables z_from_tables_contingency",
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names.split()}
_SUBMODULES = {*_EXPORTS, "cli", "io"}
__all__ = sorted(_SOURCE)


def __getattr__(name):
    if name in _SOURCE:
        return getattr(import_module(f".{_SOURCE[name]}", __name__), name)
    if name in _SUBMODULES:
        return import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
