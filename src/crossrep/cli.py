"""Command-line surface: fit, analyze, compare, simulate, evaluate.

Every command reads TSV/JSON, writes its outputs atomically into the
output directory together with a run record (parameters, versions, input
digests), and exits 0 on success, 2 on parameter errors, 3 on data errors
and 4 on model errors.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import asdict, dataclass
from pathlib import Path

from . import io, metap, multistudy, sim, twogroup
from .configspace import HypothesisKind, null_subset
from .errors import ConfigError, CrossrepError, DataError, ModelError

_HYP_LABELS = {
    "na": HypothesisKind.NO_ASSOCIATION,
    "nr": HypothesisKind.NO_REPLICABILITY,
}


@dataclass
class RunConfig:
    bins: int = twogroup.DEFAULT_BIN_COUNT
    q: float = 0.05
    hypothesis: str = "both"
    em_tol: float = multistudy.EM_DEFAULT_TOL
    em_max_iter: int = multistudy.EM_DEFAULT_MAX_ITER
    exclude_threshold: float = twogroup.DEFAULT_EXCLUSION_THRESHOLD
    seed: int = 0
    threads: int | None = None

    def __post_init__(self):
        if not 0.0 < self.q < 1.0:
            raise ConfigError(f"q must be inside (0, 1), got {self.q}")
        if self.bins < twogroup.MIN_BIN_COUNT:
            raise ConfigError(f"bin count must be at least {twogroup.MIN_BIN_COUNT}")
        if self.hypothesis not in ("na", "nr", "both"):
            raise ConfigError("hypothesis must be na, nr or both")

    def labels(self) -> list[str]:
        return ["nr", "na"] if self.hypothesis == "both" else [self.hypothesis]

    def to_json(self) -> dict:
        return asdict(self)


def _config_from_args(args) -> RunConfig:
    return RunConfig(
        bins=args.bins,
        q=args.q,
        hypothesis=args.hypothesis,
        em_tol=args.em_tol,
        em_max_iter=args.em_max_iter,
        exclude_threshold=args.exclude_threshold,
        seed=args.seed if args.seed is not None else 0,
        threads=args.threads,
    )


def _out_dir(args) -> Path:
    out = Path(args.out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"{out}: cannot create output directory: {exc.strerror or exc}") from exc
    return out


def _write_record(out: Path, command: str, config: RunConfig, inputs: dict, warnings=()):
    record = io.run_record(command, config.to_json(), inputs)
    record["warnings"] += warnings
    io.write_json(out / f"{command}.run.json", record)


def cmd_fit(args) -> int:
    config = _config_from_args(args)
    out = _out_dir(args)
    panel = io.read_zpanel(args.input)
    binned = twogroup.bin_panel(panel, config.bins)
    fits = twogroup.fit_panel(panel, binned, config.exclude_threshold)
    io.write_json(out / "fits.json", io.fits_payload(fits, binned))
    _write_record(out, "fit", config, {"zpanel": args.input})
    for fit in fits:
        if fit.qualifies:
            print(f"{fit.study_id}: pi0_hat={fit.pi0_hat:.4f}")
        else:
            print(f"{fit.study_id}: excluded ({fit.exclusion_reason})")
    return 0


def cmd_analyze(args) -> int:
    config = _config_from_args(args)
    out = _out_dir(args)
    panel = io.read_zpanel(args.input)
    binned = twogroup.bin_panel(panel, config.bins)
    fits = twogroup.fit_panel(panel, binned, config.exclude_threshold)
    included = [i for i, fit in enumerate(fits) if fit.qualifies]
    excluded = {
        fits[i].study_id: fits[i].exclusion_reason
        for i in range(panel.n_studies)
        if not fits[i].qualifies
    }
    for sid, reason in excluded.items():
        print(f"excluding study {sid}: {reason}", file=sys.stderr)
    if not included:
        raise ModelError("no study qualifies for the empirical Bayes analysis")
    if "nr" in config.labels() and len(included) < 2:
        raise ModelError(
            "the no-replicability analysis needs at least two qualifying studies"
        )
    sub_panel = panel.select_studies(included)
    sub_binned = binned.select_studies(included)
    cond = multistudy.build_conditionals([fits[i] for i in included], sub_binned)
    model = multistudy.em_fit(
        sub_binned,
        cond,
        tol=config.em_tol,
        max_iter=config.em_max_iter,
        snp_ids=panel.snp_ids,
    )
    warnings = []
    if not model.converged:
        trace = model.em_trace
        change = float("nan")
        if trace.size > 1:
            change = abs(trace[-1] - trace[-2]) / abs(trace[-2])
        warnings.append(
            f"EM did not converge in {model.n_iter} iterations "
            f"(last relative change {change:.3g}, tolerance {config.em_tol:g})"
        )
        print(f"warning: {warnings[-1]}", file=sys.stderr)
    reports = {}
    for label in config.labels():
        null_set = null_subset(_HYP_LABELS[label], len(included))
        lf = multistudy.local_fdr_panel(sub_binned, model, null_set, panel.snp_ids)
        reports[label] = multistudy.fdr_report(lf, config.q, null_set)
    payload = io.model_payload(model, sub_panel.study_ids)
    payload["excluded_studies"] = excluded
    payload["thresholds"] = {
        label: {"t_hat": rep.t_hat, "n_rejected": rep.n_rejected}
        for label, rep in reports.items()
    }
    io.write_json(out / "model.json", payload)
    io.write_analysis_report(out / "report_eb.tsv", panel.snp_ids, reports)
    _write_record(out, "analyze", config, {"zpanel": args.input}, warnings)
    for label, rep in reports.items():
        print(f"{label}: rejected {rep.n_rejected} of {panel.n_snps} at q={config.q}")
    return 0


def cmd_compare(args) -> int:
    config = _config_from_args(args)
    out = _out_dir(args)
    panel = io.read_zpanel(args.input)
    if "nr" in config.labels() and panel.n_studies < 2:
        raise ConfigError("the no-replicability comparator needs at least two studies")
    columns = {}
    for label in config.labels():
        if label == "na":
            p = metap.no_association_pvalues(panel.z)
        else:
            p = metap.no_replicability_pvalues(panel.z)
        columns[label] = {
            "p": p,
            "p_adjusted": metap.bh_adjust(p),
            "rejected": metap.bh_procedure(p, config.q),
        }
    io.write_comparison_report(out / "report_meta.tsv", panel.snp_ids, columns)
    _write_record(out, "compare", config, {"zpanel": args.input})
    for label, col in columns.items():
        print(f"{label}: rejected {int(col['rejected'].sum())} of {panel.n_snps}")
    return 0


def cmd_simulate(args) -> int:
    config = _config_from_args(args)
    out = _out_dir(args)
    if args.design:
        design = io.design_from_payload(io.read_json(args.design))
        if args.snps is not None or args.seed is not None:
            design = io.design_from_payload(
                {
                    **io.design_payload(design),
                    "n_snps": args.snps if args.snps is not None else design.n_snps,
                    "seed": args.seed if args.seed is not None else design.seed,
                }
            )
    else:
        design = sim.default_design(
            n_snps=args.snps if args.snps is not None else 10_000, seed=config.seed
        )
    panel, truth = sim.simulate_panel(design, statistic=args.statistic)
    io.write_zpanel(panel, out / "zpanel.tsv")
    io.write_truth(truth, panel.study_ids, out / "truth.tsv")
    io.write_json(out / "design.json", io.design_payload(design))
    inputs = {"design": args.design} if args.design else {}
    record = io.run_record("simulate", {**config.to_json(), "statistic": args.statistic}, inputs)
    io.write_json(out / "simulate.run.json", record)
    print(f"simulated {design.n_snps} snps across {design.n_studies} studies")
    return 0


def cmd_evaluate(args) -> int:
    config = _config_from_args(args)
    out = _out_dir(args)
    snp_ids, masks = io.read_report_rejections(args.report)
    truth, _ = io.read_truth(args.truth)
    if snp_ids != truth.snp_ids:
        raise DataError("report and truth cover different snp sets")
    metrics = {}
    for label, mask in masks.items():
        if label not in _HYP_LABELS:
            continue
        metrics[label] = sim.evaluate(mask, truth, _HYP_LABELS[label]).to_json()
    if not metrics:
        raise DataError("report contains no recognized hypothesis columns")
    io.write_json(out / "metrics.json", metrics)
    _write_record(out, "evaluate", config, {"report": args.report, "truth": args.truth})
    for label, m in metrics.items():
        print(f"{label}: R={m['n_rejected']} FDP={m['fdp']:.4f} power={m['power']:.4f}")
    return 0


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--out-dir", required=True, help="output directory")
    parser.add_argument("--bins", type=int, default=twogroup.DEFAULT_BIN_COUNT)
    parser.add_argument("--q", type=float, default=0.05, help="target Bayes FDR level")
    parser.add_argument("--hypothesis", choices=("na", "nr", "both"), default="both")
    parser.add_argument("--em-tol", type=float, default=multistudy.EM_DEFAULT_TOL)
    parser.add_argument("--em-max-iter", type=int, default=multistudy.EM_DEFAULT_MAX_ITER)
    parser.add_argument(
        "--exclude-threshold",
        type=float,
        default=twogroup.DEFAULT_EXCLUSION_THRESHOLD,
        help="studies with pi0_hat at or above this are dropped",
    )
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument(
        "--threads",
        type=int,
        default=None,
        help="reserved; computation is vectorized in-process",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crossrep",
        description="Empirical Bayes replicability analysis across parallel studies",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_fit = sub.add_parser("fit", help="per-study two-group fits")
    p_fit.add_argument("--input", required=True, help="z-score panel TSV")
    _add_common(p_fit)
    p_fit.set_defaults(func=cmd_fit)

    p_an = sub.add_parser("analyze", help="empirical Bayes discovery reports")
    p_an.add_argument("--input", required=True, help="z-score panel TSV")
    _add_common(p_an)
    p_an.set_defaults(func=cmd_analyze)

    p_cmp = sub.add_parser("compare", help="meta-analysis p-value comparator")
    p_cmp.add_argument("--input", required=True, help="z-score panel TSV")
    _add_common(p_cmp)
    p_cmp.set_defaults(func=cmd_compare)

    p_sim = sub.add_parser("simulate", help="generate a synthetic panel")
    p_sim.add_argument("--design", default=None, help="design JSON (defaults built in)")
    p_sim.add_argument("--snps", type=int, default=None, help="number of snps")
    p_sim.add_argument(
        "--statistic",
        choices=("contingency", "trend"),
        default="contingency",
        help="test statistic behind the z-scores",
    )
    _add_common(p_sim)
    p_sim.set_defaults(func=cmd_simulate)

    p_ev = sub.add_parser("evaluate", help="score a report against a truth panel")
    p_ev.add_argument("--report", required=True, help="report TSV with rejected_* columns")
    p_ev.add_argument("--truth", required=True, help="truth TSV from simulate")
    _add_common(p_ev)
    p_ev.set_defaults(func=cmd_evaluate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CrossrepError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
