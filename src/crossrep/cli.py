"""Command-line surface: analyze, compare, simulate, evaluate.

Every command reads TSV/JSON, writes its outputs atomically into the
output directory together with a run record (its own parameters, versions,
input digests, warnings), and exits 0 on success, 2 on parameter errors,
3 on data errors and 4 on model errors. The numerical modules are imported
by the commands that use them: the parser and evaluate load no numpy.
"""

from __future__ import annotations

import argparse
import sys
import warnings
from itertools import compress
from pathlib import Path

from . import io
from .errors import (DEFAULT_BIN_COUNT, EM_DEFAULT_MAX_ITER, EM_DEFAULT_TOL, MIN_BIN_COUNT,
                     ConfigError, CrossrepError, DataError, ModelError, fdr_level)

# Hypothesis label -> u: its null holds while fewer than u studies share a sign.
_HYP_LABELS = {"na": 1, "nr": 2}


# Option types. A value that parses but is out of range raises ConfigError,
# which argparse lets through, so main returns 2 before any file is touched.

def bin_count(text: str) -> int:
    bins = int(text)
    if bins < MIN_BIN_COUNT:
        raise ConfigError(f"bin count must be at least {MIN_BIN_COUNT}")
    return bins


def em_tolerance(text: str) -> float:
    tol = float(text)
    if not 0.0 <= tol < float("inf"):
        raise ConfigError(f"EM tolerance must be finite and at least 0, got {text}")
    return tol


def em_iterations(text: str) -> int:
    limit = int(text)
    if limit < 1:
        raise ConfigError(f"EM iteration limit must be at least 1, got {limit}")
    return limit


def _nulls(hypothesis: str) -> dict:
    """Label -> u of each hypothesis a --hypothesis value selects."""
    labels = ["nr", "na"] if hypothesis == "both" else [hypothesis]
    return {label: _HYP_LABELS[label] for label in labels}


def _out_dir(args) -> Path:
    out = Path(args.out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"{out}: cannot create output directory: {exc.strerror or exc}") from exc
    return out


# A run record's parameters are the parsed flags except these.
_NOT_PARAMETERS = {"command", "func", "input", "out_dir", "design", "report", "truth"}


def _write_record(out: Path, args, inputs: dict, notes: list[str]):
    params = {k: v for k, v in vars(args).items() if k not in _NOT_PARAMETERS}
    record = io.run_record(args.command, params, inputs)
    record["warnings"] += notes
    io.write_json(out / f"{args.command}.run.json", record)


# Each command gets the parsed flags and the output directory, and returns
# the input files to digest.

def cmd_analyze(args, out: Path) -> dict:
    from . import multistudy, twogroup
    from .configspace import null_subset
    nulls = _nulls(args.hypothesis)
    panel = io.read_zpanel(args.input)
    binned = twogroup.bin_panel(panel, args.bins)
    fits = twogroup.fit_panel(panel, binned)
    # written before the qualifying-study check, so a run that exits 4 keeps the exclusion reasons
    io.write_json(out / "fits.json", io.fits_payload(fits, binned))
    included = [i for i, fit in enumerate(fits) if fit.qualifies]
    excluded = {fit.study_id: fit.exclusion_reason for fit in fits if not fit.qualifies}
    for sid, reason in excluded.items():
        print(f"excluding study {sid}: {reason}", file=sys.stderr)
    for label, u in nulls.items():
        if len(included) < u:
            raise ModelError(f"the {label} analysis needs at least u = {u} qualifying studies,"
                             f" got {len(included)}")
    sub_binned = binned.select_studies(included)
    cond = multistudy.build_conditionals([fits[i] for i in included], sub_binned)
    model = multistudy.em_fit(
        sub_binned,
        cond,
        tol=args.em_tol,
        max_iter=args.em_max_iter,
        snp_ids=panel.snp_ids,
    )
    reports = {}
    for label, u in nulls.items():
        null_set = null_subset(u, len(included))
        lf = multistudy.local_fdr_panel(sub_binned, model, null_set, panel.snp_ids)
        reports[label] = multistudy.fdr_report(lf, args.q, null_set)
    payload = io.model_payload(model, [panel.study_ids[i] for i in included])
    payload["excluded_studies"] = excluded
    payload["thresholds"] = {
        label: {"t_hat": rep.t_hat, "n_rejected": rep.n_rejected}
        for label, rep in reports.items()
    }
    io.write_json(out / "model.json", payload)
    io.write_analysis_report(out / "report_eb.tsv", panel.snp_ids, reports)
    for label, rep in reports.items():
        print(f"{label}: rejected {rep.n_rejected} of {panel.n_snps} at q={args.q}")
    return {"zpanel": args.input}


def cmd_compare(args, out: Path) -> dict:
    from . import metap
    nulls = _nulls(args.hypothesis)
    panel = io.read_zpanel(args.input)
    pvalues = metap.partial_conjunction_pvalues(panel.z, list(nulls.values()))
    columns = {
        label: {"p": p, "p_adjusted": metap.bh_adjust(p), "rejected": metap.bh_procedure(p, args.q)}
        for label, p in zip(nulls, pvalues)
    }
    io.write_comparison_report(out / "report_meta.tsv", panel.snp_ids, columns)
    for label, col in columns.items():
        print(f"{label}: rejected {int(col['rejected'].sum())} of {panel.n_snps}")
    return {"zpanel": args.input}


def cmd_simulate(args, out: Path) -> dict:
    import dataclasses
    from . import sim
    if args.design:
        design = io.design_from_payload(io.read_json(args.design))
    else:
        design = sim.default_design()
    # the record keeps the values the panel is drawn with, also when a saved design supplies them
    args.snps = design.n_snps if args.snps is None else args.snps
    args.seed = design.seed if args.seed is None else args.seed
    design = dataclasses.replace(design, n_snps=args.snps, seed=args.seed)
    panel, truth = sim.simulate_panel(design, statistic=args.statistic)
    io.write_zpanel(panel, out / "zpanel.tsv")
    io.write_truth(truth, panel.study_ids, out / "truth.tsv")
    io.write_json(out / "design.json", io.design_payload(design))
    print(f"simulated {design.n_snps} snps across {design.n_studies} studies")
    return {"design": args.design} if args.design else {}


def _scores(masks: dict, statuses: list[list[int]]) -> dict:
    """sim.evaluate's metrics of each hypothesis's rejection mask, in plain Python: a feature
    is null for u while max(#(+1), #(-1)) over its studies' statuses is below u."""
    shared = [max(column.count(1), column.count(-1)) for column in zip(*statuses)]
    metrics = {}
    for label, rejected in masks.items():
        if label not in _HYP_LABELS:
            continue
        u = _HYP_LABELS[label]
        n_rejected = sum(rejected)
        false_disc = sum(s < u for s in compress(shared, rejected))
        metrics[label] = {
            "n_rejected": n_rejected,
            "false_discoveries": false_disc,
            "true_discoveries": n_rejected - false_disc,
            "fdp": false_disc / max(n_rejected, 1),
            "power": (n_rejected - false_disc) / max(sum(s >= u for s in shared), 1),
        }
    return metrics


def cmd_evaluate(args, out: Path) -> dict:
    snp_ids, masks = io.read_report_rejections(args.report)
    truth_ids, statuses, _ = io.read_truth_statuses(args.truth)
    if snp_ids != truth_ids:
        raise DataError("report and truth cover different snp sets")
    metrics = _scores(masks, statuses)
    if not metrics:
        raise DataError("report contains no recognized hypothesis columns")
    io.write_json(out / "metrics.json", metrics)
    for label, m in metrics.items():
        print(f"{label}: R={m['n_rejected']} FDP={m['fdp']:.4f} power={m['power']:.4f}")
    return {"report": args.report, "truth": args.truth}


def _add_level_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--q", type=fdr_level, default=0.05, help="target Bayes FDR level")
    parser.add_argument("--hypothesis", choices=("na", "nr", "both"), default="both")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crossrep",
        description="Empirical Bayes replicability analysis across parallel studies",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_an = sub.add_parser("analyze", help="per-study fits and empirical Bayes discovery reports")
    p_an.add_argument("--input", required=True, help="z-score panel TSV")
    p_an.add_argument("--bins", type=bin_count, default=DEFAULT_BIN_COUNT)
    _add_level_flags(p_an)
    p_an.add_argument("--em-tol", type=em_tolerance, default=EM_DEFAULT_TOL)
    p_an.add_argument("--em-max-iter", type=em_iterations, default=EM_DEFAULT_MAX_ITER)
    p_an.set_defaults(func=cmd_analyze)

    p_cmp = sub.add_parser("compare", help="meta-analysis p-value comparator")
    p_cmp.add_argument("--input", required=True, help="z-score panel TSV")
    _add_level_flags(p_cmp)
    p_cmp.set_defaults(func=cmd_compare)

    p_sim = sub.add_parser("simulate", help="generate a synthetic panel")
    p_sim.add_argument("--design", default=None, help="design JSON (defaults built in)")
    p_sim.add_argument("--snps", type=int, default=None, help="number of snps")
    p_sim.add_argument("--seed", type=int, default=None)
    p_sim.add_argument(
        "--statistic",
        choices=("contingency", "trend"),
        default="contingency",
        help="test statistic behind the z-scores",
    )
    p_sim.set_defaults(func=cmd_simulate)

    p_ev = sub.add_parser("evaluate", help="score a report against a truth panel")
    p_ev.add_argument("--report", required=True, help="report TSV with rejected_* columns")
    p_ev.add_argument("--truth", required=True, help="truth TSV from simulate")
    p_ev.set_defaults(func=cmd_evaluate)

    for p in (p_an, p_cmp, p_sim, p_ev):
        p.add_argument("--out-dir", required=True, help="output directory")
    return parser


def main(argv=None) -> int:
    # Every warning raised while a command runs, from crossrep or a library,
    # is printed as one "warning:" line and listed in the run record.
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            args = build_parser().parse_args(argv)
            out = _out_dir(args)
            inputs = args.func(args, out)
        except CrossrepError as exc:
            failure = exc
        else:
            failure = None
    notes = [str(w.message) for w in caught]
    for note in notes:
        print(f"warning: {note}", file=sys.stderr)
    if failure is not None:
        print(f"error: {failure}", file=sys.stderr)
        return failure.exit_code
    _write_record(out, args, inputs, notes)
    return 0


if __name__ == "__main__":
    sys.exit(main())
