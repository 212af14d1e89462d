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
from .errors import (DEFAULT_BIN_COUNT, EM_DEFAULT_MAX_ITER, EM_DEFAULT_TOL, ConfigError,
                     CrossrepError, DataError, bin_count, em_iterations, em_tolerance,
                     enough_studies, fdr_level)

# Hypothesis label -> u: its null holds while fewer than u studies share a sign.
_HYP_LABELS = {"na": 1, "nr": 2}


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


# Each input file flag -> the name of its digest in the run record. The record's
# parameters are the other parsed flags, except the command and its output directory.
_INPUT_FILES = {"input": "zpanel", "design": "design", "report": "report", "truth": "truth"}


def _write_record(out: Path, args, notes: list[str]):
    flags = vars(args)
    params = {k: v for k, v in flags.items()
              if k not in {"command", "func", "out_dir", *_INPUT_FILES}}
    inputs = {name: flags[flag] for flag, name in _INPUT_FILES.items() if flags.get(flag)}
    io.write_json(out / f"{args.command}.run.json",
                  io.run_record(args.command, params, inputs, notes))


# Each command gets the parsed flags and the output directory.

def cmd_analyze(args, out: Path) -> None:
    from . import multistudy, twogroup
    panel = io.read_zpanel(args.input)
    binned = twogroup.bin_panel(panel, args.bins)
    fits = twogroup.fit_panel(panel, binned)
    # written before analyze counts the qualifying studies: a run that exits 4 keeps the reasons
    io.write_json(out / "fits.json", io.fits_payload(fits, binned))
    excluded = {fit.study_id: fit.exclusion_reason for fit in fits if not fit.qualifies}
    for sid, reason in excluded.items():
        print(f"excluding study {sid}: {reason}", file=sys.stderr)
    included, model, reports = multistudy.analyze(
        binned, fits, _nulls(args.hypothesis), args.q,
        tol=args.em_tol, max_iter=args.em_max_iter, snp_ids=panel.snp_ids,
    )
    io.write_json(out / "model.json", io.model_payload(
        model, [panel.study_ids[i] for i in included], excluded, reports))
    io.write_analysis_report(out / "report_eb.tsv", panel.snp_ids, reports)
    for label, rep in reports.items():
        print(f"{label}: rejected {rep.n_rejected} of {panel.n_snps} at q={args.q}")


def cmd_compare(args, out: Path) -> None:
    from . import metap
    nulls = _nulls(args.hypothesis)
    panel = io.read_zpanel(args.input)
    enough_studies(nulls, panel.n_studies)  # a u the panel cannot test exits 4, as in analyze
    pvalues = metap.partial_conjunction_pvalues(panel.z, list(nulls.values()))
    columns = {
        label: {"p": p, "p_adjusted": metap.bh_adjust(p), "rejected": metap.bh_procedure(p, args.q)}
        for label, p in zip(nulls, pvalues)
    }
    io.write_comparison_report(out / "report_meta.tsv", panel.snp_ids, columns)
    for label, col in columns.items():
        print(f"{label}: rejected {int(col['rejected'].sum())} of {panel.n_snps}")


def cmd_simulate(args, out: Path) -> None:
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


def cmd_evaluate(args, out: Path) -> None:
    snp_ids, masks = io.read_report_rejections(args.report)
    truth_ids, statuses = io.read_truth(args.truth)
    if snp_ids != truth_ids:
        raise DataError("report and truth cover different snp sets")
    metrics = _scores(masks, statuses)
    if not metrics:
        raise DataError("report contains no recognized hypothesis columns")
    io.write_json(out / "metrics.json", metrics)
    for label, m in metrics.items():
        print(f"{label}: R={m['n_rejected']} FDP={m['fdp']:.4f} power={m['power']:.4f}")


def _add_level_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--q", type=fdr_level, default=0.05, help="target Bayes FDR level")
    parser.add_argument("--hypothesis", choices=(*_HYP_LABELS, "both"), default="both")


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
            args.func(args, out)
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
    _write_record(out, args, notes)
    return 0


if __name__ == "__main__":
    sys.exit(main())
