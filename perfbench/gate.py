"""Correctness gate: every run's outputs are checked before its timings count.

A CLI pass is checked from the files it wrote; a sim_study replicate from
the objects the library returned. Each check returns a list of problems,
empty when the outputs are correct.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from common import FDP_SLACK_PANEL, Q

LABELS = ("nr", "na")
# Reports print local and estimated FDR with %.6g.
PRINTED_RTOL = 1e-4


def fdr_bounds(local_fdr: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Range the estimated FDR of each feature must lie in.

    The estimate is the running mean of the sorted local FDRs at the
    feature's rank, ties sharing the last tied rank. Printing rounds
    distinct values into ties, so a feature may sit anywhere in its tie
    group: its estimate lies between the running means at the group's first
    and last rank, which coincide for untied values.
    """
    m = local_fdr.size
    order = np.argsort(local_fdr, kind="stable")
    lf_sorted = local_fdr[order]
    running = np.cumsum(lf_sorted) / np.arange(1, m + 1)
    lo, hi = np.empty(m), np.empty(m)
    lo[order] = running[np.searchsorted(lf_sorted, lf_sorted, side="left")]
    hi[order] = running[np.searchsorted(lf_sorted, lf_sorted, side="right") - 1]
    return lo, hi


def _fdr_mismatch(local_fdr, fdr, rtol) -> int:
    lo, hi = fdr_bounds(local_fdr)
    bad = (fdr < lo * (1 - rtol) - 1e-15) | (fdr > hi * (1 + rtol) + 1e-15)
    return int(np.count_nonzero(bad))


def read_tsv(path: Path) -> dict:
    """Columns of a report TSV, as lists of strings keyed by header name."""
    lines = path.read_text().splitlines()
    if not lines:
        raise ValueError("empty file")
    header = lines[0].split("\t")
    rows = [line.split("\t") for line in lines[1:]]
    if any(len(r) != len(header) for r in rows):
        raise ValueError("ragged rows")
    return dict(zip(header, map(list, zip(*rows)))) if rows else {h: [] for h in header}


def _flags(values) -> np.ndarray:
    if any(v not in ("0", "1") for v in values):
        raise ValueError("rejection flags must be 0 or 1")
    return np.array([v == "1" for v in values])


def check_eb_report(out: Path, n_snps: int) -> list[str]:
    problems = []
    model = json.loads((out / "model.json").read_text())
    if model.get("converged") is not True:
        problems.append("model.json: EM did not converge")
    if model.get("excluded_studies"):
        # An excluded study shrinks K threefold and changes the workload.
        problems.append(f"model.json: studies excluded: {model['excluded_studies']}")
    try:
        cols = read_tsv(out / "report_eb.tsv")
        for label in LABELS:
            lf = np.array(cols[f"local_fdr_{label}"], dtype=float)
            fdr = np.array(cols[f"fdr_{label}"], dtype=float)
            rejected = _flags(cols[f"rejected_{label}"])
            if lf.size != n_snps:
                problems.append(f"report_eb.tsv: {lf.size} rows, expected {n_snps}")
                continue
            if np.any((lf < 0) | (lf > 1)):
                problems.append(f"report_eb.tsv: local_fdr_{label} outside [0, 1]")
            n_rej = model["thresholds"][label]["n_rejected"]
            if int(rejected.sum()) != n_rej:
                problems.append(
                    f"report_eb.tsv: {int(rejected.sum())} rejected_{label}, "
                    f"model.json says {n_rej}"
                )
            bad = _fdr_mismatch(lf, fdr, PRINTED_RTOL)
            if bad:
                problems.append(
                    f"report_eb.tsv: fdr_{label} is not the running mean in {bad} rows"
                )
    except (KeyError, ValueError) as exc:
        problems.append(f"report_eb.tsv: {exc}")
    return problems


def check_meta_report(out: Path, n_snps: int) -> list[str]:
    problems = []
    try:
        cols = read_tsv(out / "report_meta.tsv")
        for label in LABELS:
            for name in (f"p_{label}", f"p_adj_{label}"):
                p = np.array(cols[name], dtype=float)
                if p.size != n_snps:
                    problems.append(f"report_meta.tsv: {p.size} rows, expected {n_snps}")
                elif np.any(~np.isfinite(p) | (p < 0) | (p > 1)):
                    problems.append(f"report_meta.tsv: {name} outside [0, 1]")
            _flags(cols[f"rejected_{label}"])
    except (KeyError, ValueError) as exc:
        problems.append(f"report_meta.tsv: {exc}")
    return problems


def check_fdp(metrics: dict, source: str, slack: float = FDP_SLACK_PANEL) -> list[str]:
    """Truth-scored FDP of each hypothesis within q plus slack."""
    return [
        f"{source}: {label} FDP {m['fdp']:.4f} exceeds q + {slack}"
        for label, m in metrics.items()
        if m["fdp"] > Q + slack
    ]


def check_cli_pass(eb: Path, meta: Path, n_snps: int) -> list[str]:
    """Full gate on one CLI pass: both reports and both evaluations."""
    problems = check_eb_report(eb, n_snps) + check_meta_report(meta, n_snps)
    for out, source in ((eb, "EB evaluate"), (meta, "meta evaluate")):
        problems += check_fdp(json.loads((out / "metrics.json").read_text()), source)
    return problems


def check_replicate(model, reports: dict, comparator: dict, scores: dict,
                    n_snps: int, slack: float) -> list[str]:
    """Same checks on one in-process replicate.

    reports maps a label to a DiscoveryReport, comparator a label to its
    (p, p_adjusted) arrays and scores a source name to {label: SimMetrics}.
    """
    problems = []
    if not model.converged:
        problems.append("EM did not converge")
    for label, rep in reports.items():
        if rep.local_fdr.size != n_snps:
            problems.append(f"{label}: {rep.local_fdr.size} local FDRs, expected {n_snps}")
            continue
        if rep.n_rejected and not np.array_equal(rep.rejected, rep.local_fdr <= rep.t_hat):
            problems.append(f"{label}: rejections disagree with t_hat")
        if _fdr_mismatch(rep.local_fdr, rep.fdr_estimate, 1e-9):
            problems.append(f"{label}: fdr estimate is not the running mean")
    for label, arrays in comparator.items():
        for p in arrays:
            if p.size != n_snps or np.any(~np.isfinite(p) | (p < 0) | (p > 1)):
                problems.append(f"{label}: comparator p-values outside [0, 1]")
    for source, metrics in scores.items():
        problems += check_fdp({k: v.to_json() for k, v in metrics.items()}, source, slack)
    return problems
