"""TSV and JSON serialization for panels, fits, models, reports and runs.

All files are plain text. Writes go through a temp file plus rename so a
crashed run never leaves a half-written output, and nothing written here
depends on wall-clock time, so identical inputs give byte-identical
outputs.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from pathlib import Path

import numpy as np

from .configspace import config_from_string, config_to_string
from .errors import DataError
from .multistudy import ConfigModel
from .sim import SimDesign, TruthPanel
from .twogroup import BinnedPanel, TwoGroupFit, ZPanel

_FLOAT_FMT = "%.17g"


def _atomic_write(path, text: str) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_json(path, payload) -> None:
    _atomic_write(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _read_text(path) -> str:
    """File contents; a missing, unreadable or non-text file is a DataError."""
    try:
        with open(path) as handle:
            return handle.read()
    except OSError as exc:
        raise DataError(f"{path}: cannot read: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not a text file: {exc.reason}") from exc


def _read_lines(path) -> list[str]:
    lines = _read_text(path).splitlines()
    if not lines:
        raise DataError(f"{path}: empty file")
    return lines


def read_json(path):
    text = _read_text(path)
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise DataError(f"{path}: not valid JSON: {exc}") from exc


def sha256_file(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _parse_float(token: str, path, lineno: int, column: str) -> float:
    try:
        value = float(token)
    except ValueError as exc:
        raise DataError(
            f"{path}: line {lineno}: column {column!r}: {token!r} is not a number"
        ) from exc
    if not np.isfinite(value):
        raise DataError(
            f"{path}: line {lineno}: column {column!r}: missing or non-finite value"
        )
    return value


def _parse_status(token: str, path, lineno: int, column: str) -> int:
    try:
        value = int(token)
    except ValueError:
        value = None
    if value not in (-1, 0, 1):
        raise DataError(
            f"{path}: line {lineno}: column {column!r}: {token!r} is not -1, 0 or +1"
        )
    return value


def read_zpanel(path) -> ZPanel:
    """Read a z-score panel TSV: header snp_id then one column per study."""
    lines = _read_lines(path)
    header = lines[0].split("\t")
    if header[0] != "snp_id" or len(header) < 2:
        raise DataError(f"{path}: line 1: header must be snp_id followed by study ids")
    study_ids = header[1:]
    snp_ids = []
    rows = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line:
            raise DataError(f"{path}: line {lineno}: blank line")
        fields = line.split("\t")
        if len(fields) != len(header):
            raise DataError(
                f"{path}: line {lineno}: expected {len(header)} fields, got {len(fields)}"
            )
        snp_ids.append(fields[0])
        rows.append(
            [
                _parse_float(tok, path, lineno, study_ids[k])
                for k, tok in enumerate(fields[1:])
            ]
        )
    if not rows:
        raise DataError(f"{path}: no data rows")
    return ZPanel(tuple(snp_ids), tuple(study_ids), np.array(rows).T)


def write_zpanel(panel: ZPanel, path) -> None:
    lines = ["snp_id\t" + "\t".join(panel.study_ids)]
    for j, snp in enumerate(panel.snp_ids):
        values = "\t".join(_FLOAT_FMT % v for v in panel.z[:, j])
        lines.append(f"{snp}\t{values}")
    _atomic_write(path, "\n".join(lines) + "\n")


def fits_payload(fits: list[TwoGroupFit], binned: BinnedPanel) -> dict:
    studies = []
    for i, fit in enumerate(fits):
        studies.append(
            {
                "study_id": fit.study_id,
                "pi0_hat": fit.pi0_hat,
                "qualifies": fit.qualifies,
                "exclusion_reason": fit.exclusion_reason,
                "bin_edges": binned.edges[i].tolist(),
                "f_hat": fit.f_hat.tolist(),
                "fA_hat": None if fit.fA_hat is None else fit.fA_hat.tolist(),
            }
        )
    return {"bin_count": binned.bin_count, "studies": studies}


def model_payload(model: ConfigModel, study_ids) -> dict:
    return {
        "study_ids": list(study_ids),
        "configurations": [config_to_string(h) for h in model.space],
        "pi": model.pi.tolist(),
        "em_trace": model.em_trace.tolist(),
        "converged": model.converged,
        "n_iter": model.n_iter,
    }


def write_analysis_report(path, snp_ids, reports: dict) -> None:
    """Report TSV with local fdr, estimated Fdr and rejection per hypothesis.

    reports maps a short label ("nr", "na") to a DiscoveryReport.
    """
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
    _atomic_write(path, "\n".join(lines) + "\n")


def write_comparison_report(path, snp_ids, columns: dict) -> None:
    """Comparator TSV: p-values, BH-adjusted p-values and rejections.

    columns maps a label to a dict with keys p, p_adjusted, rejected.
    """
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
    _atomic_write(path, "\n".join(lines) + "\n")


def read_report_rejections(path):
    """Rejection masks keyed by hypothesis label from any report TSV."""
    lines = _read_lines(path)
    header = lines[0].split("\t")
    if header[0] != "snp_id":
        raise DataError(f"{path}: first column must be snp_id")
    labels = {
        name.removeprefix("rejected_"): k
        for k, name in enumerate(header)
        if name.startswith("rejected_")
    }
    if not labels:
        raise DataError(f"{path}: no rejected_* columns found")
    snp_ids = []
    masks = {label: [] for label in labels}
    for lineno, line in enumerate(lines[1:], start=2):
        fields = line.split("\t")
        if len(fields) != len(header):
            raise DataError(
                f"{path}: line {lineno}: expected {len(header)} fields, got {len(fields)}"
            )
        snp_ids.append(fields[0])
        for label, k in labels.items():
            if fields[k] not in ("0", "1"):
                raise DataError(f"{path}: line {lineno}: bad rejection flag {fields[k]!r}")
            masks[label].append(fields[k] == "1")
    return tuple(snp_ids), {label: np.array(v, dtype=bool) for label, v in masks.items()}


def write_truth(truth: TruthPanel, study_ids, path) -> None:
    header = ["snp_id"]
    for sid in study_ids:
        header += [f"h_{sid}", f"theta_{sid}", f"maf_{sid}"]
    lines = ["\t".join(header)]
    for j, snp in enumerate(truth.snp_ids):
        fields = [snp]
        for i in range(len(study_ids)):
            fields += [
                "%d" % truth.statuses[i, j],
                _FLOAT_FMT % truth.theta[i, j],
                _FLOAT_FMT % truth.maf[i, j],
            ]
        lines.append("\t".join(fields))
    _atomic_write(path, "\n".join(lines) + "\n")


def read_truth(path) -> tuple[TruthPanel, list[str]]:
    lines = _read_lines(path)
    header = lines[0].split("\t")
    if header[0] != "snp_id" or (len(header) - 1) % 3 != 0:
        raise DataError(f"{path}: malformed truth header")
    study_ids = [name.removeprefix("h_") for name in header[1::3]]
    n = len(study_ids)
    snp_ids, statuses, theta, maf = [], [], [], []
    for lineno, line in enumerate(lines[1:], start=2):
        fields = line.split("\t")
        if len(fields) != len(header):
            raise DataError(f"{path}: line {lineno}: wrong field count")
        snp_ids.append(fields[0])
        statuses.append(
            [
                _parse_status(fields[1 + 3 * i], path, lineno, header[1 + 3 * i])
                for i in range(n)
            ]
        )
        theta.append(
            [_parse_float(fields[2 + 3 * i], path, lineno, "theta") for i in range(n)]
        )
        maf.append(
            [_parse_float(fields[3 + 3 * i], path, lineno, "maf") for i in range(n)]
        )
    truth = TruthPanel(
        tuple(snp_ids),
        np.array(statuses, dtype=np.int8).T,
        np.array(theta).T,
        np.array(maf).T,
    )
    return truth, study_ids


def design_payload(design: SimDesign) -> dict:
    return {
        "n_studies": design.n_studies,
        "n_snps": design.n_snps,
        "n_cases": design.n_cases,
        "n_controls": design.n_controls,
        "config_probs": {
            config_to_string(h): p for h, p in design.config_probs.items()
        },
        "effect_ranges": {str(s): list(r) for s, r in design.effect_ranges.items()},
        "maf_range": list(design.maf_range),
        "alpha": design.alpha,
        "seed": design.seed,
    }


def design_from_payload(payload: dict) -> SimDesign:
    try:
        return SimDesign(
            n_studies=int(payload["n_studies"]),
            n_snps=int(payload["n_snps"]),
            n_cases=int(payload["n_cases"]),
            n_controls=int(payload["n_controls"]),
            config_probs={
                config_from_string(text): float(p)
                for text, p in payload["config_probs"].items()
            },
            effect_ranges={
                int(s): tuple(float(v) for v in r)
                for s, r in payload["effect_ranges"].items()
            },
            maf_range=tuple(float(v) for v in payload["maf_range"]),
            alpha=float(payload["alpha"]),
            seed=int(payload["seed"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"malformed design record: {exc}") from exc


def run_record(command: str, params: dict, inputs: dict) -> dict:
    """Reproducibility record: parameters, library versions, input digests."""
    import scipy

    from . import __version__

    return {
        "command": command,
        "parameters": params,
        "versions": {
            "crossrep": __version__,
            "numpy": np.__version__,
            "scipy": scipy.__version__,
        },
        "inputs": {name: sha256_file(p) for name, p in inputs.items()},
    }
