"""TSV and JSON serialization for panels, fits, models, reports and runs.

All files are plain text. Writes go through a temp file plus rename so a
crashed run never leaves a half-written output, and nothing written here
depends on wall-clock time, so identical inputs give byte-identical
outputs. numpy and the model types are imported where arrays or models are
built, so reading flags and truth statuses (all evaluate does) loads no numpy.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import tempfile
from itertools import product, repeat
from pathlib import Path
from typing import TYPE_CHECKING

from .errors import DataError

if TYPE_CHECKING:
    import numpy as np
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


# Column parsers raise a ValueError whose message is the error for one bad token.

def _floats(tokens: list[str]) -> np.ndarray:
    import numpy as np
    try:
        values = np.fromiter(map(float, tokens), float, len(tokens))
    except ValueError:
        raise ValueError("column {column!r}: {token!r} is not a number") from None
    if not np.isfinite(values).all():
        raise ValueError("column {column!r}: missing or non-finite value")
    return values


_STATUS_TOKENS = {"-1": -1, "0": 0, "1": 1}


def _statuses(tokens: list[str]) -> list[int]:
    try:
        return list(map(_STATUS_TOKENS.__getitem__, tokens))
    except KeyError:  # a token write_truth does not write: int() decides
        pass
    try:
        values = list(map(int, tokens))
    except ValueError:
        values = [None]
    if not set(values) <= {-1, 0, 1}:
        raise ValueError("column {column!r}: {token!r} is not -1, 0 or +1")
    return values


def _flags(tokens: list[str]) -> list[bool]:
    if not set(tokens) <= {"0", "1"}:
        raise ValueError("bad rejection flag {token!r}")
    return list(map("1".__eq__, tokens))


def _line_fault(fields: list[str], width: int) -> str | None:
    if fields == [""]:
        return "blank line"
    if len(fields) != width:
        return f"expected {width} fields, got {len(fields)}"
    return None


def _read_table(path, lines: list[str], cells):
    """Snp ids (column 0) below the header, and the cell columns parsed whole.

    cells lists (column index, parser) in the order a line is checked. Only
    when a check fails are the lines walked one by one, to raise the error
    for the first fault: _line_fault's or a parser's message.
    """
    header = lines[0].split("\t")
    body = lines[1:]
    try:
        if list(map(str.count, body, repeat("\t"))).count(len(header) - 1) != len(body):
            raise ValueError("wrong field count")
        tokens = "\t".join(body).split("\t") if body else []
        return tokens[:: len(header)], [parse(tokens[k :: len(header)]) for k, parse in cells]
    except ValueError:
        pass
    for lineno, line in enumerate(body, start=2):
        fields = line.split("\t")
        problem = _line_fault(fields, len(header))
        for k, parse in cells:
            if problem:
                break
            try:
                parse(fields[k : k + 1])
            except ValueError as exc:
                problem = str(exc).format(token=fields[k], column=header[k])
        if problem:
            raise DataError(f"{path}: line {lineno}: {problem}")
    raise RuntimeError(f"{path}: the column checks failed but no line is at fault")


def _write_table(path, header: list[str], snp_ids, cells) -> None:
    """TSV of snp ids and (format, values) columns, one format string per row."""
    import numpy as np
    row = "\t".join(["%s", *(fmt for fmt, _ in cells)])
    rows = map(row.__mod__, zip(snp_ids, *(np.asarray(v).tolist() for _, v in cells)))
    _atomic_write(path, "\n".join(["\t".join(header), *rows]) + "\n")


def read_zpanel(path) -> ZPanel:
    """Read a z-score panel TSV: header snp_id then one column per study."""
    from .twogroup import ZPanel
    lines = _read_lines(path)
    header = lines[0].split("\t")
    if header[0] != "snp_id" or len(header) < 2:
        raise DataError(f"{path}: line 1: header must be snp_id followed by study ids")
    if len(lines) < 2:
        raise DataError(f"{path}: no data rows")
    cells = [(k, _floats) for k in range(1, len(header))]
    snp_ids, z = _read_table(path, lines, cells)
    return ZPanel(tuple(snp_ids), tuple(header[1:]), z)


def write_zpanel(panel: ZPanel, path) -> None:
    cells = [(_FLOAT_FMT, z) for z in panel.z]
    _write_table(path, ["snp_id", *panel.study_ids], panel.snp_ids, cells)


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
        # the lexicographic order of model.space
        "configurations": list(map("".join, product("-0+", repeat=model.n_studies))),
        "pi": model.pi.tolist(),
        "em_trace": model.em_trace.tolist(),
        "converged": model.converged,
        "n_iter": model.n_iter,
        "em_gap": model.em_gap,
    }


def write_analysis_report(path, snp_ids, reports: dict) -> None:
    """Report TSV with local fdr, estimated Fdr and rejection per hypothesis.

    reports maps a short label ("nr", "na") to a DiscoveryReport.
    """
    header, cells = ["snp_id"], []
    for label, report in reports.items():
        header += [f"local_fdr_{label}", f"fdr_{label}", f"rejected_{label}"]
        cells += [
            ("%.6g", report.local_fdr),
            ("%.6g", report.fdr_estimate),
            ("%d", report.rejected),
        ]
    _write_table(path, header, snp_ids, cells)


def write_comparison_report(path, snp_ids, columns: dict) -> None:
    """Comparator TSV: p-values, BH-adjusted p-values and rejections.

    columns maps a label to a dict with keys p, p_adjusted, rejected.
    """
    header, cells = ["snp_id"], []
    for label, col in columns.items():
        header += [f"p_{label}", f"p_adj_{label}", f"rejected_{label}"]
        cells += [("%.6g", col["p"]), ("%.6g", col["p_adjusted"]), ("%d", col["rejected"])]
    _write_table(path, header, snp_ids, cells)


def read_report_rejections(path) -> tuple[tuple, dict[str, list[bool]]]:
    """Snp ids and the rejection masks keyed by hypothesis label of any report TSV."""
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
    cells = [(k, _flags) for k in labels.values()]
    snp_ids, masks = _read_table(path, lines, cells)
    return tuple(snp_ids), dict(zip(labels, masks))


def write_truth(truth: TruthPanel, study_ids, path) -> None:
    header, cells = ["snp_id"], []
    for i, sid in enumerate(study_ids):
        header += [f"h_{sid}", f"theta_{sid}", f"maf_{sid}"]
        cells += [("%d", truth.statuses[i]), (_FLOAT_FMT, truth.theta[i]),
                  (_FLOAT_FMT, truth.maf[i])]
    _write_table(path, header, truth.snp_ids, cells)


def _truth_header(path, lines: list[str]) -> int:
    """Width of a truth TSV; a header without whole studies is a DataError."""
    header = lines[0].split("\t")
    if header[0] != "snp_id" or len(header) < 4 or (len(header) - 1) % 3 != 0:
        raise DataError(f"{path}: malformed truth header")
    return len(header)


def read_truth(path) -> tuple[tuple, list[list[int]]]:
    """snp ids and each study's list of M statuses of a truth TSV.

    Parses the h_* columns only: theta and maf cells are not read, so neither
    they nor their agreement with the statuses is checked.
    """
    lines = _read_lines(path)
    width = _truth_header(path, lines)
    cells = [(k, _statuses) for k in range(1, width, 3)]
    snp_ids, values = _read_table(path, lines, cells)
    return tuple(snp_ids), values


def design_payload(design: SimDesign) -> dict:
    from .configspace import config_to_string
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
    from .configspace import config_from_string
    from .sim import SimDesign
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
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise DataError(f"malformed design record: {exc}") from exc


def run_record(command: str, params: dict, inputs: dict) -> dict:
    """Reproducibility record: parameters, versions, input digests, warnings."""
    return {
        "command": command,
        "parameters": params,
        "versions": {m: sys.modules[m].__version__ for m in ("crossrep", "numpy")
                     if m in sys.modules},
        "inputs": {name: sha256_file(p) for name, p in inputs.items()},
        "warnings": [],
    }
