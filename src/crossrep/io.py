"""TSV and JSON serialization for panels, fits, models, reports and runs.

All files are plain text, and tables are read and written in blocks of
lines. Writes go through a temp file plus rename so a crashed run never
leaves a half-written output; nothing written depends on wall-clock time,
so identical inputs give byte-identical outputs. numpy is imported where
arrays are built, so reading flags and statuses (all evaluate does) needs none.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
from array import array
from contextlib import contextmanager
from itertools import chain, repeat
from pathlib import Path
from typing import TYPE_CHECKING

from .errors import DataError

if TYPE_CHECKING:
    from .multistudy import ConfigModel
    from .sim import SimDesign, TruthPanel
    from .twogroup import BinnedPanel, TwoGroupFit, ZPanel

_FLOAT_FMT = "%.17g"
_READ_BLOCK = 1 << 16  # readlines size hint, in characters, of one block of lines
_WRITE_BLOCK = 1024  # rows formatted per write


def _atomic_write(path, text) -> None:
    """Write text, one string or an iterable of strings, via a temp file and rename."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.writelines([text] if isinstance(text, str) else text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_json(path, payload) -> None:
    _atomic_write(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


@contextmanager
def _reading(path):
    """Open a text file; a missing, unreadable or non-text file is a DataError."""
    try:
        with open(path) as handle:
            yield handle
    except OSError as exc:
        raise DataError(f"{path}: cannot read: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not a text file: {exc.reason}") from exc


def read_json(path):
    with _reading(path) as handle:
        text = handle.read()
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise DataError(f"{path}: not valid JSON: {exc}") from exc


def sha256_file(path) -> str:
    import hashlib  # loads OpenSSL, which only digests need
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


# Column parsers raise a ValueError whose message is the error for one bad token.

def _floats(tokens: list[str]) -> array:
    import numpy as np
    try:
        values = np.fromiter(map(float, tokens), float, len(tokens))
    except ValueError:
        raise ValueError("column {column!r}: {token!r} is not a number") from None
    if not np.isfinite(values).all():
        raise ValueError("column {column!r}: missing or non-finite value")
    return array("d", values.tobytes())


_STATUS_TOKENS = {"-1": -1, "0": 0, "1": 1}


def _statuses(tokens: list[str]) -> list[int]:
    try:  # the tokens write_truth writes, and no other spelling
        return list(map(_STATUS_TOKENS.__getitem__, tokens))
    except KeyError:
        raise ValueError("column {column!r}: {token!r} is not -1, 0 or +1") from None


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


def _read_table(path, header_cells):
    """Header and columns of a TSV, read in blocks of lines: snp ids, then the cells.

    header_cells(path, header) checks the header and returns (column index,
    parser) pairs in the order a line is checked.
    """
    with _reading(path) as handle:
        blocks = iter(lambda: "".join(handle.readlines(_READ_BLOCK)).splitlines(), [])
        lines = next(blocks, [])
        if not lines:
            raise DataError(f"{path}: empty file")
        header = lines[0].split("\t")
        cells = header_cells(path, header)
        columns = [[], *(parse([]) for _, parse in cells)]
        lineno = 2
        for body in chain([lines[1:]], blocks):
            for column, block in zip(columns, _parse_block(path, header, cells, body, lineno)):
                column.extend(block)
            lineno += len(body)
    return header, columns


def _parse_block(path, header: list[str], cells, lines: list[str], lineno: int):
    """Snp ids and cell columns of lines, the first numbered lineno, parsed whole.

    On a failed check the lines are walked one by one to raise the first fault.
    """
    width = len(header)
    try:
        if list(map(str.count, lines, repeat("\t"))).count(width - 1) != len(lines):
            raise ValueError("wrong field count")
        tokens = "\t".join(lines).split("\t") if lines else []
        return [tokens[::width], *(parse(tokens[k::width]) for k, parse in cells)]
    except ValueError:
        pass
    for lineno, line in enumerate(lines, start=lineno):
        fields = line.split("\t")
        problem = _line_fault(fields, width)
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
    """TSV of snp ids and (format, values) columns, formatted in blocks of rows."""
    import numpy as np
    row = "\t".join(["%s", *(fmt for fmt, _ in cells)]) + "\n"
    columns = [np.asarray(v) for _, v in cells]
    rows = (slice(lo, lo + _WRITE_BLOCK) for lo in range(0, len(snp_ids), _WRITE_BLOCK))
    blocks = ("".join(map(row.__mod__, zip(snp_ids[r], *(c[r].tolist() for c in columns))))
              for r in rows)
    _atomic_write(path, chain(["\t".join(header) + "\n"], blocks))


def _zpanel_cells(path, header: list[str]):
    if header[0] != "snp_id" or len(header) < 2:
        raise DataError(f"{path}: line 1: header must be snp_id followed by study ids")
    return [(k, _floats) for k in range(1, len(header))]


def read_zpanel(path) -> ZPanel:
    """Read a z-score panel TSV: header snp_id then one column per study."""
    from .twogroup import ZPanel
    header, (snp_ids, *z) = _read_table(path, _zpanel_cells)
    if not snp_ids:
        raise DataError(f"{path}: no data rows")
    return ZPanel(snp_ids, tuple(header[1:]), z)


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


def model_payload(model: ConfigModel, study_ids, excluded: dict, reports: dict) -> dict:
    """model.json's record; excluded maps a study id to its exclusion reason."""
    from .configspace import configuration_strings
    return {
        "study_ids": list(study_ids),
        "excluded_studies": dict(excluded),
        "configurations": configuration_strings(model.n_studies),
        "pi": model.pi.tolist(),
        "em_trace": model.em_trace.tolist(),
        "converged": model.converged,
        "n_iter": model.n_iter,
        "em_gap": model.em_gap,
        "thresholds": {label: {"t_hat": rep.t_hat, "n_rejected": rep.n_rejected}
                       for label, rep in reports.items()},
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


def _report_cells(path, header: list[str]):
    if header[0] != "snp_id":
        raise DataError(f"{path}: first column must be snp_id")
    cells = [(k, _flags) for k, name in enumerate(header) if name.startswith("rejected_")]
    if not cells:
        raise DataError(f"{path}: no rejected_* columns found")
    return cells


def read_report_rejections(path) -> tuple[tuple, dict[str, list[bool]]]:
    """Snp ids and the rejection masks keyed by hypothesis label of any report TSV."""
    header, (snp_ids, *masks) = _read_table(path, _report_cells)
    labels = [name.removeprefix("rejected_") for name in header if name.startswith("rejected_")]
    return tuple(snp_ids), dict(zip(labels, masks))


def write_truth(truth: TruthPanel, study_ids, path) -> None:
    header, cells = ["snp_id"], []
    for i, sid in enumerate(study_ids):
        header += [f"h_{sid}", f"theta_{sid}", f"maf_{sid}"]
        cells += [("%d", truth.statuses[i]), (_FLOAT_FMT, truth.theta[i]),
                  (_FLOAT_FMT, truth.maf[i])]
    _write_table(path, header, truth.snp_ids, cells)


def _truth_cells(path, header: list[str]):
    """The h_* status columns; a header without whole studies is a DataError."""
    if header[0] != "snp_id" or len(header) < 4 or (len(header) - 1) % 3 != 0:
        raise DataError(f"{path}: malformed truth header")
    return [(k, _statuses) for k in range(1, len(header), 3)]


def read_truth(path) -> tuple[tuple, list[list[int]]]:
    """snp ids and each study's list of M statuses of a truth TSV.

    Parses the h_* columns only: theta and maf cells are not read, so neither
    they nor their agreement with the statuses is checked.
    """
    _, (snp_ids, *statuses) = _read_table(path, _truth_cells)
    return tuple(snp_ids), statuses


def design_payload(design: SimDesign) -> dict:
    from dataclasses import asdict
    from .configspace import config_to_string
    return {
        **asdict(design),
        "config_probs": {config_to_string(h): p for h, p in design.config_probs.items()},
        "effect_ranges": {str(s): list(r) for s, r in design.effect_ranges.items()},
    }


def design_from_payload(payload: dict) -> SimDesign:
    """The SimDesign of a design_payload record; its fields not named here are ints."""
    from dataclasses import fields
    from .configspace import config_from_string
    from .sim import SimDesign
    parse = {
        "config_probs": lambda d: {config_from_string(t): float(p) for t, p in d.items()},
        "effect_ranges": lambda d: {int(s): tuple(map(float, r)) for s, r in d.items()},
        "maf_range": lambda r: tuple(map(float, r)),
        "alpha": float,
    }
    try:
        return SimDesign(**{f.name: parse.get(f.name, int)(payload[f.name])
                            for f in fields(SimDesign)})
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise DataError(f"malformed design record: {exc}") from exc


def run_record(command: str, params: dict, inputs: dict, warnings) -> dict:
    """Reproducibility record: parameters, versions, input digests, warnings."""
    return {
        "command": command,
        "parameters": params,
        "versions": {m: sys.modules[m].__version__ for m in ("crossrep", "numpy")
                     if m in sys.modules},
        "inputs": {name: sha256_file(p) for name, p in inputs.items()},
        "warnings": list(warnings),
    }
