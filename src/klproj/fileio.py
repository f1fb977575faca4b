"""Deterministic on-disk formats: JSON for structured records, CSV for tables.

Every float is written with 17 significant digits, which round-trips
float64 bit-exactly, and every write is atomic (temp file + rename in the
destination directory).  JSON objects are emitted with sorted keys so the
same in-memory record always produces the same bytes; rerunning a seeded
command therefore reproduces its artifacts byte for byte.
"""

import json
import math
import os
import tempfile
from pathlib import Path

import numpy as np

from .errors import DimensionMismatch
from .gaussian import GaussianParams, LabeledDataset
from .projections import ProjectionResult


def format_float(x: float) -> str:
    """17-significant-digit decimal form; parses back to the same float64."""
    x = float(x)
    if math.isnan(x):
        return "NaN"
    if math.isinf(x):
        return "Infinity" if x > 0 else "-Infinity"
    return "%.17g" % x


def _json_chunks(obj, indent: int, out: list) -> None:
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        out.append("{\n")
        keys = sorted(obj)
        for i, key in enumerate(keys):
            if not isinstance(key, str):
                raise TypeError(f"JSON keys must be strings, got {type(key)}")
            out.append(inner + json.dumps(key) + ": ")
            _json_chunks(obj[key], indent + 1, out)
            out.append(",\n" if i + 1 < len(keys) else "\n")
        out.append(pad + "}")
    elif isinstance(obj, (list, tuple)):
        seq = list(obj)
        if not seq:
            out.append("[]")
            return
        out.append("[\n")
        for i, item in enumerate(seq):
            out.append(inner)
            _json_chunks(item, indent + 1, out)
            out.append(",\n" if i + 1 < len(seq) else "\n")
        out.append(pad + "]")
    elif isinstance(obj, bool):
        out.append("true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        out.append(format_float(obj))
    elif obj is None:
        out.append("null")
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif isinstance(obj, np.ndarray):
        _json_chunks(obj.tolist(), indent, out)
    else:
        raise TypeError(f"cannot serialize {type(obj)} to JSON")


def dumps_json(obj) -> str:
    out: list[str] = []
    _json_chunks(obj, 0, out)
    out.append("\n")
    return "".join(out)


def atomic_write_text(path, text: str) -> None:
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_json(path, obj) -> None:
    atomic_write_text(path, dumps_json(obj))


def read_json(path):
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def _format_cell(x) -> str:
    if isinstance(x, str):
        return x
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return format_float(x)


def write_csv(path, header: list, rows) -> None:
    lines = [",".join(header)]
    lines.extend(",".join(_format_cell(cell) for cell in row) for row in rows)
    atomic_write_text(path, "\n".join(lines) + "\n")


def read_csv(path) -> tuple[list, list]:
    with open(path, "r", encoding="utf-8") as handle:
        lines = [line.rstrip("\n") for line in handle if line.strip()]
    if not lines:
        raise DimensionMismatch(f"{path}: empty CSV file, expected a header line")
    header = lines[0].split(",")
    return header, [line.split(",") for line in lines[1:]]


# ---------------------------------------------------------------------------
# record schemas
# ---------------------------------------------------------------------------


def _check_record(record: dict, kind: str, keys: tuple) -> None:
    if record.get("kind") != kind:
        raise DimensionMismatch(f"expected a {kind} record, got kind={record.get('kind')!r}")
    missing = [key for key in keys if key not in record]
    if missing:
        raise DimensionMismatch(f"{kind} record lacks required keys: {', '.join(missing)}")


def params_to_dict(p: GaussianParams, config: dict | None = None) -> dict:
    record = {
        "kind": "gaussian_params",
        "dim": p.dim,
        "mean": p.mean.tolist(),
        "covariance": p.covariance.tolist(),
    }
    if config is not None:
        record["config"] = config
    return record


def params_from_dict(record: dict) -> GaussianParams:
    _check_record(record, "gaussian_params", ("mean", "covariance"))
    return GaussianParams(np.array(record["mean"], dtype=float),
                          np.array(record["covariance"], dtype=float))


def projection_to_dict(result: ProjectionResult, config: dict | None = None, **extras) -> dict:
    record = {
        "kind": "projection",
        "method": result.method,
        "frame": result.frame,
        "r": result.r,
        "dim": result.dim,
        "matrix": result.matrix.tolist(),
        "achieved_kld": result.achieved_kld,
        "component_scores": (
            list(result.component_scores) if result.component_scores is not None else None
        ),
        "warnings": list(result.warnings),
    }
    if result.matrix_original is not None:
        record["matrix_original"] = result.matrix_original.tolist()
    if config is not None:
        record["config"] = config
    record.update(extras)
    return record


def projection_from_dict(record: dict) -> ProjectionResult:
    _check_record(record, "projection", ("matrix", "frame", "method", "achieved_kld"))
    scores = record.get("component_scores")
    original = record.get("matrix_original")
    return ProjectionResult(
        matrix=np.array(record["matrix"], dtype=float),
        frame=record["frame"],
        method=record["method"],
        achieved_kld=float(record["achieved_kld"]),
        component_scores=tuple(scores) if scores is not None else None,
        matrix_original=np.array(original, dtype=float) if original is not None else None,
        warnings=tuple(record.get("warnings", ())),
    )


def dataset_to_csv(path, data: LabeledDataset) -> None:
    header = [f"f{i}" for i in range(data.dim)] + ["label"]
    rows = (
        [format_float(v) for v in x_row] + [str(int(label))]
        for x_row, label in zip(data.samples, data.labels)
    )
    write_csv(path, header, rows)


def dataset_from_csv(path) -> LabeledDataset:
    header, rows = read_csv(path)
    if not header or header[-1] != "label":
        raise DimensionMismatch(f"{path}: expected a trailing 'label' column, got {header[-3:]}")
    samples = np.array([[float(cell) for cell in row[:-1]] for row in rows], dtype=float)
    labels = np.array([int(row[-1]) for row in rows])
    return LabeledDataset(samples, labels)
