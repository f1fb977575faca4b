"""Deterministic on-disk formats: JSON for structured records, CSV for tables.

JSON floats take Python's shortest round-trip form and CSV floats take 17
significant digits; both parse back to the same float64.  Every write is
atomic (temp file + rename in the destination directory).  JSON objects are
emitted with sorted keys so the same in-memory record always produces the
same bytes; rerunning a seeded command therefore reproduces its artifacts
byte for byte.
"""

import contextlib
import json
import os
import tempfile
import warnings
from pathlib import Path

import numpy as np

from .errors import DimensionMismatch
from .gaussian import GaussianParams, LabeledDataset
from .projections import FRAME_ORIGINAL, FRAME_WHITENED, ProjectionResult

# CSV cell format per numpy dtype kind; %.17g round-trips float64 bit-exactly.
_CSV_FORMATS = {"f": "%.17g", "i": "%d", "u": "%d", "U": "%s"}

# Cells of write_csv's staging buffer.
_CSV_CELLS = 1 << 16


def _plain(obj):
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    raise TypeError(f"cannot serialize {type(obj)} to JSON")


def dumps_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2, default=_plain) + "\n"


@contextlib.contextmanager
def _atomic_handle(path):
    """A text handle on a temp file that replaces ``path`` once the block succeeds."""
    path = Path(path)
    try:
        fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    except OSError as exc:  # name the destination, not a temp name that changes every run
        raise OSError(exc.errno, exc.strerror, str(path)) from None
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as handle:
            yield handle
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path, text: str) -> None:
    with _atomic_handle(path) as handle:
        handle.write(text)


def write_json(path, obj) -> None:
    atomic_write_text(path, dumps_json(obj))


def read_json(path):
    """The record in a JSON file; a file that is not UTF-8 JSON is a DimensionMismatch naming it."""
    with open(path, "r", encoding="utf-8") as handle:
        try:
            return json.load(handle)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise DimensionMismatch(f"{path}: {exc}") from None


def write_csv(path, header: list, columns) -> None:
    """Write a table given as equal-length columns, one per header name.

    A column's dtype picks its cell format: floats %.17g, integers %d and
    strings %s.  A table without strings is formatted from a float64 buffer,
    so its integer cells must stay below 2**53 in magnitude.  The bytes are
    np.savetxt's: the columns fill one reused buffer of about _CSV_CELLS
    cells at a time, never an n x k table, formatted in blocks of about 256
    cells per ``%``.
    """
    columns = [np.asarray(column) for column in columns]
    fmt = [_CSV_FORMATS[column.dtype.kind] for column in columns]
    n, row, size = len(columns[0]), ",".join(fmt), max(1, 256 // len(fmt))
    rows = size * max(1, _CSV_CELLS // (size * len(fmt)))  # whole format blocks
    buffer = np.empty((min(n, rows), len(fmt)), dtype=object if "%s" in fmt else float)
    with _atomic_handle(path) as handle:
        handle.write(",".join(header) + "\n")
        for start in range(0, n, rows):
            filled = buffer[:min(rows, n - start)]
            for j, column in enumerate(columns):
                filled[:, j] = column[start:start + rows]
            for at in range(0, len(filled), size):
                block = filled[at:at + size]
                handle.write(("\n".join([row] * len(block)) + "\n") % tuple(block.ravel().tolist()))


def read_csv(path) -> tuple[list, np.ndarray]:
    """Header names and the n x k float64 table of a numeric UTF-8 CSV, else a DimensionMismatch."""
    with open(path, "r", encoding="utf-8") as handle:
        try:  # a UnicodeDecodeError, from the header's read or loadtxt's, is a ValueError
            header = handle.readline().strip()
            if not header:
                raise DimensionMismatch(f"{path}: empty CSV file, expected a header line")
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # no data rows is reported below
                table = np.loadtxt(handle, delimiter=",", comments=None, ndmin=2)
        except ValueError as exc:
            raise DimensionMismatch(f"{path}: {exc}") from None
    header = header.split(",")
    if table.size == 0:
        raise DimensionMismatch(f"{path}: no data rows below the header")
    if table.shape[1] != len(header):
        raise DimensionMismatch(
            f"{path}: header names {len(header)} columns, rows have {table.shape[1]}"
        )
    return header, table


# ---------------------------------------------------------------------------
# record schemas
# ---------------------------------------------------------------------------


def _check_record(record: dict, kind: str, keys: tuple) -> None:
    if not isinstance(record, dict):
        raise DimensionMismatch(f"expected a {kind} record, got a JSON {type(record).__name__}")
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
    mean, cov = _record_array(record, "mean", 1), _record_array(record, "covariance", 2)
    if record.get("dim", mean.size) != mean.size:
        raise DimensionMismatch(f"gaussian_params record dim={record['dim']!r} disagrees with "
                                f"its {mean.size}-vector mean")
    return GaussianParams(mean, cov)


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


def _record_array(record: dict, key: str, ndim: int, shape: tuple | None = None) -> np.ndarray:
    """record[key] as a float64 array: ``ndim``-D, of numbers (not booleans), of ``shape`` if given."""
    try:
        a = np.asarray(record[key])
    except ValueError:  # ragged rows
        a = np.asarray(None)
    if a.ndim != ndim or a.dtype.kind not in "iuf" or shape not in (None, a.shape):
        want = "" if shape is None else f" of shape {shape}"
        raise DimensionMismatch(f"{record['kind']} record {key} must be a {ndim}-D array "
                                f"of numbers{want}")
    return a.astype(float)


def projection_from_dict(record: dict) -> ProjectionResult:
    _check_record(record, "projection", ("matrix", "frame", "method", "achieved_kld"))
    frame, original = record["frame"], record.get("matrix_original")
    if frame not in (FRAME_ORIGINAL, FRAME_WHITENED):
        raise DimensionMismatch(f"projection record has unknown frame {frame!r}")
    if frame == FRAME_WHITENED and original is None:
        raise DimensionMismatch(f"a {frame} projection record needs matrix_original")
    matrix = _record_array(record, "matrix", 2)
    if original is not None:
        original = _record_array(record, "matrix_original", 2, matrix.shape)
    for key, size in zip(("r", "dim"), matrix.shape):
        if record.get(key, size) != size:
            raise DimensionMismatch(
                f"projection record {key}={record[key]!r} disagrees with its {matrix.shape} matrix")
    scores, notes = record.get("component_scores"), record.get("warnings", [])
    for key, want, ok in (
            ("achieved_kld", "a number", type(record["achieved_kld"]) in (int, float)),
            ("method", "a string", isinstance(record["method"], str)),
            ("warnings", "a list of strings",
             isinstance(notes, list) and all(isinstance(w, str) for w in notes)),
            ("component_scores", "null or a list of numbers", scores is None
             or isinstance(scores, list) and all(type(v) in (int, float) for v in scores))):
        if not ok:
            raise DimensionMismatch(f"projection record {key} must be {want}")
    return ProjectionResult(
        matrix=matrix,
        frame=frame,
        method=record["method"],
        achieved_kld=float(record["achieved_kld"]),
        component_scores=tuple(scores) if scores is not None else None,
        matrix_original=original,
        warnings=tuple(notes),
    )


def dataset_to_csv(path, data: LabeledDataset) -> None:
    header = [f"f{i}" for i in range(data.dim)] + ["label"]
    write_csv(path, header, [*data.samples.T, data.labels])


def dataset_from_csv(path) -> LabeledDataset:
    header, table = read_csv(path)
    if header[-1] != "label":
        raise DimensionMismatch(f"{path}: expected a trailing 'label' column, got {header[-3:]}")
    return LabeledDataset(table[:, :-1], table[:, -1])
