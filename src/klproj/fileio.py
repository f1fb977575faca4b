"""Deterministic on-disk formats: JSON for structured records, CSV for tables.

JSON floats take Python's shortest round-trip form and CSV floats take 17
significant digits; both parse back to the same float64.  Every write is
atomic (temp file + rename in the destination directory) and leaves the file
with the mode the umask gives a new file.  JSON objects are emitted with
sorted keys so the same in-memory record always produces the same bytes;
rerunning a seeded command therefore reproduces its artifacts byte for byte.

A table larger than one staging buffer is formatted as one contiguous row
range per usable CPU (the affinity set, less any cgroup CPU quota): the
first in this process, each other in a forked child that writes it to an
unlinked file, appended in order.  The bytes do not depend on how many
ranges there were.

A dataset CSV gets a twin beside it: ``<csv name>.<sha256 of the CSV's
bytes>.npy``, the float64 table that parsing the CSV returns.  ``read_csv``
loads the twin whose name holds the CSV's digest instead of parsing; any
other CSV, edited or foreign, is parsed.  The CSV stays the format; a twin
is a cache of it that is safe to delete.
"""

import contextlib
import errno
import hashlib
import io
import json
import os
import re
import signal
import tempfile
import traceback
import warnings
from pathlib import Path

import numpy as np

from .errors import DimensionMismatch, KlprojError
from .gaussian import GaussianParams, LabeledDataset
from .projections import FRAME_ORIGINAL, FRAME_WHITENED, ProjectionResult

# CSV cell format per numpy dtype kind; %.17g round-trips float64 bit-exactly.
_CSV_FORMATS = {"f": "%.17g", "i": "%d", "u": "%d", "U": "%s"}

# Cells of write_csv's staging buffer, and of a twin's.
_CSV_CELLS = 1 << 16

# Bytes per read while hashing a CSV for its twin.
_HASH_CHUNK = 1 << 18

# The kernel's list of this process's cgroups, and where cgroup controllers are mounted.
_PROC_CGROUP = "/proc/self/cgroup"
_CGROUP_ROOT = Path("/sys/fs/cgroup")


def _plain(obj):
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    raise TypeError(f"cannot serialize {type(obj)} to JSON")


def dumps_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2, default=_plain) + "\n"


@contextlib.contextmanager
def naming(path):
    """Prefix ``path`` to every typed error raised in the block, keeping its type and
    exit code."""
    try:
        yield
    except KlprojError as exc:
        exc.args = (f"{path}: {exc}",)
        raise


def _umask_mode() -> int:
    """The mode ``open`` gives a new file: 0o666 less the process umask."""
    umask = os.umask(0o077)
    os.umask(umask)
    return 0o666 & ~umask


@contextlib.contextmanager
def _atomic_handle(path, binary=False):
    """A UTF-8 text (or binary) handle on a temp file that replaces ``path`` once the
    block succeeds, with the mode the umask gives a new file (mkstemp's is 0600)."""
    path = Path(path)
    try:
        fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    except OSError as exc:  # name the destination, not a temp name that changes every run
        raise OSError(exc.errno, exc.strerror, str(path)) from None
    text = {} if binary else {"encoding": "utf-8", "newline": "\n"}
    try:
        with os.fdopen(fd, "wb" if binary else "w", **text) as handle:
            yield handle
        os.chmod(tmp, _umask_mode())
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


def _row_blocks(columns, rows: int, dtype):
    """The table of equal-length ``columns`` as successive blocks of at most ``rows``
    rows, each filled into one reused ``dtype`` buffer."""
    n = len(columns[0])
    buffer = np.empty((min(n, rows), len(columns)), dtype=dtype)
    for start in range(0, n, rows):
        filled = buffer[:min(rows, n - start)]
        for j, column in enumerate(columns):
            filled[:, j] = column[start:start + rows]
        yield filled


def _append(part, handle) -> None:
    """Copy binary file ``part``, whole, to the end of ``handle``'s file inside the kernel."""
    size, offset = os.fstat(part.fileno()).st_size, 0
    while copied := os.copy_file_range(part.fileno(), handle.fileno(), size - offset, offset):
        offset += copied


def _cpu_quota(directory: Path):
    """The CPUs' worth of time per period that the cgroup at ``directory`` grants, from
    v2's cpu.max or v1's cpu.cfs_quota_us and cpu.cfs_period_us; None if it sets none."""
    for names in (("cpu.max",), ("cpu.cfs_quota_us", "cpu.cfs_period_us")):
        try:
            quota, period = " ".join((directory / name).read_text() for name in names).split()
            return int(quota) / int(period) if int(quota) > 0 else None
        except (OSError, ValueError):  # no such file, or v2's "max": no quota here
            continue
    return None


def _usable_cpus() -> int:
    """The CPUs this process can run on at once: its affinity set, capped by the least
    CPU quota (rounded down, at least 1) of its cgroups and their ancestors.  1 where
    the affinity set is unknown."""
    if not hasattr(os, "sched_getaffinity"):
        return 1
    cpus = len(os.sched_getaffinity(0))
    try:
        groups = Path(_PROC_CGROUP).read_text().splitlines()
    except OSError:
        return cpus
    for line in groups:  # "<id>:<controllers>:<path>"; v2's line has no controllers
        _, controllers, group = line.split(":", 2)
        if controllers and "cpu" not in controllers.split(","):
            continue
        base = _CGROUP_ROOT / controllers
        directory = base / group.lstrip("/")
        for parent in (directory, *directory.parents):
            quota = _cpu_quota(parent)
            if quota is not None:
                cpus = min(cpus, max(1, int(quota)))
            if parent == base:
                break
    return cpus


@contextlib.contextmanager
def _interrupts_held():
    """Defer SIGINT through the block, so that a KeyboardInterrupt cannot fall between
    starting or reaping a child and recording it."""
    held = signal.pthread_sigmask(signal.SIG_BLOCK, [])
    try:
        signal.pthread_sigmask(signal.SIG_BLOCK, [signal.SIGINT])
        yield
    finally:
        signal.pthread_sigmask(signal.SIG_SETMASK, held)


def _fork_range(path: Path, format_range, lo: int, hi: int, children: list) -> None:
    """Append (pid, part) to ``children``: a forked child that formats rows ``lo:hi``
    into ``part``, an unlinked temp file beside ``path``, and exits 0, or writes its
    traceback to fd 2 and exits 1 if formatting raised.  The child keeps SIGINT held,
    since its parent ends it, and leaves through os._exit, so it never flushes or
    cleans up what it inherited."""
    part = tempfile.TemporaryFile(dir=path.parent)
    try:
        with _interrupts_held():
            pid = os.fork()
            if pid == 0:
                status = 1
                try:
                    with open(part.fileno(), "w", encoding="utf-8", newline="\n",
                              closefd=False) as out:
                        format_range(out, lo, hi)
                    status = 0
                except BaseException:
                    os.write(2, f"formatting rows {lo}:{hi} of {path} failed:\n"
                                f"{traceback.format_exc()}".encode(errors="replace"))
                finally:
                    os._exit(status)
            children.append((pid, part))
    except BaseException:
        part.close()
        raise


def _write_ranges(handle, path: Path, format_range, bounds: list) -> None:
    """Format rows ``bounds[0]:bounds[1]`` into text ``handle`` here and each later range
    in a forked child, then append the children's parts in order.  Every child is reaped
    before this returns or raises; a child that failed is an OSError naming ``path``."""
    handle.flush()  # a child inherits no buffered text
    children = []
    try:
        for lo, hi in zip(bounds[1:-1], bounds[2:]):
            _fork_range(path, format_range, lo, hi, children)
        format_range(handle, bounds[0], bounds[1])
        handle.flush()
        while children:
            pid, part = children[0]
            os.waitid(os.P_PID, pid, os.WEXITED | os.WNOWAIT)  # interruptible, reaps nothing
            with part:
                with _interrupts_held():
                    status = os.waitpid(pid, 0)[1]
                    del children[0]
                if status:
                    raise OSError(errno.EIO, "formatting rows in a child process failed", str(path))
                _append(part, handle)
    finally:
        while children:  # left by an error or an interrupt
            with _interrupts_held():
                pid, part = children.pop()
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
            part.close()


def write_csv(path, header: list, columns) -> None:
    """Write a table given as equal-length columns, one per header name.

    A column's dtype picks its cell format: floats %.17g, integers %d and
    strings %s.  A table without strings is formatted from a float64 buffer,
    so its integer cells must stay below 2**53 in magnitude.  The bytes are
    np.savetxt's: the columns fill one reused buffer of about _CSV_CELLS
    cells at a time, never an n x k table, formatted in blocks of about 256
    cells per ``%``.

    A table that fills more than one buffer is split into contiguous row
    ranges, one per usable CPU (see _usable_cpus) and at most one per buffer,
    so that each range repays its fork many times over.  This process formats
    the first range; each other range is formatted by a forked child into an
    unlinked file beside ``path`` and appended in order with
    os.copy_file_range, before the rename.  The bytes are the same for any
    number of ranges.
    """
    path = Path(path)
    columns = [np.asarray(column) for column in columns]
    fmt = [_CSV_FORMATS[column.dtype.kind] for column in columns]
    row, size = ",".join(fmt), max(1, 256 // len(fmt))
    rows = size * max(1, _CSV_CELLS // (size * len(fmt)))  # whole format blocks
    dtype = object if "%s" in fmt else float

    def format_range(handle, lo, hi):
        for filled in _row_blocks([column[lo:hi] for column in columns], rows, dtype):
            for at in range(0, len(filled), size):
                block = filled[at:at + size]
                handle.write(("\n".join([row] * len(block)) + "\n") % tuple(block.ravel().tolist()))

    n = len(columns[0])
    parts = max(1, min(_usable_cpus(), -(-n // rows)))
    with _atomic_handle(path) as handle:
        handle.write(",".join(header) + "\n")
        _write_ranges(handle, path, format_range, [n * i // parts for i in range(parts + 1)])


def _twin(path: Path, handle) -> Path:
    """The twin's name for the CSV at ``path``, open on binary ``handle``:
    ``<csv name>.<sha256 of its bytes>.npy``, hashed in chunks."""
    sha = hashlib.sha256()
    while chunk := handle.read(_HASH_CHUNK):
        sha.update(chunk)
    return path.with_name(f"{path.name}.{sha.hexdigest()}.npy")


def _twins(path: Path) -> list[Path]:
    """The files beside a CSV named as its twins: ``<csv name>.<64 hex digits>.npy``."""
    twin = re.compile(re.escape(path.name) + r"\.[0-9a-f]{64}\.npy")
    return [path.parent / name for name in os.listdir(path.parent) if twin.fullmatch(name)]


def _twin_table(path: Path, handle):
    """The table of the twin named by the digest of the CSV open on binary ``handle``, or
    None to parse the CSV: there is no such twin, or it is not a 2-D float64 .npy.  The
    CSV is hashed only when some twin of it exists."""
    try:
        twins = _twins(path)
    except OSError:  # a directory that cannot be listed has no twins to offer
        return None
    if not twins:
        return None
    twin = _twin(path, handle)
    try:
        with open(twin, "rb") as npy:
            table = np.lib.format.read_array(npy, allow_pickle=False)
    except (OSError, ValueError):  # no twin of these bytes, or not an .npy
        return None
    return table if table.dtype == np.float64 and table.ndim == 2 else None


def read_csv(path) -> tuple[list, np.ndarray]:
    """Header names and the n x k float64 table of a numeric UTF-8 CSV, else a DimensionMismatch.

    The table is the CSV's twin when one is named by the digest of the CSV's
    bytes (see dataset_to_csv), else parsed; the same checks run on either.
    """
    with open(path, "rb") as raw:
        table = _twin_table(Path(path), raw)
        raw.seek(0)
        handle = io.TextIOWrapper(raw, encoding="utf-8")
        try:  # a UnicodeDecodeError, from the header's read or loadtxt's, is a ValueError
            header = handle.readline().strip()
            if not header:
                raise DimensionMismatch(f"{path}: empty CSV file, expected a header line")
            if table is None:
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
    """Write the dataset as a CSV (features f0.., then label), then its twin.

    The twin ``<csv name>.<sha256 of the CSV's bytes>.npy`` holds the n x (d+1)
    float64 table that parsing the CSV returns, bit for bit: %.17g round-trips
    float64 and the labels are integers.  It is built from row blocks like the
    CSV and written atomically once the CSV is in place; the CSV's older twins
    are then deleted.
    """
    path = Path(path)
    header = [f"f{i}" for i in range(data.dim)] + ["label"]
    columns = [*data.samples.T, data.labels]
    write_csv(path, header, columns)
    with open(path, "rb") as handle:
        twin = _twin(path, handle)
    with _atomic_handle(twin, binary=True) as handle:
        np.lib.format.write_array_header_1_0(
            handle, {"descr": "<f8", "fortran_order": False, "shape": (len(data.labels), len(columns))})
        for block in _row_blocks(columns, max(1, _CSV_CELLS // len(columns)), "<f8"):
            handle.write(block)
    for old in _twins(path):
        if old != twin:
            old.unlink(missing_ok=True)


def dataset_from_csv(path) -> LabeledDataset:
    """The labeled dataset in a CSV; every typed error names the file."""
    header, table = read_csv(path)
    with naming(path):
        if header[-1] != "label":
            raise DimensionMismatch(f"expected a trailing 'label' column, got {header[-3:]}")
        return LabeledDataset(table[:, :-1], table[:, -1])
