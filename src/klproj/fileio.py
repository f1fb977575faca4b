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

A params record (write_params) and a dataset CSV (dataset_to_csv) get a twin
beside them: the float64 table that parsing the file returns, as a C-order
.npy named ``<file name>.<sha256 of the file>.<sha256 of the twin>.npy``.
The first digest ties the twin to the file's bytes, so an edited or foreign
file is parsed; the second guards the twin's own bytes, so a damaged twin is
ignored.  read_params and read_csv load a twin whose bytes hash to both
digests instead of parsing, and parse in every other case.  The file stays
the format; a twin is a cache of it that is safe to delete.
"""

import contextlib
import errno
import hashlib
import io
import itertools
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

# Cells of write_csv's staging buffer, and of a dataset twin's.
_CSV_CELLS = 1 << 16

# Bytes per read while hashing a file or its twin.
_HASH_CHUNK = 1 << 18

# The header dict of a twin, after the .npy 1.0 magic and the 2-byte header length: what
# np.lib.format writes for a C-order '<f8' table, spaces and a newline closing it.
_TWIN_HEADER = re.compile(
    rb"\{'descr': '<f8', 'fortran_order': False, 'shape': \((\d+), (\d+)\), \} *\n")

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
def _atomic_handle(path, binary=False, final=None):
    """A UTF-8 text (or binary) handle on a temp file beside ``path`` that replaces
    ``path`` once the block succeeds, or the path ``final()`` then returns, with the mode
    the umask gives a new file (mkstemp's is 0600)."""
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
        os.replace(tmp, path if final is None else final())
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path, text: str) -> None:
    with _atomic_handle(path) as handle:
        handle.write(text)


def write_json(path, obj) -> str:
    """Write ``obj`` as JSON (see dumps_json) and return the text written."""
    text = dumps_json(obj)
    atomic_write_text(path, text)
    return text


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
    finally:  # left by an error or an interrupt: kill, reap and close every child
        interrupt = None
        while children:  # a further interrupt restarts the work and is raised after it
            try:
                for pid, part in children[::-1]:
                    with contextlib.suppress(ChildProcessError):  # reaped, not yet removed
                        if os.waitpid(pid, os.WNOHANG)[0] == 0:  # running: its pid is its own
                            os.kill(pid, signal.SIGKILL)
                            os.waitpid(pid, 0)
                    part.close()
                    children.pop()
            except KeyboardInterrupt as exc:
                interrupt = exc
        if interrupt is not None:
            raise interrupt


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


def _digest(handle) -> str:
    """The SHA-256 hex digest of what is left to read on binary ``handle``, read in chunks."""
    sha = hashlib.sha256()
    while chunk := handle.read(_HASH_CHUNK):
        sha.update(chunk)
    return sha.hexdigest()


def _twins(path: Path, digests: int = 2) -> list[tuple[Path, ...]]:
    """The files beside ``path`` named as its twins, ``<file name>.<64 hex digits>.<64
    hex digits>.npy``, each with the digests its name gives for the file and the twin.
    With ``digests=1``, the ``<file name>.<64 hex digits>.npy`` twins of older releases."""
    twin = re.compile(re.escape(path.name) + r"\.([0-9a-f]{64})" * digests + r"\.npy")
    return [(path.parent / name, *match.groups()) for name in os.listdir(path.parent)
            if (match := twin.fullmatch(name))]


def _write_twin(path: Path, digest: str, shape: tuple, blocks) -> None:
    """Write the twin of the file at ``path``, whose bytes hash to ``digest``: the float64
    table of ``shape``, given as successive C-order float64 ``blocks``, as an .npy that is
    hashed while it is written and renamed into place under both digests.  The file's
    other twins, one-digest ones included, are then deleted."""
    header = io.BytesIO()
    np.lib.format.write_array_header_1_0(
        header, {"descr": "<f8", "fortran_order": False, "shape": shape})
    sha = hashlib.sha256()
    twin = lambda: path.with_name(f"{path.name}.{digest}.{sha.hexdigest()}.npy")
    with _atomic_handle(path, binary=True, final=twin) as handle:
        for block in itertools.chain([header.getvalue()], blocks):
            sha.update(block)
            handle.write(block)
    for old, *_ in _twins(path) + _twins(path, 1):
        if old != twin():
            old.unlink(missing_ok=True)


def _read_twin(twin: Path, digest: str):
    """The 2-D float64 table in the .npy ``twin``, or None unless its header is one
    _write_twin writes (see _TWIN_HEADER), its size is the table's, and its bytes hash to
    ``digest``.  The header is matched, not evaluated, and the table's bytes are hashed
    as they are read into the one array returned."""
    try:
        with open(twin, "rb") as npy:
            head = npy.read(10)
            if head[:8] != b"\x93NUMPY\x01\x00":
                return None
            head += npy.read(int.from_bytes(head[8:], "little"))
            match = _TWIN_HEADER.fullmatch(head, 10)
            if match is None:
                return None
            shape = tuple(int(size) for size in match.groups())
            if os.fstat(npy.fileno()).st_size != len(head) + 8 * shape[0] * shape[1]:
                return None
            table, sha = np.empty(shape, "<f8"), hashlib.sha256(head)
            rest = memoryview(table).cast("B")
            while rest and (count := npy.readinto(rest[:_HASH_CHUNK])):
                sha.update(rest[:count])
                rest = rest[count:]
    except (OSError, ValueError):  # unreadable, or a size past int()'s digit limit
        return None
    return table if not rest and sha.hexdigest() == digest else None


def _twin_table(path: Path, handle):
    """The table in a twin of the file at ``path``, open on binary ``handle``, or None to
    parse the file: no twin is named by the digest of the file's bytes, or none such
    verifies (see _read_twin).  The file is hashed only when some twin of it exists."""
    try:
        twins = _twins(path)
    except OSError:  # a directory that cannot be listed has no twins to offer
        return None
    digest = _digest(handle) if twins else None
    for twin, of_file, of_twin in twins:
        if of_file == digest and (table := _read_twin(twin, of_twin)) is not None:
            return table
    return None


def read_csv(path) -> tuple[list, np.ndarray]:
    """Header names and the n x k float64 table of a numeric UTF-8 CSV, else a DimensionMismatch.

    The table is the CSV's verified twin (see dataset_to_csv) when it has as
    many columns as the header, else parsed; the same checks run on either.
    """
    with open(path, "rb") as raw:
        table = _twin_table(Path(path), raw)
        raw.seek(0)
        handle = io.TextIOWrapper(raw, encoding="utf-8")
        try:  # a UnicodeDecodeError, from the header's read or loadtxt's, is a ValueError
            header = handle.readline().strip()
            if not header:
                raise DimensionMismatch(f"{path}: empty CSV file, expected a header line")
            header = header.split(",")
            if table is None or table.shape[1] != len(header):
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")  # no data rows is reported below
                    table = np.loadtxt(handle, delimiter=",", comments=None, ndmin=2)
        except ValueError as exc:
            raise DimensionMismatch(f"{path}: {exc}") from None
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


def write_params(path, p: GaussianParams, config: dict | None = None) -> None:
    """Write ``p`` as a gaussian_params JSON record (see params_to_dict), then its twin.

    The twin holds the (d+1) x d float64 table [mean; covariance] that parsing
    the record gives, bit for bit, since JSON floats take the shortest
    round-trip form.  It is named by the digest of the JSON text written, so
    the record is not read back (see _write_twin).
    """
    path = Path(path)
    text = write_json(path, params_to_dict(p, config))
    _write_twin(path, hashlib.sha256(text.encode()).hexdigest(), (p.dim + 1, p.dim),
                (p.mean, p.covariance))


def read_params(path) -> GaussianParams:
    """The class parameters in a gaussian_params JSON file; every typed error names it.

    The mean and covariance come from the file's twin when one verifies and
    holds a (d+1) x d table (see write_params), else from parsing the record
    (read_json, params_from_dict).  GaussianParams validates either.
    """
    path = Path(path)
    with open(path, "rb") as raw:
        table = _twin_table(path, raw)
    if table is None or table.shape[0] != table.shape[1] + 1:
        record = read_json(path)
        with naming(path):
            return params_from_dict(record)
    with naming(path):
        return GaussianParams(table[0], table[1:])


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

    The twin holds the n x (d+1) float64 table that parsing the CSV returns,
    bit for bit: %.17g round-trips float64 and the labels are integers.  It
    is built from row blocks like the CSV and named by the digest of the CSV
    as written (see _write_twin).
    """
    path = Path(path)
    header = [f"f{i}" for i in range(data.dim)] + ["label"]
    columns = [*data.samples.T, data.labels]
    write_csv(path, header, columns)
    with open(path, "rb") as handle:
        digest = _digest(handle)
    _write_twin(path, digest, (len(data.labels), len(columns)),
                _row_blocks(columns, max(1, _CSV_CELLS // len(columns)), "<f8"))


def dataset_from_csv(path) -> LabeledDataset:
    """The labeled dataset in a CSV; every typed error names the file."""
    header, table = read_csv(path)
    with naming(path):
        if header[-1] != "label":
            raise DimensionMismatch(f"expected a trailing 'label' column, got {header[-3:]}")
        return LabeledDataset(table[:, :-1], table[:, -1])
