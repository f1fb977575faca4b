"""Seeded mutation fuzz of the twin-backed inputs, through ``klproj.cli.main``.

Each case mutates one file of a ``gen --d 4`` output: a params JSON, its twin,
the dataset CSV or its twin.  The mutation, drawn from numpy's RNG, is a
truncation, one to three bit flips, an inserted token or a deleted span.
``fit`` then reads the file, and the typed-error contract must hold: exit 0,
or exit 2/3/4 with exactly one JSON line on stderr that names the mutated
file, with no warning and no traceback.  A mutated twin must be ignored, so
the fit writes the same bytes as on the unmutated inputs.

``run_cases`` takes any seed and case count, for sweeps larger than the
tier-1 one below.
"""

import contextlib
import io
import json
import warnings
from pathlib import Path

import numpy as np
import pytest

from klproj.cli import main

PARAMS = ["params_class1.json", "params_class2.json"]
FITS = {  # the fit that reads each mutated file, by file names in its directory
    "params": ["fit", "--params", *PARAMS, "--r", "2", "--out", "fit.json"],
    "dataset": ["fit", "--dataset", "dataset.csv", "--method", "alg2", "--r", "2",
                "--out", "fit.json"],
}
NAMES = {*PARAMS, "dataset.csv", "fit.json"}
TOKENS = (b",", b"\n", b"-", b".", b"e", b"0", b"9", b"1e308", b"-1e308", b"1e-320", b"NaN",
          b"Infinity", b"null", b"true", b'"', b"[", b"]", b"{", b"}", b" ", b"\xff",
          b"9007199254740993")


def mutate(data: bytes, rng) -> bytes:
    """``data`` truncated, with 1-3 bits flipped, with a token inserted, or with a span
    of 1-64 bytes deleted."""
    kind, at = rng.integers(4), int(rng.integers(len(data)))
    if kind == 0:
        return data[:at]
    if kind == 1:
        out = bytearray(data)
        for pos in rng.integers(len(data), size=rng.integers(1, 4)):
            out[pos] ^= 1 << int(rng.integers(8))
        return bytes(out)
    if kind == 2:
        return data[:at] + TOKENS[rng.integers(len(TOKENS))] + data[at:]
    return data[:at] + data[at + int(rng.integers(1, 65)):]


def _fit(workdir: Path, command: str):
    """Exit code, stderr and caught warnings of one fit run in ``workdir``."""
    argv = [str(workdir / arg) if arg in NAMES else arg for arg in FITS[command]]
    err = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        code = main(argv)
    return code, err.getvalue(), caught


def targets(workdir: Path) -> list[tuple[str, str, bool]]:
    """(file name, fit that reads it, is a twin) for each file the fuzz mutates."""
    twin = lambda name: next(workdir.glob(f"{name}.*.*.npy")).name
    return [(PARAMS[0], "params", False), (twin(PARAMS[0]), "params", True),
            ("dataset.csv", "dataset", False), (twin("dataset.csv"), "dataset", True)]


def run_cases(workdir: Path, seed: int, cases: int) -> tuple[list[str], dict]:
    """Run ``cases`` mutations of the files of a ``gen`` output in ``workdir``, cycling
    through them; each file is restored after its case.  Returns the contract
    violations and a count of the exit codes."""
    reference = {}
    for command in FITS:
        assert _fit(workdir, command)[0] == 0
        reference[command] = (workdir / "fit.json").read_bytes()
    files = targets(workdir)
    violations, codes = [], {}
    for case in range(cases):
        name, command, is_twin = files[case % len(files)]
        path = workdir / name
        original = path.read_bytes()
        path.write_bytes(mutate(original, np.random.default_rng([seed, case])))
        try:
            (workdir / "fit.json").unlink(missing_ok=True)
            code, err, caught = _fit(workdir, command)
        except Exception as exc:  # a traceback: an error outside the typed contract
            code, err, caught = f"raised {type(exc).__name__}: {exc}", "", []
        finally:
            path.write_bytes(original)
        codes[code] = codes.get(code, 0) + 1
        lines = err.splitlines()
        where = f"seed {seed} case {case} ({name})"
        if caught:
            violations.append(f"{where}: warned {caught[0].message}")
        if code == 0:
            if is_twin and (workdir / "fit.json").read_bytes() != reference[command]:
                violations.append(f"{where}: a mutated twin changed the fit")
        elif code not in (2, 3, 4):
            violations.append(f"{where}: exit {code}")
        elif is_twin:
            violations.append(f"{where}: a mutated twin was not ignored: {err.strip()}")
        elif len(lines) != 1 or str(path) not in json.loads(lines[0])["message"]:
            violations.append(f"{where}: stderr does not name the file: {err!r}")
    return violations, codes


@pytest.fixture(scope="module")
def generated(tmp_path_factory):
    workdir = tmp_path_factory.mktemp("fuzz")
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["gen", "--d", "4", "--n", "30", "--seed", "0", "--out-dir", str(workdir)]) == 0
    return workdir


def test_mutated_inputs_keep_the_typed_error_contract(generated):
    violations, codes = run_cases(generated, seed=2027, cases=320)
    assert violations == []
    assert sum(codes.values()) == 320 and codes.get(0) and codes.get(2)  # both outcomes occur
