"""Each benchmark check passes klproj's real output and rejects a corrupted copy.

Run from the repository root:

    python3 -m pytest -q perfbench/test_checks.py
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import klproj  # noqa: E402
from klproj import cli  # noqa: E402

import verify  # noqa: E402
import workloads  # noqa: E402

D, T = 12, 3


@pytest.fixture(scope="module")
def pair():
    return workloads.channel_pair(D, T, 0.5, workloads.sub_seeds(7, 3))


@pytest.fixture(scope="module")
def raw(pair):
    return workloads.raw(pair)


def test_fit_check(pair, raw):
    p1, p2 = pair
    full_ref = verify.gaussian_kl(*raw)
    for r in (1, 2, T):
        result = klproj.fit_auto(p1, p2, r)
        rows, full = result.in_original_frame(), klproj.kld(p1, p2)
        assert verify.check_fit("fit", rows, result.achieved_kld, full, raw, full_ref, r >= T) == []
        bent = rows.copy()
        bent[0] += 1e-3 * np.arange(D)
        assert verify.check_fit("fit", bent, result.achieved_kld, full, raw, full_ref)
        tilted = np.linalg.qr(bent.T)[0].T
        assert verify.check_fit("fit", tilted, result.achieved_kld, full, raw, full_ref)
        assert verify.check_fit("fit", rows, result.achieved_kld * (1 + 1e-6), full, raw, full_ref)
        assert verify.check_fit("fit", rows, result.achieved_kld, full * 1.01, raw, full_ref)
    short = klproj.fit_auto(p1, p2, 1)
    assert verify.check_fit("fit", short.in_original_frame(), short.achieved_kld,
                            klproj.kld(p1, p2), raw, full_ref, require_full=True)


def test_ascent_check(pair, raw):
    p1, p2 = pair
    full_ref = verify.gaussian_kl(*raw)
    trace = klproj.gradient_ascent(klproj.random_initial_matrix(2, D, 3), p1, p2,
                                   klproj.AscentOptions(max_iters=60))
    objectives = [f for _, f in trace.iterates]
    assert verify.check_ascent("ascent", objectives, trace.final_matrix, raw, full_ref) == []
    moved = trace.final_matrix + 1e-3 * np.ones_like(trace.final_matrix)
    assert verify.check_ascent("ascent", objectives, moved, raw, full_ref)
    lost = [max(objectives) + 1.0] + objectives[1:]
    assert verify.check_ascent("ascent", lost, trace.final_matrix, raw, full_ref)
    assert verify.check_ascent("ascent", objectives, trace.final_matrix, raw, max(objectives) * 0.9)


def test_sample_mean_check(pair):
    p1, p2 = pair
    x = np.vstack([klproj.sample(p1, 4000, 1), klproj.sample(p2, 4000, 2)])
    y = np.repeat([1, 2], 4000)
    params = [(p.mean, p.covariance) for p in pair]
    assert verify.check_sample_means(x, y, params) == []
    shifted = x.copy()
    shifted[y == 1, 0] += 6.0 * np.sqrt(p1.covariance[0, 0] / 4000)
    assert verify.check_sample_means(shifted, y, params)


def test_sweep_check(pair, raw):
    p1, p2 = pair
    table = klproj.sweep_r(p1, p2, ["alg1", "alg2", "lol"], range(1, D + 1))
    full_ref = verify.gaussian_kl(*raw)
    assert verify.check_sweep(table.rows, table.full_kld, full_ref, T) == []
    above = table.rows + [("alg1", D + 1, full_ref * 1.001)]
    assert verify.check_sweep(above, table.full_kld, full_ref, T)
    dropped = [(m, r, v * 0.5 if (m, r) == ("lol", 3) else v) for m, r, v in table.rows]
    assert verify.check_sweep(dropped, table.full_kld, full_ref, T)
    no_lol = [row for row in table.rows if row[0] != "lol"]
    assert verify.check_sweep(no_lol, table.full_kld, full_ref, T)
    assert verify.check_sweep(table.rows, table.full_kld * 1.01, full_ref, T)


def test_accuracy_check(pair):
    p1, p2 = pair
    train = klproj.LabeledDataset(np.vstack([klproj.sample(p1, 300, 3), klproj.sample(p2, 300, 4)]),
                                  np.repeat([1, 2], 300))
    test = klproj.LabeledDataset(np.vstack([klproj.sample(p1, 200, 5), klproj.sample(p2, 200, 6)]),
                                 np.repeat([1, 2], 200))
    a = klproj.fit_auto(p1, p2, 2).in_original_frame()
    reported = klproj.plugin_classifier_train(train, a).score(test)
    independent = verify.qda_accuracy(train.samples, train.labels, test.samples, test.labels, a)
    assert verify.check_accuracy("qda", reported, independent, 400) == []
    assert verify.check_accuracy("qda", reported - 2.0 / 400, independent, 400)


def test_grid_mass_check(pair):
    a = klproj.fit_auto(*pair, 2).in_original_frame()
    grid = klproj.density_grid(a, *pair, resolution=120)
    rows = np.array([(x, y, label, values[i, j])
                     for label, values in ((1, grid.values_class1), (2, grid.values_class2))
                     for i, x in enumerate(grid.x_axis) for j, y in enumerate(grid.y_axis)])
    assert verify.check_grid_mass(rows) == []
    heavy = rows.copy()
    heavy[heavy[:, 2] == 2, 3] *= 1.01
    assert verify.check_grid_mass(heavy)
    assert verify.check_grid_mass(rows[1:])


def test_identical_check():
    assert verify.check_identical({"a": "1", "b": "2"}, {"a": "1", "b": "2"}) == []
    assert verify.check_identical({"a": "1", "b": "2"}, {"a": "1", "b": "3"})
    assert verify.check_identical({"a": "1", "b": "2"}, {"a": "1"})


def test_cli_artifact_check(tmp_path):
    """A miniature CLI pass checks clean, then fails once an artifact is corrupted."""
    bench = workloads.Cli()
    bench.t = 4
    for _, argv in bench.commands(tmp_path, 5, 24, bench.t, 300, 200):
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(argv) == 0
    assert bench.check_artifacts(tmp_path) == []
    before = workloads.tree_digests(tmp_path)

    sweep = tmp_path / "sweep" / "sweep.csv"
    clean = sweep.read_text()
    sweep.write_text(clean + "lol,5,1e6\n")
    assert any("exceeds full divergence" in p for p in bench.check_artifacts(tmp_path))
    assert verify.check_identical(before, workloads.tree_digests(tmp_path))
    sweep.write_text(clean)

    record_path = tmp_path / "fit_refine.json"
    record = json.loads(record_path.read_text())
    record["refinement"]["refined_kld"] = record["refinement"]["initial_kld"] - 1.0
    record_path.write_text(json.dumps(record))
    assert any("refined_kld" in p for p in bench.check_artifacts(tmp_path))
