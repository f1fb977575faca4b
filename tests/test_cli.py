"""Command line behavior: artifacts, exit codes, determinism."""

import csv
import json
import math
from pathlib import Path

import numpy as np
import pytest

from klproj import (
    GaussianParams,
    ProjectionResult,
    component_kld,
    fit_auto,
    kld,
    orthonormalize_rows,
    spd_inv_sqrt,
    sym_eig,
)
from klproj import cli
from klproj.cli import main
from klproj.evaluate import MAX_RESOLUTION
from klproj.fileio import (
    dataset_from_csv,
    params_from_dict,
    params_to_dict,
    projection_from_dict,
    projection_to_dict,
    read_csv,
    read_json,
    write_json,
)
from klproj.gaussian import project_params
from klproj.projections import FRAME_WHITENED, _ClassPair, _ranked


def run(argv):
    return main([str(a) for a in argv])


def gen_direct(out_dir, seed=5, d=4, n=80, extra=()):
    code = run(["gen", "--d", d, "--n", n, "--seed", seed, "--out-dir", out_dir, *extra])
    assert code == 0
    return out_dir


@pytest.fixture()
def param_files(tmp_path):
    gen_direct(tmp_path / "g", seed=9)
    return [tmp_path / "g" / f"params_class{i}.json" for i in (1, 2)]


class TestGen:
    def test_direct_mode_artifacts(self, tmp_path):
        out = gen_direct(tmp_path / "g", seed=7, n=50, extra=["--n-test", "20"])
        for name in ("params_class1.json", "params_class2.json",
                     "dataset.csv", "dataset.config.json",
                     "test.csv", "test.config.json"):
            assert (out / name).exists()
        p1 = params_from_dict(read_json(out / "params_class1.json"))
        assert p1.dim == 4
        train = dataset_from_csv(out / "dataset.csv")
        assert train.samples.shape == (100, 4)
        np.testing.assert_array_equal(np.unique(train.labels), [1, 2])
        test = dataset_from_csv(out / "test.csv")
        assert test.samples.shape == (40, 4)

    def test_channel_mode_artifacts(self, tmp_path):
        out = tmp_path / "c"
        code = run(["gen", "--d", 12, "--t", 3, "--noise-var", 0.5,
                    "--seed", 11, "--out-dir", out])
        assert code == 0
        chan = read_json(out / "channel.json")
        assert chan["kind"] == "channel"
        h = np.array(chan["matrix"])
        assert h.shape == (12, 3)
        sig1 = params_from_dict(chan["signal_class1"])
        p1 = params_from_dict(read_json(out / "params_class1.json"))
        # observed mean is the channel image of the signal mean
        np.testing.assert_allclose(p1.mean, h @ sig1.mean, rtol=1e-12)
        assert p1.dim == 12

    def test_config_records_sub_seeds_but_not_out_dir(self, tmp_path):
        out = gen_direct(tmp_path / "g", seed=13)
        config = read_json(out / "params_class1.json")["config"]
        assert config["seed"] == 13
        assert "sub_seeds" in config
        assert "out_dir" not in config

    def test_multiclass_direct(self, tmp_path):
        out = tmp_path / "g"
        code = run(["gen", "--d", 3, "--classes", 3, "--n", 10,
                    "--seed", 17, "--out-dir", out])
        assert code == 0
        assert (out / "params_class3.json").exists()
        data = dataset_from_csv(out / "dataset.csv")
        assert data.samples.shape == (30, 3)
        np.testing.assert_array_equal(np.unique(data.labels), [1, 2, 3])

    def test_channel_mode_rejects_extra_classes(self, tmp_path):
        code = run(["gen", "--d", 8, "--t", 2, "--classes", 3,
                    "--seed", 1, "--out-dir", tmp_path])
        assert code == 2

    def test_missing_seed_is_usage_error(self, tmp_path, capsys):
        code = run(["gen", "--d", 4, "--out-dir", tmp_path])
        assert code == 2
        assert "--seed" in capsys.readouterr().err


class TestFit:
    def test_auto_fit_reports_regime_and_method(self, tmp_path, param_files):
        out = tmp_path / "proj.json"
        code = run(["fit", "--params", *param_files, "--r", 2, "--out", out])
        assert code == 0
        record = read_json(out)
        assert record["kind"] == "projection"
        assert record["method"] in ("alg1", "alg2")
        assert record["regime"]["recommendation"] in ("alg1", "alg2", "compare_both")
        p1 = params_from_dict(read_json(param_files[0]))
        p2 = params_from_dict(read_json(param_files[1]))
        expect = fit_auto(p1, p2, 2)
        assert record["method"] == expect.method
        assert record["achieved_kld"] == pytest.approx(expect.achieved_kld, rel=1e-12)
        assert record["full_kld"] == pytest.approx(kld(p1, p2), rel=1e-12)

    def test_refine_never_loses_ground(self, tmp_path, param_files):
        out = tmp_path / "refined.json"
        code = run(["fit", "--params", *param_files, "--r", 1, "--method", "alg2",
                    "--refine", "--max-iters", 300, "--out", out])
        assert code == 0
        record = read_json(out)
        assert record["method"] == "alg2_refined"
        ref = record["refinement"]
        assert ref["refined_kld"] >= ref["initial_kld"]
        assert record["achieved_kld"] == pytest.approx(ref["refined_kld"], rel=1e-12)

    def test_refine_plateau_at_start_keeps_start(self, tmp_path, monkeypatch):
        # r = t captures the whole channel divergence, so the ascent plateaus
        # at its start; the re-evaluated rows are made to land one ulp below
        # the closed-form value, and the artifact must keep the start rather
        # than report a refinement that lost ground
        out = tmp_path / "c"
        assert run(["gen", "--d", 6, "--t", 2, "--seed", 2, "--out-dir", out]) == 0
        params = [out / "params_class1.json", out / "params_class2.json"]
        start, refined = tmp_path / "start.json", tmp_path / "refined.json"
        assert run(["fit", "--params", *params, "--r", 2, "--out", start]) == 0
        start_record = read_json(start)
        below = np.nextafter(start_record["achieved_kld"], -np.inf)
        monkeypatch.setattr(cli, "kld_projected", lambda a, p1, p2: below)
        assert run(["fit", "--params", *params, "--r", 2, "--refine", "--out", refined]) == 0
        record = read_json(refined)
        ref = record["refinement"]
        assert ref["reason"] == "plateau"
        assert ref["refined_kld"] == ref["initial_kld"] == start_record["achieved_kld"]
        assert record["achieved_kld"] == start_record["achieved_kld"]
        start_rows = projection_from_dict(start_record).in_original_frame()
        assert record["matrix"] == start_rows.tolist()

    def test_swap_reverses_class_roles(self, tmp_path, param_files):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run(["fit", "--params", *param_files, "--r", 1, "--method", "alg1", "--out", a])
        run(["fit", "--params", *reversed(param_files), "--r", 1, "--method", "alg1",
             "--out", b])
        swapped = tmp_path / "swapped.json"
        run(["fit", "--params", *param_files, "--swap", "--r", 1, "--method", "alg1",
             "--out", swapped])
        assert read_json(swapped)["achieved_kld"] == read_json(b)["achieved_kld"]
        assert read_json(swapped)["achieved_kld"] != read_json(a)["achieved_kld"]

    def test_mclda_reports_preservation_matrix(self, tmp_path):
        # three classes sharing one covariance: every ratio must be ~1
        sigma = np.array([[2.0, 0.3, 0.0], [0.3, 1.0, 0.1], [0.0, 0.1, 0.5]])
        files = []
        for i, mean in enumerate(([0.0, 0.0, 0.0], [2.0, 1.0, 0.0], [0.0, 2.0, 1.0])):
            p = GaussianParams(np.array(mean), sigma)
            path = tmp_path / f"c{i}.json"
            write_json(path, params_to_dict(p))
            files.append(path)
        out = tmp_path / "mclda.json"
        code = run(["fit", "--params", *files, "--method", "mclda", "--out", out])
        assert code == 0
        record = read_json(out)
        ratios = np.array(record["pairwise_preservation"])
        assert ratios.shape == (3, 3)
        np.testing.assert_allclose(ratios, 1.0, rtol=1e-8)
        assert record["r"] == 2

    def test_mclda_refine_rejected(self, tmp_path, param_files):
        code = run(["fit", "--params", *param_files, "--method", "mclda",
                    "--refine", "--out", tmp_path / "x.json"])
        assert code == 2

    def test_lda_needs_rank_one(self, tmp_path, param_files, capsys):
        code = run(["fit", "--params", *param_files, "--r", 2, "--method", "lda",
                    "--out", tmp_path / "x.json"])
        assert code == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "InvalidArguments"

    def test_single_params_file_rejected(self, tmp_path, param_files, capsys):
        code = run(["fit", "--params", param_files[0], "--r", 1,
                    "--out", tmp_path / "x.json"])
        assert code == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert "2 classes" in err["message"]

    def test_non_positive_definite_params_fail_numerically(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        write_json(bad, {"kind": "gaussian_params", "dim": 2, "mean": [0.0, 0.0],
                         "covariance": [[1.0, 0.0], [0.0, -1.0]]})
        good = tmp_path / "good.json"
        write_json(good, {"kind": "gaussian_params", "dim": 2, "mean": [1.0, 0.0],
                          "covariance": [[1.0, 0.0], [0.0, 1.0]]})
        code = run(["fit", "--params", bad, good, "--r", 1, "--out", tmp_path / "x.json"])
        assert code == 3
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "NotPositiveDefinite"

    def test_missing_file_is_io_error(self, tmp_path):
        code = run(["fit", "--params", tmp_path / "absent1.json",
                    tmp_path / "absent2.json", "--r", 1, "--out", tmp_path / "x.json"])
        assert code == 4

    def test_dataset_route_estimates_classes(self, tmp_path):
        out = gen_direct(tmp_path / "g", seed=23, n=200)
        proj = tmp_path / "proj.json"
        code = run(["fit", "--dataset", out / "dataset.csv", "--r", 1,
                    "--method", "lol", "--out", proj])
        assert code == 0
        assert read_json(proj)["method"] == "lol"


class TestMalformedInput:
    """Malformed files exit 2 with one JSON error line, never a traceback."""

    def assert_input_error(self, code, capsys, mentions=""):
        assert code == 2
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])
        assert err["error"] == "DimensionMismatch"
        assert mentions in err["message"]

    @pytest.mark.parametrize("body", [
        "f0,f1,label\n1.0,oops,1\n2.0,3.0,2\n",
        "f0,f1,label\n1.0,2.0,1\n2.0,2\n",
        "f0,label\n1.0,2.0,1\n2.0,3.0,2\n",
        "f0,f1,label\n",
        "f0,f1,label\n#1.0,2.0,1\n2.0,3.0,2\n",
    ], ids=["non-numeric-cell", "ragged-row", "header-width", "header-only", "hash-row"])
    def test_malformed_dataset_csv(self, tmp_path, capsys, body):
        bad = tmp_path / "bad.csv"
        bad.write_text(body)
        code = run(["fit", "--dataset", bad, "--r", 1, "--out", tmp_path / "x.json"])
        self.assert_input_error(code, capsys, mentions=str(bad))

    def test_json_array_instead_of_record(self, tmp_path, capsys):
        bad = tmp_path / "a.json"
        bad.write_text("[1, 2]\n")
        code = run(["fit", "--params", bad, bad, "--r", 1, "--out", tmp_path / "x.json"])
        self.assert_input_error(code, capsys, mentions="list")

    @pytest.mark.parametrize("field, value", [("matrix_original", None), ("frame", "sideways")])
    def test_projection_with_bad_frame(self, tmp_path, capsys, field, value):
        out = gen_direct(tmp_path / "g", seed=9)
        params = [out / "params_class1.json", out / "params_class2.json"]
        proj = tmp_path / "proj.json"
        assert run(["fit", "--params", *params, "--r", 2, "--method", "alg2",
                    "--out", proj]) == 0
        record = read_json(proj)
        if value is None:
            del record[field]
        else:
            record[field] = value
        write_json(proj, record)
        code = run(["eval", "--projection", proj, "--dataset", out / "dataset.csv",
                    "--scatter", "--out-dir", tmp_path / "ev"])
        self.assert_input_error(code, capsys, mentions=field)

    def test_resolution_above_bound(self, tmp_path, param_files, capsys):
        proj = tmp_path / "proj.json"
        assert run(["fit", "--params", *param_files, "--r", 2, "--out", proj]) == 0
        code = run(["eval", "--projection", proj, "--params", *param_files, "--density-grid",
                    "--resolution", MAX_RESOLUTION + 1, "--out-dir", tmp_path / "ev"])
        self.assert_input_error(code, capsys, mentions=str(MAX_RESOLUTION))

    def test_empty_dataset_csv(self, tmp_path, capsys):
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        code = run(["fit", "--dataset", empty, "--r", 1, "--out", tmp_path / "x.json"])
        self.assert_input_error(code, capsys)

    def test_params_without_mean(self, tmp_path, param_files, capsys):
        record = read_json(param_files[0])
        del record["mean"]
        bad = tmp_path / "bad.json"
        write_json(bad, record)
        code = run(["fit", "--params", bad, param_files[1], "--r", 1,
                    "--out", tmp_path / "x.json"])
        self.assert_input_error(code, capsys)

    def test_projection_without_matrix(self, tmp_path, param_files, capsys):
        proj = tmp_path / "proj.json"
        assert run(["fit", "--params", *param_files, "--r", 1, "--out", proj]) == 0
        record = read_json(proj)
        del record["matrix"]
        write_json(proj, record)
        code = run(["eval", "--projection", proj, "--params", *param_files,
                    "--sweep-r", "1..2", "--out-dir", tmp_path / "ev"])
        self.assert_input_error(code, capsys)

    @pytest.mark.parametrize("field, mutate", [
        ("matrix", lambda rec: 5),
        ("matrix", lambda rec: [rec["matrix"][0], rec["matrix"][1][:-1]]),
        ("matrix", lambda rec: [["a"] * len(row) for row in rec["matrix"]]),
        ("matrix_original", lambda rec: [row + [0.0] for row in rec["matrix_original"]]),
        ("r", lambda rec: 3),
        ("dim", lambda rec: rec["dim"] + 1),
        ("component_scores", lambda rec: 5),
        ("component_scores", lambda rec: ["high", "low"]),
    ], ids=["matrix-scalar", "matrix-ragged", "matrix-strings", "original-too-wide",
            "r-disagrees", "dim-disagrees", "scores-scalar", "scores-strings"])
    def test_projection_with_bad_shape_or_type(self, tmp_path, param_files, capsys, field,
                                               mutate):
        proj = tmp_path / "proj.json"
        assert run(["fit", "--params", *param_files, "--r", 2, "--method", "alg2",
                    "--out", proj]) == 0
        record = read_json(proj)
        record[field] = mutate(record)
        write_json(proj, record)
        code = run(["eval", "--projection", proj, "--params", *param_files,
                    "--density-grid", "--resolution", 11, "--out-dir", tmp_path / "ev"])
        self.assert_input_error(code, capsys, mentions=field)


class TestWhitenedView:
    """The density grid of a whitened-frame record is derived from matrix_original."""

    @staticmethod
    def axes(a, p1, p2):
        # what eval --density-grid plots for a whitened-frame record
        return _ClassPair(project_params(a, p1), project_params(a, p2)).whitened_axes()

    def old_style_record(self, p1, p2, r=2):
        # alg2 as written before the Cholesky whitener: rows in the S1^-1/2 frame
        s = spd_inv_sqrt(p1.covariance)
        eig = sym_eig(s @ p2.covariance @ s)
        lam = eig.eigenvalues
        scores = component_kld(eig.eigenvectors.T @ s @ (p2.mean - p1.mean), lam)
        sel = _ranked(scores, lam)[:r]
        rows = eig.eigenvectors[:, sel].T
        record = ProjectionResult(
            matrix=rows, frame=FRAME_WHITENED, method="alg2",
            achieved_kld=float(np.sum(scores[sel])),
            component_scores=tuple(float(v) for v in scores[sel]),
            matrix_original=orthonormalize_rows(rows @ s),
        )
        return record, lam[sel]

    def test_old_whitener_frame_gives_the_same_pair(self, tmp_path, param_files):
        p1, p2 = (params_from_dict(read_json(f)) for f in param_files)
        record, lam = self.old_style_record(p1, p2)
        q1, q2 = self.axes(record.matrix_original, p1, p2)
        assert np.array_equal(q1.mean, np.zeros(2))
        assert np.array_equal(q1.covariance, np.eye(2))
        assert np.array_equal(q2.covariance, np.diag(np.diag(q2.covariance)))
        np.testing.assert_allclose(np.diag(q2.covariance), lam, rtol=1e-10)

        proj = tmp_path / "old.json"
        write_json(proj, projection_to_dict(record))
        ev = tmp_path / "ev"
        assert run(["eval", "--projection", proj, "--params", *param_files,
                    "--density-grid", "--resolution", 31, "--out-dir", ev]) == 0
        peaks = read_json(ev / "density_grid.config.json")["config"]["peaks"]
        assert peaks[0] == pytest.approx(1.0 / (2.0 * math.pi), rel=1e-12)
        assert peaks[1] == pytest.approx(1.0 / (2.0 * math.pi * math.sqrt(np.prod(lam))),
                                         rel=1e-10)

    def test_axes_follow_alg2_scores(self, tmp_path, param_files):
        p1, p2 = (params_from_dict(read_json(f)) for f in param_files)
        proj = tmp_path / "alg2.json"
        assert run(["fit", "--params", *param_files, "--r", 2, "--method", "alg2",
                    "--out", proj]) == 0
        fit = projection_from_dict(read_json(proj))
        _, q2 = self.axes(fit.matrix_original, p1, p2)
        scores = component_kld(q2.mean, np.diag(q2.covariance))
        np.testing.assert_allclose(scores, fit.component_scores, rtol=1e-10)


class TestEval:
    def test_sweep_rows_respect_bounds(self, tmp_path, param_files):
        proj = tmp_path / "proj.json"
        run(["fit", "--params", *param_files, "--r", 2, "--out", proj])
        out = tmp_path / "ev"
        code = run(["eval", "--projection", proj, "--params", *param_files,
                    "--sweep-r", "1..4", "--out-dir", out])
        assert code == 0
        with open(out / "sweep.csv", newline="") as handle:
            header, *rows = csv.reader(handle)
        assert header == ["method", "r", "kld"]
        full = read_json(out / "sweep.config.json")["config"]["full_kld"]
        methods = {row[0] for row in rows}
        assert methods == {"alg1", "alg2", "lol"}
        for _, _, value in rows:
            assert float(value) <= full + 1e-8

    def test_classification_includes_full_baseline(self, tmp_path):
        out = gen_direct(tmp_path / "g", seed=31, d=4, n=400, extra=["--n-test", "150"])
        proj = tmp_path / "proj.json"
        run(["fit", "--dataset", out / "dataset.csv", "--r", 1, "--out", proj])
        ev = tmp_path / "ev"
        code = run(["eval", "--projection", proj, "--dataset", out / "dataset.csv",
                    "--classify", "--train", out / "dataset.csv",
                    "--test", out / "test.csv", "--out-dir", ev])
        assert code == 0
        record = read_json(ev / "classification.json")
        results = record["results"]
        assert results[0]["method"] == "full"
        assert results[0]["r"] == 4
        assert len(results) == 2
        for row in results:
            assert 0.0 <= row["accuracy"] <= 1.0

    def test_density_grid_whitened_class1_is_standard_normal(self, tmp_path, param_files):
        proj = tmp_path / "proj.json"
        run(["fit", "--params", *param_files, "--r", 2, "--method", "alg2",
             "--out", proj])
        ev = tmp_path / "ev"
        code = run(["eval", "--projection", proj, "--params", *param_files,
                    "--density-grid", "--resolution", 61, "--out-dir", ev])
        assert code == 0
        header, table = read_csv(ev / "density_grid.csv")
        assert header == ["x", "y", "class", "density"]
        assert table.shape == (2 * 61 * 61, 4)
        # class 1 in the whitened frame is N(0, I): the tabulated values must
        # be exactly that density at their grid points, peaking near origin
        c1 = table[table[:, 2] == 1]
        x0, y0, _, peak = c1[np.argmax(c1[:, 3])]
        expect = math.exp(-(x0**2 + y0**2) / 2.0) / (2.0 * math.pi)
        assert peak == pytest.approx(expect, rel=1e-9)
        assert abs(x0) < 0.5 and abs(y0) < 0.5

    def test_scatter_projects_every_sample(self, tmp_path):
        out = gen_direct(tmp_path / "g", seed=37, d=5, n=60)
        proj = tmp_path / "proj.json"
        run(["fit", "--dataset", out / "dataset.csv", "--r", 2, "--out", proj])
        ev = tmp_path / "ev"
        code = run(["eval", "--projection", proj, "--dataset", out / "dataset.csv",
                    "--scatter", "--out-dir", ev])
        assert code == 0
        header, table = read_csv(ev / "scatter.csv")
        assert header == ["x", "y", "class"]
        assert table.shape == (120, 3)
        np.testing.assert_array_equal(np.unique(table[:, 2]), [1, 2])

    def test_density_grid_needs_planar_projection(self, tmp_path, param_files):
        proj = tmp_path / "proj.json"
        run(["fit", "--params", *param_files, "--r", 1, "--out", proj])
        code = run(["eval", "--projection", proj, "--params", *param_files,
                    "--density-grid", "--out-dir", tmp_path / "ev"])
        assert code == 2


class TestRegime:
    def test_stdout_json(self, tmp_path, param_files, capsys):
        code = run(["regime", "--params", *param_files, "--r", 2])
        assert code == 0
        record = json.loads(capsys.readouterr().out)
        assert record["kind"] == "regime"
        assert record["recommendation"] in ("alg1", "alg2", "compare_both")
        assert record["d_mu"] >= 0.0 and record["d_sigma"] >= 0.0

    def test_out_file(self, tmp_path, param_files):
        out = tmp_path / "regime.json"
        code = run(["regime", "--params", *param_files, "--r", 1, "--out", out])
        assert code == 0
        assert read_json(out)["recommendation"] == "compare_both"

    def test_r1_threshold_serializes_as_infinity(self, tmp_path, param_files):
        out = tmp_path / "regime.json"
        run(["regime", "--params", *param_files, "--r", 1, "--out", out])
        assert "Infinity" in out.read_text()
        assert read_json(out)["threshold"] == float("inf")


class TestDeterminism:
    def test_rerun_reproduces_artifacts_byte_for_byte(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        pipeline = [
            ["gen", "--d", "4", "--n", "120", "--n-test", "40", "--seed", "41",
             "--out-dir", "work"],
            ["fit", "--params", "work/params_class1.json", "work/params_class2.json",
             "--r", "2", "--refine", "--max-iters", "150", "--out", "work/proj.json"],
            ["eval", "--projection", "work/proj.json",
             "--params", "work/params_class1.json", "work/params_class2.json",
             "--sweep-r", "1..4", "--out-dir", "work"],
        ]
        for argv in pipeline:
            assert run(argv) == 0
        snapshot = {
            p: p.read_bytes() for p in sorted(Path("work").rglob("*")) if p.is_file()
        }
        assert len(snapshot) >= 8
        for argv in pipeline:
            assert run(argv) == 0
        for path, payload in snapshot.items():
            assert path.read_bytes() == payload, f"{path} changed on rerun"


class TestTopLevel:
    def test_version_flag(self, capsys):
        assert run(["--version"]) == 0
        assert "klproj" in capsys.readouterr().out

    def test_no_command_is_usage_error(self):
        assert run([]) == 2

    def test_check_runs_verification_suite(self, capsys):
        assert run(["check"]) == 0
        out = capsys.readouterr().out
        lines = [ln for ln in out.splitlines() if ln.startswith(("PASS", "FAIL"))]
        assert len(lines) == 11
        assert all(ln.startswith("PASS") for ln in lines)
        assert "11/11 checks passed" in out
