"""Command line behavior: artifacts, exit codes, determinism."""

import csv
import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

import scipy.linalg

from klproj import (
    GaussianParams,
    LabeledDataset,
    ProjectionResult,
    SpdSpec,
    component_kld,
    estimate_params,
    fit_auto,
    kld,
    kld_projected,
    kld_split,
    lda_direction,
    lol_projection,
    mean_first_projection,
    orthonormalize_rows,
    random_class_params,
    random_spd,
    spd_inv_sqrt,
    sym_eig,
    whitened_component_projection,
)
from klproj import gaussian, linalg, refine
from klproj.cli import main
from klproj.evaluate import MAX_RESOLUTION
from klproj.fileio import (
    dataset_from_csv,
    dataset_to_csv,
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


@pytest.fixture(scope="module")
def unbalanced_dataset(tmp_path_factory):
    """gen --d 6 --n 300 --seed 5 cut to class 1's first 60 rows and all 300 of class 2:
    (S1 + S2) / 2 and the dataset's pooled covariance differ here."""
    root = tmp_path_factory.mktemp("unbalanced")
    data = dataset_from_csv(gen_direct(root / "g", d=6, n=300) / "dataset.csv")
    keep = (data.labels == 2) | (np.cumsum(data.labels == 1) <= 60)
    dataset_to_csv(root / "cut.csv", LabeledDataset(data.samples[keep], data.labels[keep]))
    return root / "cut.csv"


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

    def test_rank_deficient_channel_exits_3_and_writes_nothing(self, tmp_path, capsys,
                                                                monkeypatch):
        monkeypatch.setattr(linalg, "numerical_rank", lambda a: np.shape(a)[1] - 1)
        code = run(["gen", "--d", 6, "--t", 2, "--seed", 1, "--out-dir", tmp_path / "g"])
        assert code == 3
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"] == "ChannelRankFailure"
        assert not (tmp_path / "g").exists()

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
        # r = t captures the whole channel divergence, so the ascent converges
        # at its start; the ascent's value there is made to land one ulp below
        # the closed-form value, and the artifact must keep the start rather
        # than report a refinement that lost ground
        out = tmp_path / "c"
        assert run(["gen", "--d", 6, "--t", 2, "--seed", 2, "--out-dir", out]) == 0
        params = [out / "params_class1.json", out / "params_class2.json"]
        start, refined = tmp_path / "start.json", tmp_path / "refined.json"
        assert run(["fit", "--params", *params, "--r", 2, "--out", start]) == 0
        start_record = read_json(start)
        below = np.nextafter(start_record["achieved_kld"], -np.inf)
        frame_point = refine._frame_point
        monkeypatch.setattr(refine, "_frame_point", lambda *args: (below, *frame_point(*args)[1:]))
        assert run(["fit", "--params", *params, "--r", 2, "--refine", "--out", refined]) == 0
        record = read_json(refined)
        ref = record["refinement"]
        assert ref["reason"] == "converged"
        assert ref["refined_kld"] == ref["initial_kld"] == start_record["achieved_kld"]
        assert record["achieved_kld"] == start_record["achieved_kld"]
        start_rows = projection_from_dict(start_record).in_original_frame()
        assert record["matrix"] == start_rows.tolist()

    def test_ill_conditioned_values_stay_within_full(self, tmp_path):
        # seed 32 of the sweep's ill-conditioned grid, cond(S1) 5.4e8: lol's r = d
        # rows and a refined fit are valued in the pair's eigenframe; read in the
        # original frame, both were 7.05e-5 above the full divergence
        rng = np.random.default_rng(1032)
        s1 = random_spd(SpdSpec(20, 1.0, 10 ** rng.uniform(6, 9.5), 65))
        s2 = random_spd(SpdSpec(20, 0.5, 4.0, 66))
        files = [tmp_path / "a.json", tmp_path / "b.json"]
        for path, cov in zip(files, (s1, s2)):
            write_json(path, params_to_dict(GaussianParams(rng.standard_normal(20), cov)))
        out = tmp_path / "fit.json"
        for argv in (["--method", "lol", "--r", 20], ["--method", "alg1", "--r", 19, "--refine"]):
            assert run(["fit", "--params", *files, *argv, "--out", out]) == 0
            record = read_json(out)
            assert record["achieved_kld"] <= record["full_kld"] * (1.0 + 1e-12), argv

    def test_ill_conditioned_lda_stays_within_full(self, tmp_path):
        # seed 17 of the sweep's equal-covariance grid, S2 = S1: lda's value is read
        # in the pair's eigenframe; read in the original frame it was 5.3e-8 relative
        # above the full divergence, and the sweep refused the pair (exit 3)
        rng = np.random.default_rng(1017)
        s1 = random_spd(SpdSpec(20, 1.0, 10 ** rng.uniform(8, 9.9), 35))
        files = [tmp_path / "a.json", tmp_path / "b.json"]
        for path in files:
            write_json(path, params_to_dict(GaussianParams(rng.standard_normal(20), s1)))
        out = tmp_path / "lda.json"
        assert run(["fit", "--params", *files, "--method", "lda", "--r", 1, "--out", out]) == 0
        record = read_json(out)
        assert record["achieved_kld"] <= record["full_kld"] * (1.0 + 1e-12)
        assert run(["eval", "--projection", out, "--params", *files, "--sweep-r", "1..1",
                    "--methods", "lda", "--out-dir", tmp_path / "sweep"]) == 0

    def test_refine_reaches_the_optimum_on_gen_defaults(self, tmp_path):
        # a scratch L-BFGS run in the pair's eigenframe tops out at 323.5869; the
        # parent's Adam ascent stayed at the alg1 start, 323.3840, as "converged"
        params = [gen_direct(tmp_path / "g", seed=0, d=100, n=0) / f"params_class{i}.json"
                  for i in (1, 2)]
        out = tmp_path / "refined.json"
        assert run(["fit", "--params", *params, "--r", 10, "--refine", "--out", out]) == 0
        ref = read_json(out)["refinement"]
        assert ref["refined_kld"] >= 323.586912
        assert ref["converged"] and ref["reason"] == "converged"

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

    def test_failed_write_names_the_destination(self, tmp_path, param_files, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        lines = []
        for _ in range(2):
            assert run(["fit", "--params", *param_files, "--r", 1, "--out", "nodir/z.json"]) == 4
            lines.append(capsys.readouterr().err)
        assert lines[0] == lines[1]
        err = json.loads(lines[0])
        assert err["error"] == "IOError"
        assert err["message"].endswith("'nodir/z.json'")

    def test_dataset_route_estimates_classes(self, tmp_path):
        out = gen_direct(tmp_path / "g", seed=23, n=200)
        proj = tmp_path / "proj.json"
        code = run(["fit", "--dataset", out / "dataset.csv", "--r", 1,
                    "--method", "lol", "--out", proj])
        assert code == 0
        assert read_json(proj)["method"] == "lol"

    @pytest.mark.parametrize("method, r", [
        ("alg1", 1), ("alg1", 2), ("alg2", 1), ("alg2", 2), ("lda", 1), ("lol", 1), ("lol", 2),
    ])
    def test_every_fit_agrees_across_entry_points(self, tmp_path, unbalanced_dataset, method, r):
        proj, ev = tmp_path / "proj.json", tmp_path / "ev"
        assert run(["fit", "--dataset", unbalanced_dataset, "--r", r, "--method", method,
                    "--out", proj]) == 0
        assert run(["eval", "--projection", proj, "--dataset", unbalanced_dataset,
                    "--sweep-r", f"{r}..{r}", "--methods", method, "--out-dir", ev]) == 0
        with open(ev / "sweep.csv", newline="") as handle:
            (row,) = csv.DictReader(handle)
        data = dataset_from_csv(unbalanced_dataset)
        p1, p2 = estimate_params(data, 1), estimate_params(data, 2)
        public = {"alg1": mean_first_projection, "alg2": whitened_component_projection,
                  "lda": lambda a, b, _: lda_direction(a, b), "lol": lol_projection}[method]
        fitted = read_json(proj)["achieved_kld"]
        assert fitted == float(row["kld"]) == public(p1, p2, r).achieved_kld

    def test_method_follows_the_recorded_regime_at_the_boundary(self, tmp_path):
        # mean scale 8 ulps below the r=2 boundary d_mu = d_sigma: a split read
        # off other factors lands on the other side of the rule
        s1, s2 = random_spd(SpdSpec(12, 0.2, 5.0, 1000)), random_spd(SpdSpec(12, 0.2, 5.0, 2000))
        off = np.random.default_rng(0).standard_normal(12)
        p1 = GaussianParams(np.zeros(12), s1)
        b = kld_split(p1, GaussianParams(off, s2))
        p2 = GaussianParams(math.sqrt(b.d_sigma / b.d_mu) * (1 - 8 * 2.2e-16) * off, s2)
        files = [tmp_path / "a.json", tmp_path / "b.json"]
        for path, p in zip(files, (p1, p2)):
            write_json(path, params_to_dict(p))
        assert run(["fit", "--params", *files, "--r", 2, "--out", tmp_path / "proj.json"]) == 0
        record = read_json(tmp_path / "proj.json")
        assert record["method"] == record["regime"]["recommendation"]

    def test_fit_factors_the_pair_once(self, tmp_path, monkeypatch):
        files = [tmp_path / "a.json", tmp_path / "b.json"]
        for path, seed in zip(files, (41, 42)):
            write_json(path, params_to_dict(random_class_params(40, 0.2, 5.0, 1.0, seed)))
        sytrds, splits = [], []
        sytrd, split = scipy.linalg.lapack.dsytrd, gaussian.kld_split

        def counted_sytrd(a, *args, **kwargs):
            sytrds.append(np.shape(a))
            return sytrd(a, *args, **kwargs)

        def counted_split(p1, p2):
            splits.append(p1.dim)
            return split(p1, p2)

        monkeypatch.setattr(scipy.linalg.lapack, "dsytrd", counted_sytrd)
        # kld reads kld_split
        monkeypatch.setattr(gaussian, "kld_split", counted_split)
        assert run(["fit", "--params", *files, "--r", 2, "--out", tmp_path / "proj.json"]) == 0
        # the split and the regime are read off the fit's own pair
        assert sytrds.count((40, 40)) == 1
        assert 40 not in splits

    def test_small_whitened_spectrum_keeps_every_eigenvalue(self, tmp_path):
        # whitened eigenvalues 1e-12 .. 1e-11, 2.25e-12 apart: distinct relative to
        # lambda_i, though an absolute 1e-10 gap would merge all five into their mean
        p1 = GaussianParams(np.zeros(5), 1e3 * np.eye(5))
        p2 = GaussianParams(np.full(5, 1e-3), np.diag(np.linspace(1e-9, 1e-8, 5)))
        files = [tmp_path / "a.json", tmp_path / "b.json"]
        for path, p in zip(files, (p1, p2)):
            write_json(path, params_to_dict(p))
        records = {}
        for r in (5, 3):
            assert run(["fit", "--params", *files, "--method", "alg2", "--r", r,
                        "--out", tmp_path / f"r{r}.json"]) == 0
            records[r] = read_json(tmp_path / f"r{r}.json")
        full = kld(p1, p2)
        assert records[5]["achieved_kld"] == pytest.approx(full, rel=1e-12)
        assert records[5]["full_kld"] == pytest.approx(full, rel=1e-12)
        rows = projection_from_dict(records[3]).in_original_frame()
        assert records[3]["achieved_kld"] == pytest.approx(kld_projected(rows, p1, p2), rel=1e-9)

    def test_dataset_units_do_not_change_the_fit(self, tmp_path):
        # in 1e-6 units the class covariances' eigenvalues span 8e-13 .. 6e-11 (condition 67)
        out = tmp_path / "g"
        assert run(["gen", "--d", 10, "--t", 3, "--n", 500, "--seed", 0, "--out-dir", out]) == 0
        data = dataset_from_csv(out / "dataset.csv")
        dataset_to_csv(tmp_path / "micro.csv", LabeledDataset(data.samples * 1e-6, data.labels))
        kept = []
        for source in (out / "dataset.csv", tmp_path / "micro.csv"):
            assert run(["fit", "--dataset", source, "--method", "alg2", "--r", 2,
                        "--out", tmp_path / "x.json"]) == 0
            kept.append(read_json(tmp_path / "x.json")["achieved_kld"])
        assert kept[1] == pytest.approx(kept[0], rel=1e-10)

    @pytest.mark.parametrize("method", ["alg1", "alg2", "lda"])
    def test_nonpositive_whitened_spectrum_fails_numerically(self, tmp_path, capsys, method):
        # 12 samples per class in d=30: each ridge-1e-8 estimate passes validation, but the
        # pencil's smallest eigenvalue rounds below 0
        out = gen_direct(tmp_path / "g", seed=0, d=30, n=12)
        capsys.readouterr()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run(["fit", "--dataset", out / "dataset.csv", "--ridge", 1e-8, "--r", 1,
                        "--method", method, "--out", tmp_path / "x.json"])
        assert not caught
        assert code == 3
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "NotPositiveDefinite"
        assert "whitened class-2 covariance" in err["message"]
        assert not (tmp_path / "x.json").exists()


class TestMalformedInput:
    """Malformed files exit 2 with one JSON error line, never a traceback."""

    def assert_input_error(self, code, capsys, mentions="", error="DimensionMismatch"):
        assert code == 2
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])
        assert err["error"] == error
        assert mentions in err["message"]

    @pytest.mark.parametrize("body", [
        b"f0,f1,label\n1.0,oops,1\n2.0,3.0,2\n",
        b"f0,f1,label\n1.0,2.0,1\n2.0,2\n",
        b"f0,label\n1.0,2.0,1\n2.0,3.0,2\n",
        b"f0,f1,label\n",
        b"f0,f1,label\n#1.0,2.0,1\n2.0,3.0,2\n",
        b"\xff\xfe",
        b"f0,label\n\xff,1\n",
    ], ids=["non-numeric-cell", "ragged-row", "header-width", "header-only", "hash-row",
            "not-utf8-header", "not-utf8-row"])
    def test_malformed_dataset_csv(self, tmp_path, capsys, body):
        bad = tmp_path / "bad.csv"
        bad.write_bytes(body)
        code = run(["fit", "--dataset", bad, "--r", 1, "--out", tmp_path / "x.json"])
        self.assert_input_error(code, capsys, mentions=str(bad))

    @pytest.mark.parametrize("body", [b"", b'{"mean": [1.0, 2.', b"f0,label\n1.0,1\n", b"\xff\xfe"],
                             ids=["empty", "truncated", "csv", "not-utf8"])
    @pytest.mark.parametrize("command", ["fit", "eval"])
    def test_unparsable_json_names_its_file(self, tmp_path, param_files, capsys, command, body):
        bad, out = tmp_path / "bad.json", tmp_path / "out"
        bad.write_bytes(body)
        if command == "fit":
            argv = ["fit", "--params", bad, param_files[1], "--r", 1, "--out", out]
        else:
            argv = ["eval", "--projection", bad, "--params", *param_files, "--sweep-r", "1..1",
                    "--out-dir", out]
        self.assert_input_error(run(argv), capsys, mentions=str(bad))
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["fit", "--params", "five.json", "five.json", "--r", 1, "--out", "out"],
        ["fit", "--params", "g/params_class1.json", "five.json", "--r", 1, "--out", "out"],
        ["eval", "--projection", "five.json", "--params", "g/params_class1.json",
         "g/params_class2.json", "--sweep-r", "1..1", "--out-dir", "out"],
    ], ids=["fit-both", "fit-second", "eval"])
    def test_wrong_kind_of_record_names_its_file(self, tmp_path, param_files, capsys, argv):
        five = tmp_path / "five.json"
        five.write_text("5\n")
        argv = [tmp_path / a if str(a).endswith(".json") or a == "out" else a for a in argv]
        capsys.readouterr()
        assert run(argv) == 2
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])
        assert err["error"] == "DimensionMismatch"
        # the file is named once, and the good params file beside it not at all
        assert err["message"].startswith(f"{five}: expected a ")
        assert err["message"].count(str(tmp_path)) == 1
        assert not (tmp_path / "out").exists()

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

    @pytest.mark.parametrize("error, mutate", [
        ("NonFiniteInput", lambda m: [[math.nan, *m[0][1:]], m[1]]),
        ("RankDeficient", lambda m: [m[0], m[0]]),
        ("DimensionMismatch", lambda m: [row + [0.0] for row in m]),
    ], ids=["nan-cell", "equal-rows", "one-column-too-many"])
    def test_scatter_checks_the_rows(self, tmp_path, capsys, error, mutate):
        out = gen_direct(tmp_path / "g", d=5, n=20, extra=["--n-test", 10])
        proj = tmp_path / "proj.json"
        assert run(["fit", "--dataset", out / "dataset.csv", "--r", 2, "--method", "alg1",
                    "--out", proj]) == 0
        record = read_json(proj)
        record["matrix"] = mutate(record["matrix"])
        record["dim"] = len(record["matrix"][0])
        proj.write_text(json.dumps(record))  # json.dumps writes NaN as a bare token
        code = run(["eval", "--projection", proj, "--dataset", out / "dataset.csv",
                    "--test", out / "test.csv", "--scatter", "--out-dir", tmp_path / "ev"])
        self.assert_input_error(code, capsys, error=error)
        assert not (tmp_path / "ev").exists()

    def test_resolution_above_bound(self, tmp_path, param_files, capsys):
        proj = tmp_path / "proj.json"
        assert run(["fit", "--params", *param_files, "--r", 2, "--out", proj]) == 0
        code = run(["eval", "--projection", proj, "--params", *param_files, "--density-grid",
                    "--resolution", MAX_RESOLUTION + 1, "--out-dir", tmp_path / "ev"])
        self.assert_input_error(code, capsys, mentions=str(MAX_RESOLUTION))
        assert not (tmp_path / "ev").exists()

    def test_eval_refused_after_a_finished_sweep_writes_nothing(self, tmp_path, param_files,
                                                                 capsys):
        proj = tmp_path / "proj.json"
        assert run(["fit", "--params", *param_files, "--r", 2, "--out", proj]) == 0
        code = run(["eval", "--projection", proj, "--params", *param_files, "--sweep-r", "1..2",
                    "--classify", "--out-dir", tmp_path / "ev"])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "InvalidArguments" and "--train" in err["message"]
        assert not (tmp_path / "ev").exists()

    @pytest.mark.parametrize("max_iters", [0, -5])
    def test_refine_without_iterations(self, tmp_path, param_files, capsys, max_iters):
        out = tmp_path / "x.json"
        code = run(["fit", "--params", *param_files, "--r", 1, "--refine",
                    "--max-iters", max_iters, "--out", out])
        self.assert_input_error(code, capsys, mentions="max_iters", error="NonPositiveInput")
        assert not out.exists()

    @pytest.mark.parametrize("eig_min, eig_max", [
        (0.0, 10.0), (-1.0, 10.0), (5.0, 1.0), ("nan", 10.0), (0.1, "nan"), (0.1, "inf"),
    ], ids=["eig-min-zero", "eig-min-negative", "range-reversed", "eig-min-nan", "eig-max-nan",
            "eig-max-inf"])
    def test_gen_bad_eigenvalue_range(self, tmp_path, capsys, eig_min, eig_max):
        code = run(["gen", "--d", 3, "--seed", 1, "--eig-min", eig_min, "--eig-max", eig_max,
                    "--out-dir", tmp_path / "g"])
        self.assert_input_error(code, capsys, mentions="eig_", error="NonPositiveInput")
        assert not (tmp_path / "g").exists()

    @pytest.mark.parametrize("noise_var", ["nan", "inf"])
    def test_gen_non_finite_noise_var(self, tmp_path, capsys, noise_var):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run(["gen", "--d", 4, "--t", 2, "--noise-var", noise_var, "--seed", 1,
                        "--out-dir", tmp_path / "g"])
        assert not caught
        self.assert_input_error(code, capsys, mentions="noise_var", error="NonPositiveInput")
        assert not (tmp_path / "g").exists()

    def test_values_near_the_float_limit_warn_nothing(self, tmp_path, capsys):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run(["gen", "--d", 4, "--t", 2, "--noise-var", 1e308, "--seed", 1,
                        "--out-dir", tmp_path / "g"]) == 0
            out = gen_direct(tmp_path / "d", n=20)
            code = run(["fit", "--dataset", out / "dataset.csv", "--r", 2, "--ridge", 1e308,
                        "--out", tmp_path / "x.json"])
        assert not caught
        self.assert_input_error(code, capsys, error="NonFiniteInput")
        for name in ("channel.json", "params_class1.json", "params_class2.json"):
            assert "Infinity" not in (tmp_path / "g" / name).read_text()
        cov = np.array(read_json(tmp_path / "g" / "params_class1.json")["covariance"])
        assert np.all(np.isfinite(cov)) and np.all(np.diag(cov) >= 1e308)

    @pytest.mark.parametrize("ridge", ["nan", "inf"])
    def test_fit_non_finite_ridge(self, tmp_path, capsys, ridge):
        out = gen_direct(tmp_path / "g", n=20)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run(["fit", "--dataset", out / "dataset.csv", "--r", 2, "--ridge", ridge,
                        "--out", tmp_path / "x.json"])
        assert not caught
        self.assert_input_error(code, capsys, mentions="ridge", error="NonPositiveInput")
        assert not (tmp_path / "x.json").exists()

    def test_fit_ridge_overflow_names_the_ridge(self, tmp_path, capsys):
        out = gen_direct(tmp_path / "g", n=20)
        code = run(["fit", "--dataset", out / "dataset.csv", "--r", 2, "--ridge", 1e308,
                    "--out", tmp_path / "x.json"])
        self.assert_input_error(code, capsys, mentions="ridge 1e+308", error="NonFiniteInput")
        assert not (tmp_path / "x.json").exists()

    @pytest.mark.parametrize("cells", [1, 3], ids=["one-cell", "three-cells"])
    @pytest.mark.parametrize("command", ["fit", "classify"])
    def test_dataset_cells_near_the_float_limit_warn_nothing(self, tmp_path, capsys, command,
                                                             cells):
        out = gen_direct(tmp_path / "g", n=20)
        rows = (out / "dataset.csv").read_text().splitlines()
        for i in range(1, cells + 1):  # three in one column overflow the class mean too
            rows[i] = "1e308," + rows[i].split(",", 1)[1]
        big = tmp_path / "big.csv"
        big.write_text("\n".join(rows) + "\n")
        params = [out / "params_class1.json", out / "params_class2.json"]
        proj = tmp_path / "proj.json"
        assert run(["fit", "--params", *params, "--r", 2, "--out", proj]) == 0
        capsys.readouterr()
        argv = {"fit": ["fit", "--dataset", big, "--r", 2, "--out", tmp_path / "x.json"],
                "classify": ["eval", "--projection", proj, "--params", *params, "--classify",
                             "--train", big, "--test", out / "dataset.csv",
                             "--out-dir", tmp_path / "ev"]}[command]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run(argv)
        self.assert_input_error(code, capsys, mentions="infinite", error="NonFiniteInput")

    def test_classify_test_cell_near_the_float_limit(self, tmp_path, capsys):
        # the row's squared distance overflows under every class: refused, not labelled
        out = gen_direct(tmp_path / "g", seed=1, n=20, extra=["--n-test", 10])
        rows = (out / "test.csv").read_text().splitlines()
        rows[1] = "1e308," + rows[1].split(",", 1)[1]
        big = tmp_path / "big.csv"
        big.write_text("\n".join(rows) + "\n")
        params = [out / "params_class1.json", out / "params_class2.json"]
        proj = tmp_path / "proj.json"
        assert run(["fit", "--params", *params, "--r", 2, "--method", "alg2", "--out", proj]) == 0
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run(["eval", "--projection", proj, "--params", *params, "--classify",
                        "--train", out / "dataset.csv", "--test", big, "--out-dir", tmp_path / "ev"])
        self.assert_input_error(code, capsys, mentions="overflows", error="NonFiniteInput")
        assert not (tmp_path / "ev").exists()

    @pytest.mark.parametrize("command", ["fit", "eval", "regime"])
    def test_pair_commands_refuse_three_classes(self, tmp_path, capsys, command):
        out = tmp_path / "g"
        assert run(["gen", "--d", 3, "--classes", 3, "--seed", 1, "--out-dir", out]) == 0
        params = [out / f"params_class{i}.json" for i in (1, 2, 3)]
        proj = tmp_path / "proj.json"
        assert run(["fit", "--params", *params[:2], "--r", 1, "--out", proj]) == 0
        capsys.readouterr()
        argv = {"fit": ["fit", "--params", *params, "--method", "alg2", "--r", 1,
                        "--out", tmp_path / "x.json"],
                "eval": ["eval", "--projection", proj, "--params", *params, "--sweep-r", "1..2",
                         "--out-dir", tmp_path / "ev"],
                "regime": ["regime", "--params", *params, "--r", 1]}[command]
        code = run(argv)
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        lines = captured.err.strip().splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])
        assert err["error"] == "InvalidArguments" and "exactly 2 classes" in err["message"]
        assert not (tmp_path / "x.json").exists() and not (tmp_path / "ev").exists()

    def test_regime_r_above_d(self, tmp_path, capsys):
        out = gen_direct(tmp_path / "g", seed=1, d=6)
        code = run(["regime", "--params", out / "params_class1.json", out / "params_class2.json",
                    "--r", 7])
        self.assert_input_error(code, capsys, mentions="r=7")

    @pytest.mark.parametrize("classes", [0, 1, -2])
    def test_gen_too_few_classes(self, tmp_path, capsys, classes):
        code = run(["gen", "--d", 3, "--seed", 1, "--classes", classes, "--out-dir", tmp_path / "g"])
        self.assert_input_error(code, capsys, mentions="--classes")
        assert not (tmp_path / "g").exists()

    @pytest.mark.parametrize("flag", ["--n", "--n-test"])
    def test_gen_negative_sample_count(self, tmp_path, capsys, flag):
        code = run(["gen", "--d", 3, "--seed", 1, flag, -3, "--out-dir", tmp_path / "g"])
        self.assert_input_error(code, capsys, mentions="--n", error="NonPositiveInput")
        assert not (tmp_path / "g").exists()

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

    @pytest.mark.parametrize("field, value", [
        ("mean", {"a": 1}),
        ("dim", 7),
        ("mean", [True, False, True]),
        ("covariance", [1.0, 0.0, 1.0]),
    ], ids=["mean-object", "dim-disagrees", "mean-booleans", "covariance-vector"])
    def test_params_with_bad_shape_or_type(self, tmp_path, capsys, field, value):
        gen_direct(tmp_path / "g", seed=9, d=3)
        good = tmp_path / "g" / "params_class2.json"
        record = read_json(tmp_path / "g" / "params_class1.json")
        record[field] = value
        bad = tmp_path / "bad.json"
        write_json(bad, record)
        code = run(["fit", "--params", bad, good, "--r", 1, "--out", tmp_path / "x.json"])
        self.assert_input_error(code, capsys, mentions=field)

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
        ("achieved_kld", lambda rec: None),
        ("achieved_kld", lambda rec: [1]),
        ("achieved_kld", lambda rec: "x"),
        ("warnings", lambda rec: 5),
        ("warnings", lambda rec: None),
        ("method", lambda rec: [1]),
    ], ids=["matrix-scalar", "matrix-ragged", "matrix-strings", "original-too-wide",
            "r-disagrees", "dim-disagrees", "scores-scalar", "scores-strings", "kld-null",
            "kld-list", "kld-string", "warnings-number", "warnings-null", "method-list"])
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
