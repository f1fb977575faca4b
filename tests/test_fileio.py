"""On-disk formats: bit-exact floats, stable JSON, record round trips, dataset twins."""

import hashlib
import io
import json
import math
import shutil
import tracemalloc

import numpy as np
import pytest

from klproj import GaussianParams, LabeledDataset, fileio, random_class_params, sample
from klproj import mean_first_projection, whitened_component_projection
from klproj.errors import DimensionMismatch
from klproj.fileio import (
    atomic_write_text,
    dataset_from_csv,
    dataset_to_csv,
    dumps_json,
    params_from_dict,
    params_to_dict,
    projection_from_dict,
    projection_to_dict,
    read_csv,
    read_json,
    write_csv,
    write_json,
)


def _hard_floats(seed):
    """Signed zeros, a subnormal, extremes and wide-exponent draws."""
    rng = np.random.default_rng(seed)
    specials = [0.0, -0.0, 1.0, -1.0, math.pi, 1e-308, 1e308, 5e-324]
    drawn = list(rng.standard_normal(200)) + list(
        np.exp(rng.uniform(-300, 300, size=200)) * rng.choice([-1.0, 1.0], 200)
    )
    return np.array(specials + drawn)


class TestFormatFloat:
    def test_round_trips_float64_bit_exactly(self, tmp_path):
        # each float cell's text, parsed on its own, gives back the same bits
        vals = _hard_floats(801)
        path = tmp_path / "t.csv"
        write_csv(path, ["x"], [vals])
        cells = path.read_text().splitlines()[1:]
        assert len(cells) == len(vals)
        for text, x in zip(cells, vals):
            back = float(text)
            assert back == x
            # sign of zero must survive too
            assert math.copysign(1.0, back) == math.copysign(1.0, x)


class TestDumpsJson:
    def test_keys_sorted_and_stable(self):
        a = dumps_json({"b": 1, "a": 2, "c": [3, {"z": 0, "y": 1}]})
        b = dumps_json({"c": [3, {"y": 1, "z": 0}], "a": 2, "b": 1})
        assert a == b
        assert a.index('"a"') < a.index('"b"') < a.index('"c"')

    def test_parses_back(self):
        obj = {"name": "x", "vals": [1.5, 2, True, None], "nested": {"k": -0.25}}
        assert json.loads(dumps_json(obj)) == obj

    def test_infinity_tokens(self):
        text = dumps_json({"hi": float("inf"), "lo": float("-inf")})
        assert "Infinity" in text and "-Infinity" in text
        back = json.loads(text)
        assert back["hi"] == float("inf") and back["lo"] == float("-inf")

    def test_bools_not_confused_with_ints(self):
        assert dumps_json({"flag": True}).strip() == '{\n  "flag": true\n}'
        assert dumps_json({"flag": 1}).strip() == '{\n  "flag": 1\n}'

    def test_numpy_scalars_and_arrays(self):
        text = dumps_json({"arr": np.arange(3.0), "n": np.int64(4), "x": np.float64(0.5)})
        back = json.loads(text)
        assert back == {"arr": [0.0, 1.0, 2.0], "n": 4, "x": 0.5}

    def test_unserializable_rejected(self):
        with pytest.raises(TypeError):
            dumps_json({"bad": object()})

    def test_floats_take_shortest_round_trip_form(self):
        rng = np.random.default_rng(801)
        vals = [0.1, -0.0, 5e-324, 1e308] + list(rng.standard_normal(100))
        text = dumps_json({"v": vals})
        assert "0.1," in text and "0.10000000000000001" not in text
        back = json.loads(text)["v"]
        assert back == vals
        assert math.copysign(1.0, back[1]) == -1.0

    def test_layout_is_two_space_indent(self):
        assert dumps_json({"a": [1, {}], "b": []}) == (
            '{\n  "a": [\n    1,\n    {}\n  ],\n  "b": []\n}\n'
        )


class TestAtomicWrites:
    def test_write_then_read(self, tmp_path):
        target = tmp_path / "out.json"
        write_json(target, {"v": 1.25})
        assert read_json(target) == {"v": 1.25}

    def test_no_temp_files_left_behind(self, tmp_path):
        target = tmp_path / "out.txt"
        atomic_write_text(target, "payload\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out.txt"]

    def test_overwrite_replaces_content(self, tmp_path):
        target = tmp_path / "out.txt"
        atomic_write_text(target, "one\n")
        atomic_write_text(target, "two\n")
        assert target.read_text() == "two\n"

    def test_failed_serialization_leaves_no_file(self, tmp_path):
        target = tmp_path / "out.json"
        with pytest.raises(TypeError):
            write_json(target, {"bad": object()})
        assert not target.exists()


class TestCsv:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(path, ["a", "b"], [[1, 3], [2.5, -0.125]])
        assert path.read_text() == "a,b\n1,2.5\n3,-0.125\n"
        header, table = read_csv(path)
        assert header == ["a", "b"]
        np.testing.assert_array_equal(table, [[1, 2.5], [3, -0.125]])

    def test_columns_pick_their_format(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(path, ["method", "r", "kld"], [("alg1", "lol"), (1, 2), (0.1, 2.0)])
        assert path.read_text() == (
            "method,r,kld\nalg1,1,0.10000000000000001\nlol,2,2\n"
        )

    def test_float_cells_bit_exact(self, tmp_path):
        vals = _hard_floats(811)
        path = tmp_path / "t.csv"
        write_csv(path, ["x"], [vals])
        _, table = read_csv(path)
        np.testing.assert_array_equal(table[:, 0], vals)
        # sign of zero must survive too
        np.testing.assert_array_equal(np.signbit(table[:, 0]), np.signbit(vals))

    def test_nan_and_infinities_round_trip(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(path, ["x"], [[np.nan, np.inf, -np.inf]])
        _, table = read_csv(path)
        np.testing.assert_array_equal(table[:, 0], [np.nan, np.inf, -np.inf])

    @pytest.mark.parametrize("header, columns, fmt", [
        (["f0", "f1", "label"], [np.resize(_hard_floats(3), 1500), np.resize(_hard_floats(4), 1500),
                                 np.repeat([1, 2], 750)], ["%.17g", "%.17g", "%d"]),
        (["method", "r", "kld"], [np.repeat(["alg1", "lol"], 750), np.arange(1500) % 20 + 1,
                                  np.resize(_hard_floats(5), 1500)], ["%s", "%d", "%.17g"]),
        (["method", "r", "kld"], [(), (), ()], ["%.17g"] * 3),
    ], ids=["floats-and-labels", "strings", "header-only"])
    def test_bytes_match_savetxt(self, tmp_path, header, columns, fmt):
        # 1500 rows of 3 cells span many blocks; an empty sweep writes only its header
        path = tmp_path / "t.csv"
        write_csv(path, header, columns)
        table = np.array(columns, dtype=object).T if "%s" in fmt else np.array(columns, float).T
        expect = io.BytesIO()
        np.savetxt(expect, table, fmt=fmt, delimiter=",", header=",".join(header), comments="")
        assert path.read_bytes() == expect.getvalue()

    @pytest.mark.parametrize("kind", ["f", "U"])
    def test_buffer_refills_keep_the_bytes(self, tmp_path, monkeypatch, kind):
        # 1500 rows of 3 cells refill an 85-row buffer 18 times, the last one in part
        columns = [np.resize(_hard_floats(3), 1500), np.arange(1500) % 20 + 1,
                   np.repeat(["alg1", "lol"], 750) if kind == "U" else np.resize(_hard_floats(4), 1500)]
        write_csv(tmp_path / "whole.csv", ["a", "b", "c"], columns)
        monkeypatch.setattr(fileio, "_CSV_CELLS", 99)
        write_csv(tmp_path / "refilled.csv", ["a", "b", "c"], columns)
        assert (tmp_path / "refilled.csv").read_bytes() == (tmp_path / "whole.csv").read_bytes()


class TestParamsRecord:
    def test_round_trip(self):
        p = random_class_params(4, 0.5, 3.0, 1.0, 821)
        rec = params_to_dict(p, config={"seed": 821})
        q = params_from_dict(rec)
        np.testing.assert_array_equal(q.mean, p.mean)
        np.testing.assert_array_equal(q.covariance, p.covariance)
        assert rec["config"] == {"seed": 821}
        assert rec["kind"] == "gaussian_params"

    def test_wrong_kind_rejected(self):
        with pytest.raises(DimensionMismatch):
            params_from_dict({"kind": "projection"})

    def test_file_round_trip_bit_exact(self, tmp_path):
        p = random_class_params(5, 0.2, 8.0, 1.0, 831)
        path = tmp_path / "p.json"
        write_json(path, params_to_dict(p))
        q = params_from_dict(read_json(path))
        np.testing.assert_array_equal(q.mean, p.mean)
        np.testing.assert_array_equal(q.covariance, p.covariance)


class TestProjectionRecord:
    def test_round_trip_original_frame(self):
        p1 = random_class_params(4, 0.5, 3.0, 1.0, 841)
        p2 = random_class_params(4, 0.5, 3.0, 1.0, 842)
        res = mean_first_projection(p1, p2, 2)
        rec = projection_to_dict(res, config={"r": 2}, note="extra")
        back = projection_from_dict(rec)
        np.testing.assert_array_equal(back.matrix, res.matrix)
        assert back.method == res.method
        assert back.frame == res.frame
        assert back.achieved_kld == res.achieved_kld
        assert back.component_scores == res.component_scores
        assert rec["note"] == "extra"

    def test_round_trip_whitened_frame_keeps_both_matrices(self):
        p1 = random_class_params(4, 0.5, 3.0, 1.0, 851)
        p2 = random_class_params(4, 0.5, 3.0, 1.0, 852)
        res = whitened_component_projection(p1, p2, 2)
        back = projection_from_dict(projection_to_dict(res))
        np.testing.assert_array_equal(back.matrix_original, res.matrix_original)
        np.testing.assert_array_equal(back.in_original_frame(), res.in_original_frame())

    def test_wrong_kind_rejected(self):
        with pytest.raises(DimensionMismatch):
            projection_from_dict({"kind": "gaussian_params"})

    def test_json_array_rejected(self):
        with pytest.raises(DimensionMismatch, match="list"):
            projection_from_dict([1, 2])

    def test_whitened_frame_without_original_rows_rejected(self):
        p1 = random_class_params(4, 0.5, 3.0, 1.0, 853)
        p2 = random_class_params(4, 0.5, 3.0, 1.0, 854)
        rec = projection_to_dict(whitened_component_projection(p1, p2, 2))
        del rec["matrix_original"]
        with pytest.raises(DimensionMismatch, match="matrix_original"):
            projection_from_dict(rec)

    def test_unknown_frame_rejected(self):
        p1 = random_class_params(4, 0.5, 3.0, 1.0, 855)
        p2 = random_class_params(4, 0.5, 3.0, 1.0, 856)
        rec = projection_to_dict(mean_first_projection(p1, p2, 2))
        rec["frame"] = "sideways"
        with pytest.raises(DimensionMismatch, match="sideways"):
            projection_from_dict(rec)


class TestDatasetCsv:
    def test_round_trip_bit_exact(self, tmp_path):
        p = random_class_params(3, 0.5, 2.0, 1.0, 861)
        data = LabeledDataset(sample(p, 40, 862), np.repeat([1, 2], 20))
        path = tmp_path / "d.csv"
        dataset_to_csv(path, data)
        back = dataset_from_csv(path)
        np.testing.assert_array_equal(back.samples, data.samples)
        np.testing.assert_array_equal(back.labels, data.labels)

    def test_header_names_features_and_label(self, tmp_path):
        p = random_class_params(2, 0.5, 2.0, 1.0, 871)
        data = LabeledDataset(sample(p, 4, 872), np.zeros(4, dtype=int))
        path = tmp_path / "d.csv"
        dataset_to_csv(path, data)
        header, _ = read_csv(path)
        assert header == ["f0", "f1", "label"]

    def test_missing_label_column_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("f0,f1\n1.0,2.0\n")
        with pytest.raises(DimensionMismatch):
            dataset_from_csv(path)


def _twins_of(path):
    # named <csv name>.<64 hex digits>.npy
    return sorted(p for p in path.parent.glob(path.name + ".*.npy") if len(p.suffixes[-2]) == 65)


def _parsed(path):
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def _no_parse(*args, **kwargs):
    raise AssertionError("the CSV was parsed")


class TestDatasetTwin:
    """dataset_to_csv's .npy twin: the parsed table, loaded only for the CSV's own bytes."""

    @staticmethod
    def hard_dataset(path):
        vals = _hard_floats(891)  # 408 values: signed zeros, subnormals, 1e308
        data = LabeledDataset(vals.reshape(-1, 2), np.repeat([1, 2], vals.size // 4))
        dataset_to_csv(path, data)
        return data

    def test_twin_holds_the_parsed_table_bit_for_bit(self, tmp_path):
        path = tmp_path / "d.csv"
        self.hard_dataset(path)
        (twin,) = _twins_of(path)
        assert twin.name == f"d.csv.{hashlib.sha256(path.read_bytes()).hexdigest()}.npy"
        expect = io.BytesIO()
        np.save(expect, _parsed(path))
        assert twin.read_bytes() == expect.getvalue()

    def test_read_loads_the_twin_instead_of_parsing(self, tmp_path, monkeypatch):
        path = tmp_path / "d.csv"
        data = self.hard_dataset(path)
        parsed = _parsed(path)
        monkeypatch.setattr(np, "loadtxt", _no_parse)
        header, table = read_csv(path)
        assert header == ["f0", "f1", "label"]
        assert table.tobytes() == parsed.tobytes()
        back = dataset_from_csv(path)
        assert back.samples.tobytes() == data.samples.tobytes()
        np.testing.assert_array_equal(back.labels, data.labels)

    def test_edited_cell_is_parsed_not_twinned(self, tmp_path):
        path = tmp_path / "d.csv"
        self.hard_dataset(path)
        lines = path.read_text().splitlines(keepends=True)
        lines[1] = "0.25" + lines[1][lines[1].index(","):]  # same shape, one cell changed
        path.write_text("".join(lines))
        _, table = read_csv(path)
        assert table[0, 0] == 0.25
        assert table.tobytes() == _parsed(path).tobytes()
        assert len(_twins_of(path)) == 1  # the stale twin is kept, and ignored

    def test_twin_of_the_wrong_width_is_refused_like_a_parse(self, tmp_path):
        path = tmp_path / "d.csv"
        self.hard_dataset(path)
        (twin,) = _twins_of(path)
        np.save(twin, _parsed(path)[:, 1:])
        with pytest.raises(DimensionMismatch) as from_twin:
            read_csv(path)
        path.write_text("f0,f1,label\n1.0,1\n2.0,2\n")
        with pytest.raises(DimensionMismatch) as from_parse:
            read_csv(path)
        assert str(from_twin.value) == str(from_parse.value) == (
            f"{path}: header names 3 columns, rows have 2")

    @pytest.mark.parametrize("kind", ["not-npy", "truncated", "float32"])
    def test_unreadable_twin_falls_back_to_the_parse(self, tmp_path, kind):
        path = tmp_path / "d.csv"
        self.hard_dataset(path)
        (twin,) = _twins_of(path)
        if kind == "not-npy":
            payload = b"not an npy file"
        elif kind == "truncated":
            payload = twin.read_bytes()[:-8]
        else:
            buffer = io.BytesIO()
            np.save(buffer, np.zeros(_parsed(path).shape, np.float32))
            payload = buffer.getvalue()
        twin.write_bytes(payload)
        _, table = read_csv(path)
        assert table.tobytes() == _parsed(path).tobytes()

    def test_csv_without_a_twin_is_never_hashed(self, tmp_path, monkeypatch):
        path = tmp_path / "d.csv"
        self.hard_dataset(path)
        copy = tmp_path / "copy" / "d.csv"
        copy.parent.mkdir()
        shutil.copyfile(path, copy)
        (copy.parent / "d.csv.backup.npy").write_bytes(b"")  # not named as a twin
        monkeypatch.setattr(fileio, "_twin", _no_parse)
        _, table = read_csv(copy)
        assert table.tobytes() == _parsed(path).tobytes()

    def test_unlistable_directory_is_parsed(self, tmp_path, monkeypatch):
        path = tmp_path / "d.csv"
        self.hard_dataset(path)

        def refuse(directory):
            raise PermissionError(13, "Permission denied", str(directory))
        monkeypatch.setattr(fileio.os, "listdir", refuse)
        _, table = read_csv(path)
        assert table.tobytes() == _parsed(path).tobytes()

    def test_rewrite_keeps_one_twin_per_csv(self, tmp_path):
        path = tmp_path / "d.csv"
        self.hard_dataset(path)
        other = tmp_path / "e.csv"
        self.hard_dataset(other)
        lookalike = tmp_path / "d.csv.backup.npy"
        lookalike.write_bytes(b"")
        dataset_to_csv(path, LabeledDataset(np.eye(3), [1, 2, 2]))
        (twin,) = _twins_of(path)
        assert twin.name == f"d.csv.{hashlib.sha256(path.read_bytes()).hexdigest()}.npy"
        assert len(_twins_of(other)) == 1 and lookalike.exists()
        np.testing.assert_array_equal(read_csv(path)[1], [[1, 0, 0, 1], [0, 1, 0, 2], [0, 0, 1, 2]])

    def test_twin_is_built_from_row_blocks(self, tmp_path, monkeypatch):
        # 4000 x 51 cells: an n x (d+1) staging table would take 1.6 MB on top of the dataset
        n, d = 4000, 50
        data = LabeledDataset(np.random.default_rng(921).standard_normal((n, d)),
                              np.repeat([1, 2], n // 2))
        tracemalloc.start()
        try:
            dataset_to_csv(tmp_path / "d.csv", data)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.5 * 8 * n * (d + 1)
        whole = _twins_of(tmp_path / "d.csv")[0].read_bytes()
        monkeypatch.setattr(fileio, "_CSV_CELLS", 99)  # 1 row per block, the last one short
        dataset_to_csv(tmp_path / "refilled.csv", data)
        assert _twins_of(tmp_path / "refilled.csv")[0].read_bytes() == whole
