"""File emission: CSV cell formatting, JSON conversion, summary layout."""

import dataclasses
import json
import math

import numpy as np
import pytest

from rsolab.io import VERSION, format_cell, json_ready, optional_infinite, write_csv, write_summary


class TestFormatCell:
    def test_basic_types(self):
        assert format_cell(None) == ""
        assert format_cell(True) == "1"
        assert format_cell(False) == "0"
        assert format_cell(np.bool_(True)) == "1"
        assert format_cell(7) == "7"
        assert format_cell(np.int64(-3)) == "-3"
        assert format_cell("wired") == "wired"

    def test_float_cells_round_trip_losslessly(self):
        for x in (0.1, 1 / 3, math.pi, 1e-300, 6.02e23, -0.0):
            assert float(format_cell(x)) == x
        assert format_cell(np.float64(0.5)) == "0.5"

    def test_refuses_cells_that_would_need_quoting(self):
        for bad in ("a,b", 'say "hi"', "two\nlines", "cr\rhere"):
            with pytest.raises(ValueError):
                format_cell(bad)


class TestWriteCsv:
    def test_bytes_layout(self, tmp_path):
        p = write_csv(tmp_path / "t.csv", ["a", "b"], [(1, 0.5), (None, True)])
        data = p.read_bytes()
        assert data == b"a,b\n1,0.5\n,1\n"

    def test_rejects_ragged_rows(self, tmp_path):
        with pytest.raises(ValueError):
            write_csv(tmp_path / "t.csv", ["a", "b"], [(1,)])

    def test_streamed_bytes_and_no_partial_file(self, tmp_path):
        rows = [
            (1, 0.1, True, None),
            (np.int64(-2), np.float64(-2.5e-7), np.bool_(False), "x"),
            (0, 2.0, False, 1.5),
        ]
        p = write_csv(tmp_path / "t.csv", ["i", "x", "flag", "opt"], rows)
        assert p.read_bytes() == (
            b"i,x,flag,opt\n1,0.10000000000000001,1,\n-2,-2.4999999999999999e-07,0,x\n0,2,0,1.5\n"
        )
        # a bad row after good ones leaves neither the table nor its temporary
        for bad in ((7, 1.0, True), (7, "a,b", True, None)):
            with pytest.raises(ValueError):
                write_csv(tmp_path / "bad.csv", ["i", "x", "flag", "opt"], [rows[0], bad])
            assert sorted(q.name for q in tmp_path.iterdir()) == ["t.csv"]

    def test_rerun_byte_identical(self, tmp_path):
        rows = [(k, math.sqrt(k)) for k in range(50)]
        p1 = write_csv(tmp_path / "r1.csv", ["k", "v"], rows)
        p2 = write_csv(tmp_path / "r2.csv", ["k", "v"], rows)
        assert p1.read_bytes() == p2.read_bytes()


@dataclasses.dataclass(frozen=True)
class Point:
    x: float
    tags: tuple


class TestJsonReady:
    def test_recursive_conversion(self):
        obj = {
            "point": Point(x=1.5, tags=("a", "b")),
            "arr": np.array([1.0, 2.0]),
            "num": np.float64(0.25),
            "count": np.int32(4),
            "flag": np.bool_(False),
            "nothing": None,
        }
        got = json_ready(obj)
        assert got == {
            "point": {"x": 1.5, "tags": ["a", "b"]},
            "arr": [1.0, 2.0],
            "num": 0.25,
            "count": 4,
            "flag": False,
            "nothing": None,
        }
        json.dumps(got)  # fully serializable

    def test_unknown_type_rejected(self):
        with pytest.raises(TypeError):
            json_ready({1, 2})

    def test_optional_infinite(self):
        assert optional_infinite(None) == {"value": None, "infinite": True}
        assert optional_infinite(2.5) == {"value": 2.5, "infinite": False}
        # +inf is "no finite value" too, and is tagged once, not nested
        assert optional_infinite(np.float64(np.inf)) == {"value": None, "infinite": True}
        assert json_ready({"a": optional_infinite(math.inf)}) == {"a": optional_infinite(None)}


class TestWriteSummary:
    def test_layout_and_keys(self, tmp_path):
        p = write_summary(
            tmp_path / "s.json",
            command="demo",
            config={"w": 1.0},
            results={"x": np.float64(2.0)},
            passed=True,
            seeds={"master": 0},
        )
        raw = p.read_text()
        data = json.loads(raw)
        assert data["command"] == "demo"
        assert data["version"] == VERSION
        assert data["results"] == {"x": 2.0}
        assert raw.endswith("\n")
        assert raw == json.dumps(data, indent=2, sort_keys=True, allow_nan=False) + "\n"

    def test_non_finite_floats_refused(self, tmp_path):
        with pytest.raises(ValueError):
            write_summary(
                tmp_path / "s.json",
                command="demo",
                config={},
                results={"x": float("nan")},
                passed=False,
            )
        with pytest.raises(ValueError):
            write_summary(
                tmp_path / "s.json",
                command="demo",
                config={},
                results={"x": float("-inf")},
                passed=False,
            )
        # +inf is an unbounded value, written in the tagged encoding
        p = write_summary(
            tmp_path / "s.json",
            command="demo",
            config={},
            results={"x": float("inf")},
            passed=False,
        )
        assert json.loads(p.read_text())["results"]["x"] == {"value": None, "infinite": True}

    def test_seeds_optional(self, tmp_path):
        p = write_summary(
            tmp_path / "s.json", command="demo", config={}, results={}, passed=True
        )
        assert "seeds" not in json.loads(p.read_text())
