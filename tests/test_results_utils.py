"""Tests for the experiment result records and rendering helpers."""

import csv
import os

from repro.utils.results import (
    ExperimentResult,
    SeriesResult,
    render_table,
)


class TestSeriesResult:
    def test_add_and_rows(self):
        s = SeriesResult("curve")
        s.add(1, 2.0)
        s.add(3, 4.0)
        assert s.as_rows() == [("curve", 1.0, 2.0), ("curve", 3.0, 4.0)]


class TestExperimentResult:
    def test_new_and_get_series(self):
        r = ExperimentResult("e1", "title")
        a = r.new_series("a")
        b = r.new_series("b")
        assert r.series == [a, b]
        assert (a.label, a.x, a.y) == ("a", [], [])

    def test_csv_roundtrip(self, tmp_path):
        r = ExperimentResult("exp", "t", "x", "y")
        s = r.new_series("line")
        s.add(0, 1.5)
        s.add(1, 2.5)
        path = r.write_csv(str(tmp_path))
        assert os.path.basename(path) == "exp.csv"
        with open(path) as f:
            rows = list(csv.reader(f))
        assert rows[0] == ["series", "x", "y"]
        assert rows[1] == ["line", "0.0", "1.5"]
        assert len(rows) == 3

    def test_render_contains_data(self):
        r = ExperimentResult("exp", "My Title", "snr", "rate")
        s = r.new_series("spinal")
        s.add(10, 3.25)
        text = r.render()
        assert "My Title" in text
        assert "spinal" in text
        assert "3.2500" in text


class TestRenderTable:
    def test_alignment(self):
        out = render_table(["a", "bb"], [["xxx", "1"], ["y", "22"]])
        lines = out.split("\n")
        assert len(lines) == 4
        # all rows equal width
        assert len(set(map(len, lines))) == 1

    def test_contents(self):
        out = render_table(["code", "rate"], [["spinal", 3.5]])
        assert "spinal" in out and "3.5" in out

