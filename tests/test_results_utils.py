"""Tests for the chart writer and the table renderer."""

import csv
import os

from repro.utils.results import render_table, write_chart


class TestWriteChart:
    def test_csv_roundtrip(self, tmp_path, capsys):
        path = write_chart(str(tmp_path / "out"), "exp", "t", "x", "y",
                           {"line": [(0, 1.5), (1, 2.5)], "empty": []})
        assert path == str(tmp_path / "out" / "exp.csv")
        with open(path) as f:
            rows = list(csv.reader(f))
        assert rows == [["series", "x", "y"], ["line", "0.0", "1.5"],
                        ["line", "1.0", "2.5"]]
        assert capsys.readouterr().out.endswith(f"[csv] {path}\n")

    def test_render_contains_data(self, tmp_path, capsys):
        write_chart(str(tmp_path), "exp", "My Title", "snr", "rate",
                    {"spinal": [(10, 3.25)], "bound": [(10, 3.5)]})
        out = capsys.readouterr().out
        assert out.startswith("\n== exp: My Title ==\n   (snr vs rate)\n"
                              "-- spinal\n       10.000      3.2500\n"
                              "-- bound\n")
        assert os.path.exists(tmp_path / "exp.csv")


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

