"""Tests for repro.obs.trace: Chrome/Perfetto export of the JSONL stream.

The load-bearing properties:

- exporting the same JSONL stream twice produces byte-identical
  ``trace.json`` files, and two runs of the same experiment produce the
  same trace structure modulo wall-times;
- turning the trace on changes no store byte (the out-of-band guarantee
  extends to the trace export).
"""

import json

import pytest

from repro.experiments import ResultStore, build_spec, run_experiment
from repro.experiments.cli import main as experiments_main
from repro.obs import OBS
from repro.obs.trace import export_trace, trace_from_events


@pytest.fixture(autouse=True)
def clean_obs():
    OBS.disable()
    OBS.reset()
    yield
    OBS.disable()
    OBS.reset()
    OBS.owner_pid = None


def synthetic_events():
    return [
        {"ev": "meta", "schema_version": 1, "pid": 4242},
        {"ev": "span", "name": "orchestrator.run", "t_s": 2.0,
         "dt_s": 1.5, "points": 4},
        {"ev": "point.done", "series": "awgn", "x": 8.0, "kind": "snr",
         "t_s": 1.0, "dt_s": 0.4, "worker_pid": 5001},
        {"ev": "point.done", "series": "awgn", "x": 10.0, "kind": "snr",
         "t_s": 1.1, "dt_s": 0.5, "worker_pid": 5002},
        {"ev": "point.done", "series": "awgn", "x": 12.0, "kind": "snr",
         "t_s": 1.6, "dt_s": 0.4, "worker_pid": 5001},
        {"ev": "link.subpass", "t_s": 0.5, "flow": 0, "acked": 2},
    ]


class TestTraceExport:
    def test_lane_normalization(self):
        trace = trace_from_events(synthetic_events())
        events = trace["traceEvents"]
        process_names = {e["pid"]: e["args"]["name"]
                         for e in events if e["ph"] == "M"}
        assert process_names == {1: "repro main", 2: "worker-0",
                                 3: "worker-1"}
        points = [e for e in events if e.get("cat") == "point"]
        # workers are numbered by first appearance, not os pid
        assert [p["pid"] for p in points] == [2, 3, 2]
        span = next(e for e in events if e.get("cat") == "span")
        assert span["pid"] == 1
        assert span["ts"] == pytest.approx(0.5e6)
        assert span["dur"] == pytest.approx(1.5e6)
        instant = next(e for e in events if e["ph"] == "i")
        assert instant["name"] == "link.subpass" and instant["s"] == "t"
        assert trace["otherData"]["events_schema_version"] == 1

    def test_point_slices_carry_series_labels(self):
        trace = trace_from_events(synthetic_events())
        points = [e for e in trace["traceEvents"] if e.get("cat") == "point"]
        assert points[0]["name"] == "point awgn @ x=8"
        assert points[0]["args"]["series"] == "awgn"
        assert "worker_pid" not in points[0]["args"]

    def test_export_same_stream_twice_is_byte_identical(self, tmp_path):
        jsonl = tmp_path / "run.events.jsonl"
        jsonl.write_text("".join(json.dumps(e) + "\n"
                                 for e in synthetic_events()))
        info_a = export_trace(str(jsonl), str(tmp_path / "a.json"))
        info_b = export_trace(str(jsonl), str(tmp_path / "b.json"))
        bytes_a = (tmp_path / "a.json").read_bytes()
        assert bytes_a == (tmp_path / "b.json").read_bytes()
        assert info_a["n_slices"] == info_b["n_slices"] == 4
        assert info_a["n_lanes"] == 3

    def test_export_skips_garbage_lines(self, tmp_path):
        jsonl = tmp_path / "run.events.jsonl"
        jsonl.write_text('{"ev": "x", "t_s": 1.0}\nnot json{\n[1,2]\n')
        info = export_trace(str(jsonl), str(tmp_path / "t.json"))
        assert info["n_events"] == 1
        assert info["n_dropped"] == 2

    def _run_smoke(self, tmp_path, tag, *extra):
        trace_path = tmp_path / tag / "trace.json"
        rc = experiments_main([
            "run", "smoke", "--workers", "1", "--no-report",
            "--store", str(tmp_path / tag / "store"),
            "--results-dir", str(tmp_path / tag),
            "--trace-out", str(trace_path), *extra])
        assert rc == 0
        OBS.disable()
        OBS.reset()
        return trace_path

    @staticmethod
    def _structure(trace_path):
        """The trace minus wall-times: what must be run-invariant inline."""
        trace = json.load(open(trace_path))
        return [{k: v for k, v in e.items() if k not in ("ts", "dur")}
                for e in trace["traceEvents"]]

    def test_real_run_exports_a_trace(self, tmp_path):
        trace_path = self._run_smoke(tmp_path, "a")
        assert trace_path.exists()
        # the raw stream is kept next to the trace
        assert (trace_path.parent / "trace.events.jsonl").exists()
        trace = json.load(open(trace_path))
        names = [e["name"] for e in trace["traceEvents"]]
        assert "orchestrator.run" in names
        assert any(n.startswith("point ") for n in names)

    def test_inline_runs_identical_modulo_wall_times(self, tmp_path):
        trace_a = self._run_smoke(tmp_path, "a")
        trace_b = self._run_smoke(tmp_path, "b")
        assert self._structure(trace_a) == self._structure(trace_b)

    def test_trace_out_creates_parent_dirs(self, tmp_path):
        deep = tmp_path / "x" / "y" / "z" / "trace.json"
        rc = experiments_main([
            "run", "smoke", "--workers", "1", "--no-report",
            "--store", str(tmp_path / "store"),
            "--results-dir", str(tmp_path),
            "--trace-out", str(deep)])
        assert rc == 0 and deep.exists()

    def test_metrics_jsonl_creates_parent_dirs(self, tmp_path):
        deep = tmp_path / "p" / "q" / "run.jsonl"
        rc = experiments_main([
            "run", "smoke", "--workers", "1", "--no-report",
            "--store", str(tmp_path / "store"),
            "--results-dir", str(tmp_path),
            "--metrics-jsonl", str(deep)])
        assert rc == 0 and deep.exists()

    def test_store_bytes_identical_with_trace_on(self, tmp_path):
        spec = build_spec("smoke", "quick")
        off = ResultStore(str(tmp_path / "off"))
        run_experiment(spec, store=off, n_workers=1)
        self._run_smoke(tmp_path, "on")
        on = ResultStore(str(tmp_path / "on" / "store"))
        with open(off.path_for(spec), "rb") as f:
            bytes_off = f.read()
        with open(on.path_for(spec), "rb") as f:
            assert f.read() == bytes_off
