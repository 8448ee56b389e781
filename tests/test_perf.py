"""Tests for repro.obs.perf: bench history, regression gates, trace export.

The load-bearing properties:

- a synthetic ~2x kernel slowdown in a fixture history is *detected* by
  ``perf compare``, *attributed* to the right kernel timer, and turns
  into a non-zero exit code — while a same-fingerprint rerun within
  noise passes;
- cross-fingerprint comparisons never gate absolute metrics (they are
  flagged), but machine-free ratios still gate — the property the CI
  runner relies on when judging against a committed baseline;
- exporting the same JSONL stream twice produces byte-identical
  ``trace.json`` files, and two runs of the same experiment produce the
  same trace structure modulo wall-times;
- turning the trace on changes no store byte (the out-of-band guarantee
  extends to the perf layer).
"""

import json
import os

import pytest

from repro.experiments import ResultStore, build_spec, run_experiment
from repro.experiments.cli import main as experiments_main
from repro.obs import OBS
from repro.obs.perf import (
    BenchHistory,
    CompareOptions,
    Metric,
    attribute_regressions,
    compare_all,
    compare_suite,
    export_trace,
    fingerprint_id,
    machine_fingerprint,
    normalize_payload,
    render_comparison,
    suite_from_filename,
    trace_from_events,
)
from repro.obs.perf.cli import main as perf_main
from repro.obs.perf.history import HISTORY_SCHEMA_VERSION


@pytest.fixture(autouse=True)
def clean_obs():
    OBS.disable()
    OBS.reset()
    yield
    OBS.disable()
    OBS.reset()
    OBS.owner_pid = None


# ---------------------------------------------------------------------------
# fixture payloads (the real emitters' shapes, scaled for synthetic drifts)
# ---------------------------------------------------------------------------

def kernels_payload(hash_scale=1.0, branch_scale=1.0, select_scale=1.0):
    """A BENCH_kernels.json payload with per-group slowdown knobs."""
    def rec(group, name, mean_s, scale):
        return {"group": group, "name": name, "n_states": 4096,
                "mean_s": mean_s * scale, "stddev_s": mean_s * 0.05,
                "rounds": 400}
    return {"records": [
        rec("hash", "lookup3/4096", 7e-5, hash_scale),
        rec("hash", "salsa20/4096", 3e-4, hash_scale),
        rec("branch_cost", "awgn_k4_c6", 1.2e-4, branch_scale),
        rec("select", "4096/B256", 2.1e-4, select_scale),
    ]}


def throughput_payload(slowdown=1.0, speedup=4.0):
    """A BENCH_decoder_throughput.json payload, optionally slowed down."""
    return {
        "config": {"n_bits": 128, "profile": "quick"},
        "rate_bits_per_symbol": 0.912,
        "scalar_msgs_per_sec": round(20.0 / slowdown, 3),
        "batch_msgs_per_sec": round(80.0 / slowdown, 3),
        "speedup_batch_vs_scalar": round(speedup, 3),
        "fading_speedup_batch_vs_scalar": 3.5,
    }


def link_payload():
    return {"oracle": [{"flow": 0, "goodput": 1.51}],
            "framed": [{"flow": 0, "goodput": 1.32}],
            "framed_delayed": []}


FP_A = {"system": "Linux", "machine": "x86_64", "cpu": "cpu-a",
        "cpu_count": 8, "python": "3.11", "numpy": "1.26.0"}
FP_B = dict(FP_A, cpu="cpu-b")


def seeded_history(tmp_path, payload_fn=kernels_payload, suite="kernels",
                   n=4, fingerprint=FP_A):
    """A history with ``n`` steady records and a baseline from the first."""
    history = BenchHistory(str(tmp_path / "history"))
    for i in range(n):
        record = history.make_record(suite, payload_fn(), source="test",
                                     fingerprint=fingerprint,
                                     recorded_at=1000.0 + i)
        history.append(record)
        if i == 0:
            history.write_baseline(record)
    return history


# ---------------------------------------------------------------------------
# fingerprint + normalization
# ---------------------------------------------------------------------------

class TestFingerprint:
    def test_shape_and_stability(self):
        fp = machine_fingerprint()
        assert {"system", "machine", "cpu", "cpu_count", "python",
                "numpy"} <= set(fp)
        fid = fingerprint_id(fp)
        assert len(fid) == 12
        assert fid == fingerprint_id(machine_fingerprint())

    def test_distinct_hosts_distinct_ids(self):
        assert fingerprint_id(FP_A) != fingerprint_id(FP_B)


class TestNormalization:
    def test_decoder_throughput(self):
        metrics = normalize_payload(
            "decoder_throughput", throughput_payload())
        tput = metrics["batch_msgs_per_sec"]
        assert tput.higher_is_better is True and not tput.machine_free
        ratio = metrics["speedup_batch_vs_scalar"]
        assert ratio.machine_free and ratio.unit == "x"
        rate = metrics["rate_bits_per_symbol"]
        assert rate.higher_is_better is None  # track, never gate
        assert "config" not in metrics

    def test_kernels(self):
        metrics = normalize_payload("kernels", kernels_payload())
        rec = metrics["hash.lookup3/4096"]
        assert rec.higher_is_better is False and rec.unit == "s"
        assert rec.stddev == pytest.approx(7e-5 * 0.05)
        assert rec.n == 400
        assert set(metrics) == {"hash.lookup3/4096", "hash.salsa20/4096",
                                "branch_cost.awgn_k4_c6", "select.4096/B256"}

    def test_link_goodput(self):
        metrics = normalize_payload("link_goodput", link_payload())
        assert metrics["oracle.0.goodput"].machine_free
        assert metrics["framed.0.goodput"].value == pytest.approx(1.32)
        assert "framed_delayed.0.goodput" not in metrics

    def test_generic_fallback(self):
        metrics = normalize_payload("mystery", {"x": 2.0, "note": "hi",
                                                "flag": True})
        assert set(metrics) == {"x"}  # bools and strings are not metrics
        assert metrics["x"].higher_is_better is None

    def test_suite_from_filename(self):
        assert suite_from_filename(
            "a/b/BENCH_decoder_throughput.json") == "decoder_throughput"
        assert suite_from_filename("BENCH_kernels") == "kernels"
        assert suite_from_filename("other.json") == "other"


# ---------------------------------------------------------------------------
# the history store
# ---------------------------------------------------------------------------

class TestHistory:
    def test_record_and_load_round_trip(self, tmp_path):
        history = BenchHistory(str(tmp_path / "h"))
        record = history.record("kernels", kernels_payload(), source="x")
        assert record["schema_version"] == HISTORY_SCHEMA_VERSION
        assert record["kind"] == "bench_record"
        loaded = history.load("kernels")
        assert len(loaded) == 1
        assert loaded[0]["metrics"] == record["metrics"]
        assert loaded[0]["fingerprint_id"] == fingerprint_id(
            machine_fingerprint())

    def test_load_is_oldest_first_and_latest_wins(self, tmp_path):
        history = seeded_history(tmp_path)
        times = [r["recorded_at"] for r in history.load("kernels")]
        assert times == sorted(times)
        assert history.latest("kernels")["recorded_at"] == times[-1]

    def test_load_skips_garbage_and_future_schema(self, tmp_path):
        history = seeded_history(tmp_path, n=2)
        future = dict(history.load()[0], schema_version=999)
        with open(history.path, "a", encoding="utf-8") as f:
            f.write("not json{\n\n")
            f.write(json.dumps(future) + "\n")
        assert len(history.load("kernels")) == 2

    def test_skipped_lines_counted_per_reason(self, tmp_path):
        """Fault injection: a write cut short, a non-record, a future schema."""
        history = seeded_history(tmp_path, n=2)
        good = history.load()[0]
        line = json.dumps(good)
        with open(history.path, "a", encoding="utf-8") as f:
            f.write(line[:len(line) // 2] + "\n")     # truncated write
            f.write("[1, 2, 3]\n")                     # JSON, not a record
            f.write(json.dumps(dict(good, schema_version=999)) + "\n")
            f.write(json.dumps(dict(good, schema_version="v2")) + "\n")
        records, skipped = history.load_counted()
        assert len(records) == 2
        assert skipped == {"malformed_json": 1, "not_a_record": 2,
                           "future_schema": 1}
        # counts cover the whole file, whichever suite is asked for
        assert history.load_counted("missing") == ([], skipped)

    def test_suites_and_profile(self, tmp_path):
        history = BenchHistory(str(tmp_path / "h"))
        history.record("kernels", kernels_payload())
        history.record("decoder_throughput", throughput_payload())
        assert history.suites() == ["decoder_throughput", "kernels"]
        assert history.latest("decoder_throughput")["profile"] == "quick"
        assert history.latest("kernels")["profile"] is None

    def test_baseline_round_trip(self, tmp_path):
        history = seeded_history(tmp_path)
        baseline = history.load_baseline("kernels")
        assert baseline is not None
        assert baseline["kind"] == "bench_baseline"
        assert history.baseline_suites() == ["kernels"]
        assert history.load_baseline("missing") is None


# ---------------------------------------------------------------------------
# noise-aware comparison
# ---------------------------------------------------------------------------

class TestCompare:
    def _compare(self, tmp_path, current_payload, fingerprint=FP_A,
                 suite="kernels", payload_fn=kernels_payload,
                 options=None):
        history = seeded_history(tmp_path, payload_fn=payload_fn,
                                 suite=suite)
        history.append(history.make_record(
            suite, current_payload, fingerprint=fingerprint,
            recorded_at=2000.0))
        return compare_suite(suite, history.load_baseline(suite),
                             history.latest(suite),
                             history=history.load(), options=options)

    def test_within_noise_rerun_passes(self, tmp_path):
        comp = self._compare(tmp_path, kernels_payload(hash_scale=1.02))
        assert comp.fingerprint_match
        assert comp.regressions == [] and comp.flagged == []

    def test_2x_kernel_slowdown_is_a_regression(self, tmp_path):
        comp = self._compare(tmp_path, kernels_payload(hash_scale=2.0))
        names = {m.name for m in comp.regressions}
        assert names == {"hash.lookup3/4096", "hash.salsa20/4096"}
        worst = comp.regressions[0]
        assert worst.worsening == pytest.approx(1.0, rel=1e-6)
        assert worst.gated and worst.status == "regression"

    def test_metric_without_baseline_row_is_skipped(self, tmp_path):
        """A bench case added after the baseline was recorded is not judged."""
        payload = kernels_payload()
        payload["records"].append(
            {"group": "hash", "name": "one_at_a_time/8x4096",
             "mean_s": 2e-4, "stddev_s": 1e-5, "rounds": 400})
        comp = self._compare(tmp_path, payload)
        assert "hash.one_at_a_time/8x4096" not in {m.name
                                                   for m in comp.metrics}
        assert len(comp.metrics) == 4 and comp.regressions == []

    def test_improvement_is_not_a_regression(self, tmp_path):
        comp = self._compare(tmp_path, kernels_payload(hash_scale=0.5))
        assert comp.regressions == []
        assert {m.status for m in comp.metrics
                if m.name.startswith("hash.")} == {"improved"}

    def test_throughput_direction_is_oriented(self, tmp_path):
        comp = self._compare(tmp_path, throughput_payload(slowdown=2.0),
                             suite="decoder_throughput",
                             payload_fn=throughput_payload)
        names = {m.name for m in comp.regressions}
        assert "batch_msgs_per_sec" in names
        # the ratio did not move, the rate metric is never judged
        judged = {m.name for m in comp.metrics}
        assert "rate_bits_per_symbol" not in judged

    def test_noisy_metric_needs_a_bigger_move(self, tmp_path):
        # one round, huge recorded stddev: 3 sigma dwarfs the 10% floor
        def noisy(scale=1.0):
            return {"records": [{
                "group": "hash", "name": "lookup3/4096",
                "mean_s": 7e-5 * scale, "stddev_s": 7e-5, "rounds": 1}]}
        comp = self._compare(tmp_path, noisy(1.4), payload_fn=noisy)
        (m,) = comp.metrics
        assert m.threshold > 1.0  # 3 * sqrt(2) * 100% relative noise
        assert m.status == "ok"

    def test_cross_fingerprint_flags_absolute_gates_ratios(self, tmp_path):
        comp = self._compare(
            tmp_path, throughput_payload(slowdown=3.0, speedup=1.1),
            fingerprint=FP_B, suite="decoder_throughput",
            payload_fn=throughput_payload)
        assert not comp.fingerprint_match
        by_name = {m.name: m for m in comp.metrics}
        # absolute throughput collapsed 3x but the machines differ: flagged
        assert by_name["batch_msgs_per_sec"].status == "flagged"
        assert not by_name["batch_msgs_per_sec"].gated
        # the machine-free speedup ratio collapsed past ratio_tol: gated
        ratio = by_name["speedup_batch_vs_scalar"]
        assert ratio.gated and ratio.status == "regression"
        assert comp.regressions == [ratio]

    def test_cross_fingerprint_ratio_within_tol_passes(self, tmp_path):
        comp = self._compare(
            tmp_path, throughput_payload(slowdown=3.0, speedup=3.0),
            fingerprint=FP_B, suite="decoder_throughput",
            payload_fn=throughput_payload)
        assert comp.regressions == []  # 4.0 -> 3.0 is within ratio_tol

    def test_options_tighten_the_gate(self, tmp_path):
        opts = CompareOptions(rel_tol=0.01, noise_sigmas=0.0)
        comp = self._compare(tmp_path, kernels_payload(hash_scale=1.05),
                             options=opts)
        assert comp.regressions != []

    def test_compare_all_spans_suites(self, tmp_path):
        history = seeded_history(tmp_path)
        record = history.make_record(
            "decoder_throughput", throughput_payload(),
            fingerprint=FP_A, recorded_at=1500.0)
        history.append(record)
        history.write_baseline(record)
        history.append(history.make_record(
            "kernels", kernels_payload(select_scale=2.0),
            fingerprint=FP_A, recorded_at=2000.0))
        comparisons = compare_all(history)
        assert [c.suite for c in comparisons] == ["decoder_throughput",
                                                  "kernels"]
        kernels = comparisons[-1]
        assert {m.name for m in kernels.regressions} == {"select.4096/B256"}


class TestAttribution:
    def _comparisons(self, tmp_path, **scales):
        history = seeded_history(tmp_path)
        history.append(history.make_record(
            "kernels", kernels_payload(**scales), fingerprint=FP_A,
            recorded_at=2000.0))
        return compare_all(history)

    def test_no_decode_regression_no_attribution(self, tmp_path):
        assert attribute_regressions(self._comparisons(tmp_path)) is None

    def test_slowdown_attributed_to_the_right_timer(self, tmp_path):
        comparisons = self._comparisons(tmp_path, hash_scale=2.0)
        attribution = attribute_regressions(comparisons)
        assert attribution["primary"] == "kernel.hash"
        entry = attribution["kernel_timers"]["kernel.hash"]
        assert entry["regressed"]
        assert entry["isolated_worsening"] == pytest.approx(1.0, rel=1e-6)
        assert entry["worst_metric"].startswith("hash.")

    def test_live_shares_weight_the_primary(self, tmp_path):
        # hash slowed 2x, branch_cost 1.8x — isolated ranking says hash,
        # but live decode time is dominated by branch_cost
        comparisons = self._comparisons(tmp_path, hash_scale=2.0,
                                        branch_scale=1.8)
        shares = {"kernel.hash": {"share": 0.05},
                  "kernel.branch_cost": {"share": 0.80}}
        attribution = attribute_regressions(comparisons, live_shares=shares)
        assert attribution["primary"] == "kernel.branch_cost"
        entry = attribution["kernel_timers"]["kernel.branch_cost"]
        assert entry["estimated_decode_impact"] == pytest.approx(
            0.8 * 0.8, rel=1e-6)

    def test_render_names_the_verdict(self, tmp_path):
        comparisons = self._comparisons(tmp_path, hash_scale=2.0)
        text = render_comparison(
            comparisons, attribute_regressions(comparisons))
        assert "FAIL: performance regression(s) detected" in text
        assert "primary suspect: kernel.hash" in text
        ok = render_comparison(self._comparisons(tmp_path))
        assert ok.endswith("ok: no gated regressions")


# ---------------------------------------------------------------------------
# the perf CLI, end to end
# ---------------------------------------------------------------------------

class TestPerfCli:
    def _write_payload(self, tmp_path, name, payload):
        path = tmp_path / name
        path.write_text(json.dumps(payload))
        return str(path)

    def test_record_compare_regress_cycle(self, tmp_path, capsys):
        history_dir = str(tmp_path / "history")
        good = self._write_payload(tmp_path, "BENCH_kernels.json",
                                   kernels_payload())
        # record a healthy run and promote it to the baseline
        assert perf_main(["record", good, "--history-dir", history_dir,
                          "--baseline"]) == 0
        # rerun within noise: the gate passes
        assert perf_main(["record", good, "--history-dir", history_dir]) == 0
        assert perf_main(["compare", "--history-dir", history_dir]) == 0
        out = capsys.readouterr().out
        assert "ok: no gated regressions" in out
        # a 2x hash slowdown lands in the history: the gate fails
        bad = self._write_payload(tmp_path, "BENCH_kernels_bad.json",
                                  kernels_payload(hash_scale=2.0))
        assert perf_main(["record", bad, "--suite", "kernels",
                          "--history-dir", history_dir]) == 0
        report_path = str(tmp_path / "artifacts" / "compare.json")
        rc = perf_main(["compare", "--history-dir", history_dir,
                        "--report-out", report_path])
        out = capsys.readouterr().out
        assert rc == 1
        assert "FAIL: performance regression(s) detected" in out
        assert "primary suspect: kernel.hash" in out
        report = json.load(open(report_path))
        assert report["n_regressions"] == 2
        assert report["attribution"]["primary"] == "kernel.hash"
        assert report["suites"][0]["fingerprint_match"]

    def test_compare_accepts_baselines_dir_itself(self, tmp_path):
        history = seeded_history(tmp_path)
        history.append(history.make_record(
            "kernels", kernels_payload(), fingerprint=FP_A,
            recorded_at=2000.0))
        # FP_A is synthetic, the latest live record carries this machine's
        # fingerprint... so re-record with the ambient fingerprint to keep
        # the comparison same-fingerprint-free of surprises
        assert perf_main(["compare", "--history-dir", history.root,
                          "--against", history.baselines_dir]) in (0, 1)

    def test_compare_with_live_metrics_artifact(self, tmp_path, capsys):
        history = seeded_history(tmp_path)
        history.append(history.make_record(
            "kernels", kernels_payload(hash_scale=2.0), fingerprint=FP_A,
            recorded_at=2000.0))
        metrics_path = self._write_payload(
            tmp_path, "smoke.metrics.json",
            {"kernels": {"kernel.hash": {"share": 0.6}}})
        rc = perf_main(["compare", "--history-dir", history.root,
                        "--metrics", metrics_path])
        assert rc == 1
        assert "live share 60%" in capsys.readouterr().out

    def test_report_renders_trajectory(self, tmp_path, capsys):
        history = seeded_history(tmp_path, n=3)
        assert perf_main(["report", "--history-dir", history.root]) == 0
        out = capsys.readouterr().out
        assert "kernels: 3 record(s) shown" in out
        assert "hash.lookup3/4096" in out
        assert "->" in out

    def test_skipped_lines_reported(self, tmp_path, capsys):
        """report and compare (text and --report-out) show the skips."""
        history = seeded_history(tmp_path, n=3)
        line = json.dumps(history.load()[-1])
        with open(history.path, "a", encoding="utf-8") as f:
            f.write(line[:-7] + "\n")
            f.write(json.dumps(dict(history.load()[0],
                                    schema_version=999)) + "\n")
        expect = ("history: 2 unreadable line(s) skipped (malformed_json 1, "
                  "not_a_record 0, future_schema 1)")
        assert perf_main(["report", "--history-dir", history.root]) == 0
        assert expect in capsys.readouterr().out
        report_path = str(tmp_path / "compare.json")
        perf_main(["compare", "--history-dir", history.root,
                   "--report-out", report_path])
        assert expect in capsys.readouterr().out
        with open(report_path, encoding="utf-8") as f:
            report = json.load(f)
        assert report["history_skipped"] == {
            "malformed_json": 1, "not_a_record": 0, "future_schema": 1}

    def test_report_empty_history(self, tmp_path, capsys):
        assert perf_main(["report", "--history-dir",
                          str(tmp_path / "nothing")]) == 0
        assert "(empty history)" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# trace export
# ---------------------------------------------------------------------------

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


class TestMetricDataclass:
    def test_round_trip(self):
        metric = Metric(1.5, higher_is_better=True, stddev=0.1, n=7,
                        unit="x", machine_free=True)
        assert Metric.from_dict(metric.as_dict()) == metric

    def test_from_dict_defaults(self):
        metric = Metric.from_dict({"value": 2})
        assert metric.value == 2.0
        assert metric.higher_is_better is False
        assert metric.stddev is None and metric.n is None
