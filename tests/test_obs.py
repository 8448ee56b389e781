"""Tests for repro.obs: out-of-band metrics, tracing, kernel profiling.

The load-bearing properties:

- **out-of-band**: enabling metrics changes no RNG stream, decode result,
  spec hash, or store byte — the same sweep with metrics on and off (and
  with a worker pool) writes byte-identical store files;
- **zero overhead when disabled**: the singleton's mutating methods are
  no-ops and its context-manager factories return one cached null
  instance, so hot loops never allocate on the disabled path;
- the orchestrator aggregates worker metrics (fork handoff via
  ``drain``/``merge``) and the CLI surfaces the summary plus a canonical
  ``<name>.metrics.json`` artifact.
"""

import json
import os

import pytest

from repro.channels import AWGNChannel
from repro.experiments import ResultStore, build_spec, run_experiment, spec_hash
from repro.experiments.cli import main as cli_main
from repro.experiments.store import StoreQuarantineWarning
from repro.link import LinkConfig, LinkSession
from repro.obs import (
    OBS,
    TimeStat,
    kernel_breakdown,
    metrics_payload,
    render_summary,
)
from repro.obs.events import SCHEMA_VERSION as EVENTS_SCHEMA_VERSION
from repro.obs.registry import _NULL_CONTEXT
from repro.utils.bitops import random_message


@pytest.fixture(autouse=True)
def clean_obs():
    """Every test starts and ends with a disabled, empty registry."""
    OBS.disable()
    OBS.reset()
    yield
    OBS.disable()
    OBS.reset()
    OBS.owner_pid = None


def smoke_argv(tmp_path, *extra, sub="store"):
    return ["run", "smoke",
            "--store", str(tmp_path / sub),
            "--results-dir", str(tmp_path / "results"),
            *extra]


class TestTimeStat:
    def test_add_tracks_extremes_and_mean(self):
        stat = TimeStat()
        for s in (0.2, 0.1, 0.3):
            stat.add(s)
        assert stat.n == 3
        assert stat.total == pytest.approx(0.6)
        assert stat.mean == pytest.approx(0.2)
        assert stat.min == pytest.approx(0.1)
        assert stat.max == pytest.approx(0.3)

    def test_add_bulk_keeps_totals_exact_without_extremes(self):
        stat = TimeStat()
        stat.add_bulk(1.5, calls=10)
        assert stat.n == 10 and stat.total == pytest.approx(1.5)
        assert stat.min is None and stat.max is None

    def test_merge_folds_worker_records(self):
        ours = TimeStat()
        ours.add(0.2)
        ours.merge({"n": 3, "total_s": 0.9, "min_s": 0.1, "max_s": 0.5})
        assert ours.n == 4
        assert ours.total == pytest.approx(1.1)
        assert ours.min == pytest.approx(0.1)
        assert ours.max == pytest.approx(0.5)
        # bulk-only records carry no extremes; merging them keeps ours
        ours.merge({"n": 2, "total_s": 0.1, "min_s": None, "max_s": None})
        assert ours.min == pytest.approx(0.1)

    def test_empty_mean_is_zero(self):
        assert TimeStat().mean == 0.0


class TestDisabledPath:
    def test_mutators_are_noops(self):
        OBS.counter("x")
        OBS.add_time("y", 1.0)
        OBS.event("z", field=1)
        with OBS.span("t", attr=1):
            pass
        snap = OBS.snapshot()
        assert snap == {"counters": {}, "timers": {}}

    def test_span_returns_one_cached_null_context(self):
        # the whole disabled-path allocation story: one module singleton
        assert OBS.span("a") is OBS.span("b", attr=1)
        assert OBS.span("a") is _NULL_CONTEXT

    def test_enabled_flag_snapshot_pattern(self):
        # hot loops read OBS.enabled once; the flag is a plain attribute
        assert OBS.enabled is False
        OBS.enable()
        assert OBS.enabled is True
        assert OBS.span("a") is not _NULL_CONTEXT


class TestRegistry:
    def test_counter_and_add_time(self):
        OBS.enable()
        OBS.counter("hits")
        OBS.counter("hits", 4)
        OBS.add_time("kernel.hash", 0.5, calls=100)
        OBS.add_time("kernel.hash", 0.0, calls=0)  # empty flush: dropped
        snap = OBS.snapshot()
        assert snap["counters"] == {"hits": 5}
        assert snap["timers"]["kernel.hash"]["n"] == 100
        assert snap["timers"]["kernel.hash"]["total_s"] == pytest.approx(0.5)

    def test_timer_records_an_observation(self):
        """A span records one observation under its name's timer."""
        OBS.enable()
        with OBS.span("phase"):
            pass
        rec = OBS.snapshot()["timers"]["phase"]
        assert rec["n"] == 1 and rec["total_s"] >= 0.0
        assert rec["min_s"] is not None

    def test_reset_keeps_recording_state(self):
        OBS.enable()
        OBS.counter("x")
        OBS.reset()
        assert OBS.enabled
        assert OBS.snapshot() == {"counters": {}, "timers": {}}

    def test_drain_hands_off_and_clears(self):
        OBS.enable()
        OBS.counter("x", 2)
        OBS.add_time("t", 0.25, calls=5)
        snap = OBS.drain()
        assert snap["counters"] == {"x": 2}
        assert OBS.snapshot() == {"counters": {}, "timers": {}}

    def test_merge_folds_counters_and_timers(self):
        OBS.enable()
        OBS.counter("x")
        OBS.add_time("t", 0.25, calls=5)
        OBS.merge({"counters": {"x": 2, "y": 1},
                   "timers": {"t": {"n": 5, "total_s": 0.75,
                                    "min_s": None, "max_s": None}}})
        snap = OBS.snapshot()
        assert snap["counters"] == {"x": 3, "y": 1}
        assert snap["timers"]["t"]["n"] == 10
        assert snap["timers"]["t"]["total_s"] == pytest.approx(1.0)

    def test_merge_is_noop_while_disabled(self):
        OBS.merge({"counters": {"x": 1}, "timers": {}})
        OBS.enable()
        assert OBS.snapshot()["counters"] == {}

    def test_adopt_claims_inherited_registry(self):
        OBS.enable()
        OBS.counter("parent.data")
        OBS.owner_pid = os.getpid() + 1  # pretend we forked
        assert OBS.in_foreign_process()
        OBS.adopt()
        assert not OBS.in_foreign_process()
        assert OBS.owner_pid == os.getpid()
        assert OBS.snapshot()["counters"] == {}  # inherited data dropped
        assert OBS._sink is None

    def test_in_foreign_process_false_when_disabled(self):
        assert not OBS.in_foreign_process()

    def test_drain_on_empty_registry(self):
        OBS.enable()
        snap = OBS.drain()
        assert snap == {"counters": {}, "timers": {}}
        OBS.counter("x")  # registry still usable after the empty drain
        assert OBS.snapshot()["counters"] == {"x": 1}

    def test_merge_of_empty_snapshot_is_identity(self):
        OBS.enable()
        OBS.counter("x", 2)
        OBS.add_time("t", 0.5, calls=3)
        before = OBS.snapshot()
        OBS.merge({"counters": {}, "timers": {}})
        assert OBS.snapshot() == before

    def test_worker_with_zero_recorded_timers_round_trips(self):
        # A worker that adopts, does no instrumented work, and drains must
        # hand back an empty snapshot whose merge is a no-op in the parent.
        OBS.enable()
        OBS.owner_pid = os.getpid() + 1  # pretend we forked
        OBS.adopt()                      # worker side
        worker_snap = OBS.drain()
        assert worker_snap == {"counters": {}, "timers": {}}
        OBS.counter("parent.after")      # back on the parent side
        OBS.merge(worker_snap)
        snap = OBS.snapshot()
        assert snap["counters"] == {"parent.after": 1}
        assert snap["timers"] == {}

    def test_merge_introduces_unseen_timer(self):
        OBS.enable()
        OBS.merge({"counters": {},
                   "timers": {"kernel.hash": {"n": 4, "total_s": 0.4,
                                              "min_s": 0.05, "max_s": 0.2}}})
        rec = OBS.snapshot()["timers"]["kernel.hash"]
        assert rec["n"] == 4
        assert rec["total_s"] == pytest.approx(0.4)
        assert rec["min_s"] == pytest.approx(0.05)


class TestEventSink:
    def test_span_and_event_schema(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        OBS.enable(jsonl_path=str(path))
        with OBS.span("phase.x", items=3):
            pass
        OBS.event("link.subpass", flow=0, acked=2)
        OBS.disable()
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert len(lines) == 3
        meta, span, event = lines
        # the stream opens with a schema/pid stamp for trace consumers
        assert meta["ev"] == "meta"
        assert meta["schema_version"] == EVENTS_SCHEMA_VERSION
        assert meta["pid"] == os.getpid()
        assert span["ev"] == "span" and span["name"] == "phase.x"
        assert span["items"] == 3
        assert span["dt_s"] >= 0.0 and span["t_s"] >= 0.0
        assert event["ev"] == "link.subpass"
        assert event["flow"] == 0 and event["acked"] == 2
        # event() counts itself exactly once
        assert OBS.snapshot()["counters"]["link.subpass"] == 1

    def test_disable_closes_sink(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        OBS.enable(jsonl_path=str(path))
        OBS.disable()
        assert OBS._sink is None
        OBS.enable()
        OBS.event("x")  # sink-less enabled registry: counted, not written
        lines = path.read_text().splitlines()
        assert len(lines) == 1  # only the open-time meta stamp
        assert json.loads(lines[0])["ev"] == "meta"

    def test_sink_creates_missing_parent_directories(self, tmp_path):
        path = tmp_path / "deeply" / "nested" / "dirs" / "trace.jsonl"
        OBS.enable(jsonl_path=str(path))
        OBS.event("x", n=1)
        OBS.disable()
        events = [json.loads(line) for line in
                  path.read_text().splitlines()]
        assert [e["ev"] for e in events] == ["meta", "x"]


class TestReport:
    def test_kernel_breakdown_shares(self):
        OBS.enable()
        OBS.add_time("kernel.hash", 0.75, calls=3)
        OBS.add_time("kernel.select", 0.25, calls=3)
        OBS.add_time("point.wall", 9.0)
        kernels = kernel_breakdown(OBS.snapshot())
        assert set(kernels) == {"kernel.hash", "kernel.select"}
        assert kernels["kernel.hash"]["share"] == pytest.approx(0.75)
        assert sum(rec["share"] for rec in kernels.values()) == pytest.approx(1.0)

    def test_render_summary_sections(self):
        OBS.enable()
        OBS.add_time("kernel.hash", 0.5, calls=10)
        OBS.add_time("point.wall", 0.9, calls=3)
        OBS.add_time("orchestrator.run", 1.0)
        OBS.counter("orchestrator.workers", 2)
        OBS.counter("store.miss", 3)
        text = render_summary(OBS.snapshot())
        assert "== metrics summary ==" in text
        assert "decode kernels:" in text and "kernel.hash" in text
        assert "store.miss" in text
        assert "3 points computed" in text
        assert "on 2 worker(s), 45% utilization" in text

    def test_render_summary_empty(self):
        assert "(no metrics recorded)" in render_summary(OBS.snapshot())

    def test_metrics_payload_carries_extra(self):
        payload = metrics_payload(OBS.snapshot(), experiment="smoke",
                                  store={"hit": 1})
        assert payload["experiment"] == "smoke"
        assert payload["store"] == {"hit": 1}
        assert payload["kernels"] == {}


class TestOutOfBand:
    """Metrics must never influence what is being measured."""

    def test_results_identical_with_metrics_on(self):
        spec = build_spec("smoke", "quick")
        baseline = run_experiment(spec, store=None, n_workers=1)
        OBS.enable()
        measured = run_experiment(spec, store=None, n_workers=1)
        assert measured.results == baseline.results
        # ... and the instrumentation actually saw the decode kernels
        assert "kernel.hash" in OBS.snapshot()["timers"]

    def test_store_files_byte_identical(self, tmp_path):
        spec = build_spec("smoke", "quick")
        off = ResultStore(str(tmp_path / "off"))
        run_experiment(spec, store=off, n_workers=1)
        OBS.enable()
        on = ResultStore(str(tmp_path / "on"))
        run_experiment(spec, store=on, n_workers=2)  # worker pool too
        with open(off.path_for(spec), "rb") as f:
            bytes_off = f.read()
        with open(on.path_for(spec), "rb") as f:
            bytes_on = f.read()
        assert bytes_on == bytes_off

    def test_spec_hash_untouched_by_metrics(self):
        spec = build_spec("smoke", "quick")
        h = spec_hash(spec)
        OBS.enable()
        assert spec_hash(spec) == h


class TestOrchestratorMetrics:
    def test_inline_run_records_kernels_and_accounting(self, tmp_path):
        OBS.enable()
        spec = build_spec("smoke", "quick")
        store = ResultStore(str(tmp_path / "store"))
        run = run_experiment(spec, store=store, n_workers=1)
        snap = OBS.snapshot()
        n = len(spec.points)
        assert run.n_computed == n
        assert snap["counters"]["store.miss"] == n
        assert snap["counters"]["store.hit"] == 0
        assert snap["counters"]["orchestrator.workers"] == 1
        assert snap["timers"]["point.wall"]["n"] == n
        assert snap["timers"]["orchestrator.run"]["n"] == 1
        for name in ("kernel.hash", "kernel.branch_cost", "kernel.select"):
            assert snap["timers"][name]["n"] > 0, name
        assert snap["counters"]["decode.attempts"] > 0

    def test_worker_pool_metrics_are_merged(self, tmp_path):
        OBS.enable()
        spec = build_spec("smoke", "quick")
        run = run_experiment(
            spec, store=ResultStore(str(tmp_path / "store")), n_workers=2)
        snap = OBS.snapshot()
        assert run.n_computed == len(spec.points)
        assert snap["counters"]["orchestrator.workers"] == 2
        # every worker's point.wall came home through drain/merge
        assert snap["timers"]["point.wall"]["n"] == len(spec.points)
        assert snap["timers"]["kernel.hash"]["n"] > 0

    def test_second_run_counts_store_hits(self, tmp_path):
        spec = build_spec("smoke", "quick")
        store = ResultStore(str(tmp_path / "store"))
        run_experiment(spec, store=store, n_workers=1)
        OBS.enable()
        run = run_experiment(spec, store=store, n_workers=1)
        snap = OBS.snapshot()
        assert run.n_cached == len(spec.points)
        assert snap["counters"]["store.hit"] == len(spec.points)
        assert snap["counters"]["store.miss"] == 0
        assert "point.wall" not in snap["timers"]

    def test_computed_hashes_name_the_misses(self, tmp_path):
        from repro.experiments import point_hash
        spec = build_spec("smoke", "quick")
        run = run_experiment(
            spec, store=ResultStore(str(tmp_path / "store")), n_workers=1)
        assert set(run.computed_hashes) == {point_hash(p)
                                            for p in spec.points}
        again = run_experiment(
            spec, store=ResultStore(str(tmp_path / "store")), n_workers=1)
        assert again.computed_hashes == ()


class TestQuarantineAccounting:
    def _corrupt_store(self, tmp_path, spec):
        store = ResultStore(str(tmp_path / "store"))
        os.makedirs(store.root, exist_ok=True)
        with open(store.path_for(spec), "w") as f:
            f.write("not json{")
        return store

    def test_quarantine_counted_in_run_and_metrics(self, tmp_path):
        spec = build_spec("smoke", "quick")
        store = self._corrupt_store(tmp_path, spec)
        OBS.enable()
        with pytest.warns(StoreQuarantineWarning):
            run = run_experiment(spec, store=store, n_workers=1)
        assert run.n_quarantined == 1
        assert OBS.snapshot()["counters"]["store.quarantine"] == 1

    def test_cli_accounting_line_shows_quarantine(self, tmp_path, capsys):
        spec = build_spec("smoke", "quick")
        self._corrupt_store(tmp_path, spec)
        with pytest.warns(StoreQuarantineWarning):
            rc = cli_main(smoke_argv(tmp_path, "--workers", "1",
                                     "--no-report", "--metrics"))
        assert rc == 0
        out = capsys.readouterr().out
        assert "1 quarantined" in out
        payload = json.loads(
            (tmp_path / "results" / "smoke.metrics.json").read_text())
        assert payload["store"]["quarantined"] == 1

    def test_clean_run_omits_quarantine_note(self, tmp_path, capsys):
        assert cli_main(smoke_argv(tmp_path, "--workers", "1",
                                   "--no-report")) == 0
        assert "quarantined" not in capsys.readouterr().out


class TestCliMetrics:
    def test_metrics_flag_prints_summary_and_writes_artifact(
            self, tmp_path, capsys):
        rc = cli_main(smoke_argv(tmp_path, "--workers", "1", "--no-report",
                                 "--metrics"))
        assert rc == 0
        out = capsys.readouterr().out
        assert "== metrics summary ==" in out
        assert "decode kernels:" in out
        assert "[metrics]" in out
        payload = json.loads(
            (tmp_path / "results" / "smoke.metrics.json").read_text())
        assert payload["experiment"] == "smoke"
        assert payload["spec_hash"] == spec_hash(build_spec("smoke", "quick"))
        assert payload["store"] == {"hit": 0, "miss": 2, "quarantined": 0}
        assert set(payload["kernels"]) == {
            "kernel.hash", "kernel.branch_cost", "kernel.select"}
        assert sum(rec["share"] for rec in payload["kernels"].values()
                   ) == pytest.approx(1.0)

    def test_metrics_jsonl_implies_metrics_and_traces_spans(
            self, tmp_path, capsys):
        trace = tmp_path / "trace.jsonl"
        rc = cli_main(smoke_argv(tmp_path, "--workers", "1", "--no-report",
                                 "--metrics-jsonl", str(trace)))
        assert rc == 0
        assert "== metrics summary ==" in capsys.readouterr().out
        events = [json.loads(line) for line in
                  trace.read_text().splitlines()]
        assert any(e["ev"] == "span" and e["name"] == "orchestrator.run"
                   for e in events)

    def test_cli_disables_registry_after_run(self, tmp_path, capsys):
        assert cli_main(smoke_argv(tmp_path, "--workers", "1", "--no-report",
                                   "--metrics")) == 0
        assert not OBS.enabled
        assert OBS.snapshot() == {"counters": {}, "timers": {}}

    def test_metrics_off_run_leaves_registry_untouched(self, tmp_path,
                                                       capsys):
        assert cli_main(smoke_argv(tmp_path, "--workers", "1",
                                   "--no-report")) == 0
        assert not OBS.enabled
        assert not (tmp_path / "results" / "smoke.metrics.json").exists()

    def test_expect_cached_failure_lists_missed_hashes(self, tmp_path,
                                                       capsys):
        from repro.experiments import point_hash
        rc = cli_main(smoke_argv(tmp_path, "--workers", "1", "--no-report",
                                 "--expect-cached"))
        assert rc == 1
        err = capsys.readouterr().err
        assert "expected a full store hit" in err
        for point in build_spec("smoke", "quick").points:
            assert f"missed {point_hash(point)}" in err
            assert f"seed={point.seed}" in err


class TestLinkTracing:
    def _run_flow(self, seed=3):
        from repro.core.params import DecoderParams, SpinalParams
        link = LinkSession(SpinalParams(), DecoderParams(B=32, max_passes=16),
                           AWGNChannel(12, rng=seed),
                           LinkConfig(framing=False, feedback_delay=8))
        return link.send_packet(random_message(96, seed))

    def test_results_identical_with_tracing_on(self, tmp_path):
        baseline = self._run_flow()
        OBS.enable(jsonl_path=str(tmp_path / "trace.jsonl"))
        traced = self._run_flow()
        assert vars(traced) == vars(baseline)

    def test_subpass_and_packet_events(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        OBS.enable(jsonl_path=str(path))
        packet = self._run_flow()
        OBS.disable()
        assert packet.success
        events = [json.loads(line) for line in path.read_text().splitlines()]
        subpasses = [e for e in events if e["ev"] == "link.subpass"]
        packets = [e for e in events if e["ev"] == "link.packet"]
        assert len(subpasses) == packet.n_subpasses
        assert sum(e["symbols"] for e in subpasses) == packet.symbols
        assert len(packets) == 1
        assert packets[0]["success"] is True
        assert packets[0]["subpasses"] == packet.n_subpasses
        counters = OBS.snapshot()["counters"]
        assert counters["link.packet_delivered"] == 1
        assert counters["link.subpass"] == packet.n_subpasses
        assert counters.get("link.ack", 0) + counters.get("link.nack", 0) > 0

    def test_no_events_while_disabled(self):
        self._run_flow()
        assert OBS.snapshot() == {"counters": {}, "timers": {}}
