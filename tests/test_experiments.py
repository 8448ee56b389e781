"""Tests for repro.experiments: specs, store, orchestrator, adaptive, CLI.

The load-bearing properties:

- spec hashing is canonical (field order never matters) and injective
  enough (different points/specs get different addresses);
- the orchestrator produces identical store contents for any worker
  count;
- reruns are served from the store with zero new simulation jobs, and a
  partially-filled store resumes by computing only the missing points;
- adaptive sampling stops at the configured half-width with a
  deterministic trial count;
- a failed paper claim makes ``run`` and ``export`` exit 1.
"""

import dataclasses
import os
import signal
import time
from concurrent.futures.process import BrokenProcessPool
from contextlib import closing

import pytest

import repro.experiments.catalog as catalog_module
import repro.experiments.spec as spec_module
from repro.experiments import (
    AdaptivePolicy,
    ChannelSpec,
    ExperimentSpec,
    PointSpec,
    ResultStore,
    SchemeSpec,
    adaptive_measure,
    build_spec,
    catalog_names,
    get_entry,
    grid,
    make_scheme,
    point_hash,
    run_experiment,
    run_point,
    spec_hash,
    z_score,
)
from repro.experiments.cli import main as cli_main
from repro.experiments.store import StoreQuarantineWarning
from repro.simulation.sweep import RatelessScheme
from repro.utils.parallel import imap_jobs

from deadline import deadline
from test_catalog_golden import synthetic_run


def tiny_point(x=10.0, seed=42, series="tiny", n_messages=2, **overrides):
    """A real (registered) but very cheap spinal point."""
    fields = dict(
        series=series, x=x, seed=seed,
        scheme=SchemeSpec("spinal", {
            "n_bits": 16, "decoder": {"B": 4, "max_passes": 8}}),
        channel=ChannelSpec("awgn"),
        n_messages=n_messages, batch_size=n_messages,
    )
    fields.update(overrides)
    return PointSpec(**fields)


def tiny_spec(n_points=4, profile="quick"):
    points = tuple(
        tiny_point(x=5.0 + 5.0 * i, seed=100 + i) for i in range(n_points))
    return ExperimentSpec(
        experiment_id="tiny", title="tiny sweep",
        profile=profile, points=points)


class DummyScheme(RatelessScheme):
    """Deterministic-from-rng scheme for logic tests (no real decoding)."""

    name = "dummy"

    def __init__(self, n_bits=16, fail_every=0):
        self.n_bits = n_bits
        self.fail_every = fail_every
        self._count = 0

    def run_message(self, channel, rng):
        symbols = int(rng.integers(4, 12))
        self._count += 1
        if self.fail_every and self._count % self.fail_every == 0:
            return 0, symbols
        return self.n_bits, symbols


def dummy_factory(rng):
    from repro.channels import AWGNChannel
    return AWGNChannel(10.0, rng=rng)


class TestSpecHashing:
    def test_distinct_points_distinct_hashes(self):
        a = tiny_point(seed=1)
        b = tiny_point(seed=2)
        c = tiny_point(seed=1, x=11.0)
        assert len({point_hash(a), point_hash(b), point_hash(c)}) == 3

    def test_profile_changes_spec_hash(self):
        assert spec_hash(tiny_spec(profile="quick")) != \
            spec_hash(tiny_spec(profile="full"))

    def test_measure_point_requires_scheme_and_channel(self):
        with pytest.raises(ValueError, match="scheme and a channel"):
            PointSpec(series="s", x=1.0, seed=0)

    def test_unknown_scheme_kind(self):
        with pytest.raises(ValueError, match="unknown scheme kind"):
            make_scheme(SchemeSpec("nope"))

    def test_unknown_channel_kind_fails_at_build(self):
        with pytest.raises(ValueError, match="unknown channel kind"):
            ChannelSpec("nope")

    def test_scheme_spec_refuses_unknown_kinds_and_options_when_built(self):
        """A scheme spec takes exactly the keyword options of its kind's
        factory (for the baselines, their scheme class), and refuses any
        other key, or an unknown kind, before a point can run."""
        for kind, options in (("spinal", {"n_bits": 16, "decoder": {}}),
                              ("raptor", {"k": 256, "iterations": 5}),
                              ("strider", {"n_bits": 96, "n_layers": 2})):
            SchemeSpec(kind, options)
            for typo in ("n_bit", "decoder_params", "iteration"):
                with pytest.raises(ValueError, match=typo):
                    SchemeSpec(kind, {**options, typo: 1})
        with pytest.raises(ValueError, match="unknown scheme kind"):
            SchemeSpec("nope", {"n_bits": 16})

    def test_channel_spec_refuses_unknown_options_when_built(self):
        """A channel spec takes exactly its family's option keys."""
        ChannelSpec("rayleigh", {"coherence_time": 4})
        for kind, options in (("rayleigh", {"coherence_tme": 4}),
                              ("awgn", {"coherence_time": 4}),
                              ("bsc", {"snr_db": 4})):
            with pytest.raises(ValueError, match="does not accept options"):
                ChannelSpec(kind, options)

    def test_grid_includes_endpoint(self):
        assert grid(-5, 35, 5.0) == [-5, 0, 5, 10, 15, 20, 25, 30, 35]
        assert grid(0, 30, 10.0)[-1] == 30.0


class TestStore:
    def test_roundtrip_and_resume(self, tmp_path):
        spec = tiny_spec(n_points=3)
        store = ResultStore(str(tmp_path / "store"))
        first = run_experiment(spec, store=store, n_workers=1)
        assert first.n_computed == 3 and first.n_cached == 0

        again = run_experiment(spec, store=store, n_workers=1)
        assert again.n_computed == 0 and again.n_cached == 3
        assert again.results == first.results

    def test_partial_store_computes_only_missing(self, tmp_path):
        spec = tiny_spec(n_points=3)
        store = ResultStore(str(tmp_path / "store"))
        run_experiment(spec, store=store, n_workers=1)

        # drop one point from the store file: an "interrupted" sweep
        points = store.load(spec)
        dropped = point_hash(spec.points[1])
        del points[dropped]
        store.save(spec, points)

        resumed = run_experiment(spec, store=store, n_workers=1)
        assert resumed.n_cached == 2 and resumed.n_computed == 1
        assert dropped in resumed.results

    def test_incomplete_record_is_dropped_and_recomputed(self, tmp_path):
        """A record missing a field of its kind is not a cache hit: that
        point alone is recomputed, and the drop is counted and warned."""
        spec = tiny_spec(n_points=2)
        store = ResultStore(str(tmp_path / "store"))
        with deadline(60):
            run_experiment(spec, store=store, n_workers=1)
            with open(store.path_for(spec), "rb") as f:
                original = f.read()
            points = store.load(spec)
            edited = point_hash(spec.points[1])
            del points[edited]["total_symbols"]
            store.save(spec, points)

            with pytest.warns(StoreQuarantineWarning,
                              match="incomplete record.*total_symbols"):
                rerun = run_experiment(spec, store=store, n_workers=1)
        assert rerun.n_cached == 1 and rerun.n_computed == 1
        assert rerun.computed_hashes == (edited,)
        assert rerun.n_quarantined == 1
        with open(store.path_for(spec), "rb") as f:
            assert f.read() == original

    @pytest.mark.parametrize("field, value", [
        ("rate", "oops"), ("total_symbols", "7"), ("n_success", True),
        ("rate", None)])
    def test_mistyped_record_is_dropped_and_recomputed(self, tmp_path, field,
                                                       value):
        """A record whose field has the wrong JSON type is not a cache hit
        either: served, a string rate crashed the report and a string
        total_symbols passed silently."""
        spec = tiny_spec(n_points=2)
        store = ResultStore(str(tmp_path / "store"))
        with deadline(60):
            run_experiment(spec, store=store, n_workers=1)
            with open(store.path_for(spec), "rb") as f:
                original = f.read()
            points = store.load(spec)
            edited = point_hash(spec.points[0])
            points[edited][field] = value
            store.save(spec, points)

            with pytest.warns(StoreQuarantineWarning,
                              match=f"mistyped record.*{field} is"):
                rerun = run_experiment(spec, store=store, n_workers=1)
            rerun.rates()
        assert rerun.n_cached == 1 and rerun.n_computed == 1
        assert rerun.computed_hashes == (edited,)
        assert rerun.n_quarantined == 1
        with open(store.path_for(spec), "rb") as f:
            assert f.read() == original

    def test_discard(self, tmp_path):
        spec = tiny_spec(n_points=1)
        store = ResultStore(str(tmp_path / "store"))
        run_experiment(spec, store=store, n_workers=1)
        assert store.discard(spec) is True
        assert store.load(spec) == {}
        assert store.discard(spec) is False

    def test_no_store_runs_everything(self):
        spec = tiny_spec(n_points=2)
        run = run_experiment(spec, n_workers=1)
        assert run.n_computed == 2 and run.store_path is None

    def test_duplicate_points_rejected(self):
        point = tiny_point()
        spec = ExperimentSpec(
            experiment_id="dup", title="dup", profile="quick",
            points=(point, point))
        with pytest.raises(ValueError, match="duplicate points"):
            run_experiment(spec, n_workers=1)


class TestOrchestratorDeterminism:
    def test_worker_count_invariant_store_bytes(self, tmp_path):
        """Same spec at 1 and 4 workers -> byte-identical store files."""
        spec = tiny_spec(n_points=4)
        store_a = ResultStore(str(tmp_path / "serial"))
        store_b = ResultStore(str(tmp_path / "parallel"))
        run_experiment(spec, store=store_a, n_workers=1)
        run_experiment(spec, store=store_b, n_workers=4)
        with open(store_a.path_for(spec), "rb") as f:
            serial = f.read()
        with open(store_b.path_for(spec), "rb") as f:
            parallel = f.read()
        assert serial == parallel

    def test_run_point_matches_direct_measure(self):
        from repro.channels import AWGNChannel
        from repro.simulation.sweep import measure_scheme
        point = tiny_point(x=8.0, seed=7, n_messages=3)
        record = run_point(point)
        direct = measure_scheme(
            make_scheme(point.scheme),
            lambda rng: AWGNChannel(8.0, rng=rng),
            8.0, 3, seed=7, batch_size=3)
        assert record["rate"] == direct.rate
        assert record["total_symbols"] == direct.total_symbols
        assert record["series"] == "tiny" and record["x"] == 8.0

    def test_ldpc_envelope_point(self):
        from repro.ldpc import ldpc_envelope
        point = PointSpec(
            series="ldpc", x=10.0, seed=6, kind="ldpc_envelope",
            options={"n_blocks": 2, "iterations": 5})
        record = run_point(point)
        rate, label = ldpc_envelope(10.0, n_blocks=2, iterations=5, seed=6)
        assert record["rate"] == rate
        assert record["best_operating_point"] == label

    def test_unknown_point_kind(self):
        """An unknown kind is refused when the point is built."""
        with pytest.raises(ValueError, match="unknown point kind 'warp'"):
            PointSpec(series="s", x=1.0, seed=0, kind="warp",
                      scheme=SchemeSpec("spinal", {"n_bits": 16}),
                      channel=ChannelSpec("awgn"))


_TEST_PID = os.getpid()


def _die_in_worker():
    # never in the test process itself, whatever the pool does inline
    if os.getpid() != _TEST_PID:
        os.kill(os.getpid(), signal.SIGKILL)


def _kill_on_three(job):
    if job == 3:
        _die_in_worker()
    return job * 10


def _fail_or_sleep(job):
    """Job -1 fails at once, job 0 returns at once, any other job sleeps
    far longer than the tests' deadlines."""
    if job < 0:
        raise ValueError(f"job {job} failed")
    if job > 0:
        time.sleep(120)
    return job


class _KillerScheme(DummyScheme):
    """Dies (SIGKILL, as the OOM killer would) while ``marker`` exists."""

    def __init__(self, marker, kill):
        super().__init__()
        self.marker = marker
        self.kill = kill

    def run_message(self, channel, rng):
        if self.kill and os.path.exists(self.marker):
            _die_in_worker()
        return super().run_message(channel, rng)


class TestWorkerLoss:
    def test_imap_jobs_raises_instead_of_hanging(self):
        with deadline(60), pytest.raises(BrokenProcessPool):
            list(imap_jobs(_kill_on_three, list(range(6)), n_workers=2))

    def test_imap_jobs_keeps_job_order(self):
        assert list(imap_jobs(_kill_on_three, [0, 1, 2], n_workers=2)) == \
            [0, 10, 20]

    def test_failed_job_stops_the_running_ones(self):
        # a pool that waited for the sleeping job would hit the deadline
        start = time.monotonic()
        with deadline(30), pytest.raises(ValueError, match="job -1"):
            list(imap_jobs(_fail_or_sleep, [-1, 1], n_workers=2))
        assert time.monotonic() - start < 20

    def test_closing_early_stops_the_running_jobs(self):
        start = time.monotonic()
        with deadline(30):
            with closing(imap_jobs(_fail_or_sleep, [0, 1],
                                   n_workers=2)) as outcomes:
                assert next(outcomes) == 0
        assert time.monotonic() - start < 20

    def test_lost_point_is_named_and_the_sweep_resumes(
            self, tmp_path, monkeypatch):
        monkeypatch.setitem(spec_module._SCHEMES, "killer", _KillerScheme)
        marker = str(tmp_path / "kill-switch")
        points = tuple(
            PointSpec(
                series="killer", x=x, seed=300 + i,
                scheme=SchemeSpec("killer",
                                  {"marker": marker, "kill": x == 15.0}),
                channel=ChannelSpec("awgn"), n_messages=2)
            for i, x in enumerate((5.0, 10.0, 15.0, 20.0)))
        spec = ExperimentSpec(experiment_id="killer", title="killer",
                              profile="quick", points=points)
        store = ResultStore(str(tmp_path / "store"))
        open(marker, "w").close()
        with deadline(60), pytest.raises(BrokenProcessPool) as err:
            run_experiment(spec, store=store, n_workers=2)
        # the error names the first point whose result never came back;
        # every point before it was flushed, none after
        flushed = store.load(spec)
        hashes = [point_hash(p) for p in points]
        lost = next(i for i, h in enumerate(hashes) if h not in flushed)
        assert lost <= 2
        assert set(flushed) == set(hashes[:lost])
        message = str(err.value)
        assert hashes[lost] in message
        assert f"killer @ x={points[lost].x:g}" in message
        assert f"{lost}/4 points completed" in message

        os.remove(marker)
        with deadline(60):
            resumed = run_experiment(spec, store=store, n_workers=2)
        assert resumed.n_cached == lost
        assert resumed.n_computed == 4 - lost
        clean = run_experiment(spec, n_workers=1)
        assert resumed.results == clean.results


class TestAdaptive:
    POLICY = AdaptivePolicy(
        target_half_width=0.5, confidence=0.95,
        initial_messages=4, growth=2.0, max_messages=64)

    def test_deterministic_trial_count(self):
        runs = [
            adaptive_measure(DummyScheme(), dummy_factory, 10.0,
                             self.POLICY, seed=3)
            for _ in range(2)
        ]
        (m1, t1), (m2, t2) = runs
        assert m1 == m2
        assert t1 == t2
        assert m1.n_messages >= self.POLICY.initial_messages

    def test_stops_at_half_width(self):
        policy = AdaptivePolicy(target_half_width=0.2,
                                initial_messages=4, max_messages=512)
        _, trace = adaptive_measure(
            DummyScheme(), dummy_factory, 10.0, policy, seed=1)
        assert trace["stopped"] == "half_width"
        assert trace["final_half_width"] <= 0.2
        # every earlier cohort was still above the target
        for cohort in trace["cohorts"][:-1]:
            assert cohort["half_width"] is None or \
                cohort["half_width"] > 0.2

    def test_budget_stop(self):
        policy = AdaptivePolicy(target_half_width=1e-9,
                                initial_messages=4, max_messages=16)
        measurement, trace = adaptive_measure(
            DummyScheme(), dummy_factory, 10.0, policy, seed=1)
        assert trace["stopped"] == "budget"
        assert measurement.n_messages == 16

    def test_zero_variance_stops_immediately(self):
        class Constant(RatelessScheme):
            name = "constant"

            def run_message(self, channel, rng):
                return 16, 8

        measurement, trace = adaptive_measure(
            Constant(), dummy_factory, 10.0, self.POLICY, seed=0)
        assert measurement.n_messages == self.POLICY.initial_messages
        assert trace["stopped"] == "half_width"
        assert trace["final_half_width"] == 0.0

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            AdaptivePolicy(target_half_width=0.0)
        with pytest.raises(ValueError):
            AdaptivePolicy(target_half_width=0.1, initial_messages=1)
        with pytest.raises(ValueError):
            AdaptivePolicy(target_half_width=0.1, growth=1.0)
        with pytest.raises(ValueError):
            AdaptivePolicy(target_half_width=0.1, initial_messages=8,
                           max_messages=4)

    def test_z_score(self):
        assert z_score(0.95) == pytest.approx(1.96)
        with pytest.raises(ValueError, match="unsupported confidence"):
            z_score(0.5)

    def test_adaptive_point_through_orchestrator(self, tmp_path):
        """Adaptive points cache and replay like fixed-count points."""
        point = tiny_point(
            n_messages=1, batch_size=4,
            adaptive=AdaptivePolicy(target_half_width=0.3,
                                    initial_messages=4, max_messages=16))
        spec = ExperimentSpec(
            experiment_id="tiny_adaptive", title="t", profile="quick",
            points=(point,))
        store = ResultStore(str(tmp_path / "store"))
        first = run_experiment(spec, store=store, n_workers=1)
        again = run_experiment(spec, store=store, n_workers=1)
        assert again.n_computed == 0
        record = again.results[point_hash(point)]
        assert record == first.results[point_hash(point)]
        assert record["adaptive"]["stopped"] in ("half_width", "budget")
        assert record["n_messages"] == \
            record["adaptive"]["cohorts"][-1]["n_messages"]


class TestCatalog:
    def test_names(self):
        assert {"fig8_1", "fig8_2", "bsc", "fig8_4", "fig8_5",
                "smoke", "smoke_fading"} <= set(catalog_names())

    def test_specs_build_and_hash_stably(self):
        for name in catalog_names():
            spec = build_spec(name, "quick")
            assert spec.points, name
            assert spec_hash(spec) == spec_hash(build_spec(name, "quick"))

    def test_every_figure_entry_has_claims(self):
        """Every paper entry checks the paper's claims; only the smoke
        specs have none."""
        figures = [n for n in catalog_names() if not n.startswith("smoke")]
        assert len(figures) == 18
        for name in figures:
            assert get_entry(name).claims is not catalog_module._no_claims, \
                name

    @pytest.mark.parametrize("profile", ["quick", "full"])
    def test_claims_read_their_reports(self, profile, tmp_path, capsys):
        """Claims run on the report whatever its numbers (synthetic here,
        so some fail) and return messages, never raise."""
        for name in catalog_names():
            entry = get_entry(name)
            report = entry.report(synthetic_run(name, profile),
                                  str(tmp_path / name))
            failed = entry.claims(report)
            assert isinstance(failed, list), name
            assert all(isinstance(m, str) and m for m in failed), name

    def test_fig8_1_matches_legacy_seeding(self):
        """The migrated spec encodes the legacy bench's exact policy."""
        spec = build_spec("fig8_1", "quick")
        by_series = {}
        for p in spec.points:
            by_series.setdefault(p.series, []).append(p)
        spinal = by_series["spinal n=256"]
        assert [p.x for p in spinal] == grid(-5, 35, 5.0)
        assert [p.seed for p in spinal] == \
            [1 + 101 * i for i in range(len(spinal))]
        assert all(p.batch_size == p.n_messages == 3 for p in spinal)
        assert all(p.kind == "ldpc_envelope"
                   for p in by_series["ldpc envelope"])

    def test_fig8_4_matches_legacy_seeding(self):
        spec = build_spec("fig8_4", "quick")
        spinal_10 = [p for p in spec.points if p.series == "spinal tau=10"]
        assert [p.seed for p in spinal_10] == \
            [int(snr) + 10 for snr in grid(0, 30, 10.0)]
        assert all(p.channel.options == {"coherence_time": 10}
                   for p in spinal_10)
        # fading cohorts run the batched decode pipeline (bit-identical to
        # the scalar sweep the legacy bench ran)
        assert all(p.batch_size == p.n_messages == 2 for p in spinal_10)

    def test_fig8_5_matches_legacy_seeding(self):
        spec = build_spec("fig8_5", "quick")
        spinal_10 = [p for p in spec.points if p.series == "spinal tau=10"]
        strider_10 = [p for p in spec.points if p.series == "strider+ tau=10"]
        assert [p.seed for p in spinal_10] == \
            [int(snr) + 10 for snr in grid(10, 30, 10.0)]
        assert [p.seed for p in strider_10] == \
            [int(snr) + 10 + 7 for snr in grid(10, 30, 10.0)]
        assert all(p.scheme.options["give_csi"] == "phase"
                   for p in spinal_10 + strider_10)
        assert all(p.batch_size == p.n_messages == 2 for p in spinal_10)

    def test_fig8_2_matches_legacy_seeding(self):
        spec = build_spec("fig8_2", "quick")
        snrs = grid(0, 30, 5.0)
        rateless = [p for p in spec.points if p.series == "spinal rateless"]
        assert [p.seed for p in rateless] == \
            [100 + i for i in range(len(snrs))]
        assert all(
            "fixed_passes" not in p.scheme.options for p in rateless)
        rated_4 = [p for p in spec.points if p.series == "spinal fixed L=4"]
        assert [p.seed for p in rated_4] == \
            [200 + 17 * i + 4 for i in range(len(snrs))]
        assert all(p.scheme.options["fixed_passes"] == 4 for p in rated_4)
        assert all(
            p.scheme.options["params"] ==
            {"puncturing": "none", "tail_symbols": 2}
            for p in rated_4)

    def test_bsc_spec_uses_bsc_capacity_reference(self):
        spec = build_spec("bsc", "quick")
        assert all(p.capacity_reference == "bsc" for p in spec.points)
        assert all(p.channel.kind == "bsc" for p in spec.points)
        assert [p.seed for p in spec.points] == [500 + i for i in range(5)]

    def test_unknown_name_and_profile(self):
        with pytest.raises(ValueError, match="unknown experiment"):
            build_spec("nope")
        with pytest.raises(ValueError, match="unknown profile"):
            build_spec("smoke", "huge")


class TestCli:
    def test_list(self, capsys):
        assert cli_main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig8_1" in out and "smoke" in out

    def test_run_twice_second_is_store_hit(self, tmp_path, capsys):
        argv = ["run", "smoke",
                "--store", str(tmp_path / "store"),
                "--results-dir", str(tmp_path / "results"),
                "--workers", "1"]
        assert cli_main(argv) == 0
        first = capsys.readouterr().out
        assert "2 computed" in first

        # second run must be a full store hit — and says so
        assert cli_main(argv + ["--expect-cached"]) == 0
        second = capsys.readouterr().out
        assert "2/2 points cached, 0 computed" in second
        assert (tmp_path / "results" / "smoke.csv").exists()

    def test_expect_cached_fails_on_cold_store(self, tmp_path, capsys):
        argv = ["run", "smoke",
                "--store", str(tmp_path / "store"),
                "--results-dir", str(tmp_path / "results"),
                "--workers", "1", "--expect-cached"]
        assert cli_main(argv) == 1

    def test_fresh_discards(self, tmp_path, capsys):
        argv = ["run", "smoke",
                "--store", str(tmp_path / "store"),
                "--results-dir", str(tmp_path / "results"),
                "--workers", "1", "--no-report"]
        assert cli_main(argv) == 0
        capsys.readouterr()
        assert cli_main(argv + ["--fresh"]) == 0
        out = capsys.readouterr().out
        assert "discarded" in out and "2 computed" in out

    def test_export_requires_filled_store(self, tmp_path, capsys):
        argv = ["export", "smoke",
                "--store", str(tmp_path / "store"),
                "--results-dir", str(tmp_path / "results")]
        assert cli_main(argv) == 1
        assert cli_main(["run", "smoke",
                         "--store", str(tmp_path / "store"),
                         "--results-dir", str(tmp_path / "results"),
                         "--workers", "1", "--no-report"]) == 0
        capsys.readouterr()
        assert cli_main(argv) == 0
        assert "smoke" in capsys.readouterr().out

    def _smoke_claims(self, monkeypatch, claims):
        """Give the smoke entry ``claims`` as its paper claims."""
        entry = dataclasses.replace(catalog_module.CATALOG["smoke"],
                                    claims=claims)
        monkeypatch.setitem(catalog_module.CATALOG, "smoke", entry)

    def _dirs(self, tmp_path):
        return ["--store", str(tmp_path / "store"),
                "--results-dir", str(tmp_path / "results")]

    def test_failed_claim_fails_run_and_export(self, tmp_path, capsys,
                                               monkeypatch):
        self._smoke_claims(monkeypatch, lambda report: ["rates collapsed"])
        run = ["run", "smoke", "--workers", "1", *self._dirs(tmp_path)]
        with deadline(60):
            assert cli_main(run) == 1
            assert "[claims] FAIL smoke: rates collapsed" in \
                capsys.readouterr().err
            assert cli_main(["export", "smoke", *self._dirs(tmp_path)]) == 1
            assert "[claims] FAIL smoke: rates collapsed" in \
                capsys.readouterr().err
            # --no-report skips the claims along with the report
            assert cli_main(run + ["--no-report"]) == 0
        assert "[claims]" not in capsys.readouterr().err

    def test_passing_claims_exit_zero(self, tmp_path, capsys, monkeypatch):
        reports = []
        self._smoke_claims(monkeypatch,
                           lambda report: reports.append(report) or [])
        with deadline(60):
            assert cli_main(["run", "smoke", "--workers", "1",
                             *self._dirs(tmp_path)]) == 0
            assert cli_main(["export", "smoke", *self._dirs(tmp_path)]) == 0
        # each command checked the report it rendered
        assert [list(r) for r in reports] == [["curves"], ["curves"]]
        assert "[claims]" not in capsys.readouterr().err

    def test_show(self, tmp_path, capsys):
        assert cli_main(["show", "smoke",
                         "--store", str(tmp_path / "store")]) == 0
        out = capsys.readouterr().out
        assert "spec hash" in out and "missing" in out


class TestRunMessagesApi:
    def test_measure_scheme_is_aggregated_run_messages(self):
        from repro.simulation.sweep import measure_scheme, run_messages
        scheme = DummyScheme()
        outcomes = run_messages(scheme, dummy_factory, 5, seed=11)
        m = measure_scheme(DummyScheme(), dummy_factory, 10.0, 5, seed=11)
        assert m.total_bits == sum(b for b, _ in outcomes)
        assert m.total_symbols == sum(s for _, s in outcomes)
        assert m.n_messages == 5

    def test_cohorts_of_one_by_default(self):
        """Every scheme is driven through ``run_cohort``; without a
        ``batch_size`` each cohort holds one message."""
        from repro.simulation.sweep import run_messages

        class Sizes(DummyScheme):
            def __init__(self):
                super().__init__()
                self.sizes = []

            def run_cohort(self, channels, rngs):
                self.sizes.append(len(channels))
                return super().run_cohort(channels, rngs)

        scheme = Sizes()
        one_by_one = run_messages(scheme, dummy_factory, 4, seed=2)
        assert scheme.sizes == [1, 1, 1, 1]
        scheme = Sizes()
        assert run_messages(scheme, dummy_factory, 4, seed=2,
                            batch_size=3) == one_by_one
        assert scheme.sizes == [3, 1]

    def test_seed_prefix_property(self):
        """Growing a cohort keeps the shared-prefix outcomes identical."""
        from repro.simulation.sweep import run_messages
        short = run_messages(DummyScheme(), dummy_factory, 3, seed=5)
        long = run_messages(DummyScheme(), dummy_factory, 6, seed=5)
        assert long[:3] == short
