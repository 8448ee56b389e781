"""Tests for the PR-5 experiments surface: the ``link`` / ``symbol_cdf`` /
``papr`` point kinds, the hardened store (quarantine + spec-hash
validation), the ratio-estimator adaptive interval, and the migrated
catalog entries' legacy seed policies.

The load-bearing properties:

- a ``link`` point through the orchestrator equals a direct
  ``repro.link.runner`` invocation at the same seed, and link specs keep
  the byte-identical-store-for-any-worker-count guarantee;
- a corrupt or mismatched store file is quarantined (renamed ``.bad``)
  instead of wedging ``run``/``resume`` with ``JSONDecodeError``;
- the ``"ratio"`` adaptive interval is opt-in: the default policy's
  content hash (and therefore every existing spec hash) is unchanged;
- every migrated spec encodes its legacy bench's exact seeding policy.
"""

import json
import math
import os
import shutil
import warnings

import numpy as np
import pytest

from repro.experiments import (
    AdaptivePolicy,
    ChannelSpec,
    ExperimentSpec,
    PointSpec,
    ResultStore,
    adaptive_measure,
    build_spec,
    catalog_names,
    point_hash,
    ratio_half_width,
    run_experiment,
    run_point,
    spec_hash,
    z_score,
)
from repro.experiments.store import StoreQuarantineWarning
from repro.obs import OBS
from repro.simulation.sweep import RatelessScheme


def tiny_link_point(x=10.0, seed=77, series="link", **option_overrides):
    options = {
        "job_id": f"job_snr{x:g}",
        "n_packets": 1,
        "payload_bytes": 4,
        "decoder": {"B": 4, "max_passes": 8},
        "config": {"max_block_bits": 64},
    }
    options.update(option_overrides)
    return PointSpec(series=series, x=x, seed=seed, kind="link",
                     channel=ChannelSpec("awgn"), options=options)


def tiny_measure_spec(n_points=3):
    from repro.experiments import SchemeSpec
    points = tuple(
        PointSpec(
            series="tiny", x=5.0 + 5.0 * i, seed=100 + i,
            scheme=SchemeSpec("spinal", {
                "n_bits": 16, "decoder": {"B": 4, "max_passes": 8}}),
            channel=ChannelSpec("awgn"), n_messages=2, batch_size=2,
        )
        for i in range(n_points)
    )
    return ExperimentSpec(experiment_id="tiny", title="tiny",
                          profile="quick", points=points)


class TestLinkKind:
    def test_run_point_matches_direct_runner(self):
        """A link point is exactly a hand-built LinkJob at the same seed."""
        from repro.core.params import DecoderParams, SpinalParams
        from repro.link import LinkConfig, LinkJob, run_job
        point = tiny_link_point(x=12.0, seed=91)
        record = run_point(point)
        direct = run_job(LinkJob(
            job_id="job_snr12", seed=91, snr_db=12.0,
            n_packets=1, payload_bytes=4,
            params=SpinalParams(),
            decoder_params=DecoderParams(B=4, max_passes=8),
            config=LinkConfig(max_block_bits=64),
        ))
        assert {k: v for k, v in record.items()
                if k not in ("series", "x")} == direct
        assert record["series"] == "link" and record["x"] == 12.0

    def test_rayleigh_link_point_honours_coherence_time(self):
        from repro.link import LinkJob, run_job
        from repro.core.params import DecoderParams
        point = PointSpec(
            series="link", x=15.0, seed=5, kind="link",
            channel=ChannelSpec("rayleigh", {"coherence_time": 4}),
            options={"job_id": "ray", "n_packets": 1, "payload_bytes": 4,
                     "decoder": {"B": 4, "max_passes": 8},
                     "config": {"max_block_bits": 64}})
        record = run_point(point)
        direct = run_job(LinkJob(
            job_id="ray", seed=5, snr_db=15.0, n_packets=1, payload_bytes=4,
            decoder_params=DecoderParams(B=4, max_passes=8),
            config=point_config(), channel="rayleigh", coherence_time=4))
        assert record["goodput"] == direct["goodput"]
        assert record["symbols"] == direct["symbols"]

    def test_worker_count_invariant_store_bytes(self, tmp_path):
        """The link-runner guarantee survives the orchestrator detour."""
        points = tuple(tiny_link_point(x=5.0 + 5.0 * i, seed=60 + i,
                                       job_id=f"j{i}")
                       for i in range(4))
        spec = ExperimentSpec(experiment_id="links", title="links",
                              profile="quick", points=points)
        store_a = ResultStore(str(tmp_path / "serial"))
        store_b = ResultStore(str(tmp_path / "parallel"))
        run_experiment(spec, store=store_a, n_workers=1)
        run_experiment(spec, store=store_b, n_workers=4)
        with open(store_a.path_for(spec), "rb") as f:
            serial = f.read()
        with open(store_b.path_for(spec), "rb") as f:
            parallel = f.read()
        assert serial == parallel

    def test_link_point_requires_channel(self):
        with pytest.raises(ValueError, match="need a channel"):
            PointSpec(series="s", x=1.0, seed=0, kind="link")

    def test_unknown_link_option_rejected(self):
        """A misspelled knob must fail loudly, not cache a default."""
        point = tiny_link_point(npackets=8)  # typo for n_packets
        with pytest.raises(ValueError, match="unknown link job options"):
            run_point(point)

    def test_unknown_link_channel_option_rejected(self):
        """Same rule for channel knobs (measure points raise via the
        registry; link points must not silently fall back to defaults)."""
        point = PointSpec(
            series="link", x=10.0, seed=1, kind="link",
            channel=ChannelSpec("rayleigh", {"coherence_tme": 4}),  # typo
            options={"job_id": "j", "n_packets": 1, "payload_bytes": 4,
                     "decoder": {"B": 4, "max_passes": 8}})
        with pytest.raises(ValueError, match="does not accept options"):
            run_point(point)


def point_config():
    from repro.link import LinkConfig
    return LinkConfig(max_block_bits=64)


class TestSymbolCdfKind:
    def test_matches_legacy_per_message_loop(self):
        """The kind reproduces the legacy fig8_11 RNG stream exactly."""
        from repro.channels import AWGNChannel
        from repro.core.params import DecoderParams, SpinalParams
        from repro.simulation import SpinalSession
        from repro.utils.bitops import random_message
        point = PointSpec(
            series="cdf", x=12.0, seed=12, kind="symbol_cdf",
            channel=ChannelSpec("awgn"), n_messages=3,
            options={"n_bits": 16, "decoder": {"B": 4, "max_passes": 8},
                     "probe_growth": 1.0})
        record = run_point(point)
        master = np.random.default_rng(12)
        expected = []
        for _ in range(3):
            rng = np.random.default_rng(master.integers(0, 2**63))
            msg = random_message(16, rng)
            session = SpinalSession(
                SpinalParams(), DecoderParams(B=4, max_passes=8), msg,
                AWGNChannel(12.0, rng=rng), probe_growth=1.0)
            result = session.run()
            if result.success:
                expected.append(int(result.n_symbols))
        assert record["counts"] == expected
        assert record["n_messages"] == 3
        assert record["n_success"] == len(expected)

    def test_symbol_cdf_requires_channel(self):
        with pytest.raises(ValueError, match="need a channel"):
            PointSpec(series="s", x=1.0, seed=0, kind="symbol_cdf",
                      options={"n_bits": 16})


class TestPaprKind:
    def test_matches_direct_papr_experiment(self):
        from repro.ofdm import papr_experiment
        point = PointSpec(
            series="row", x=0.0, seed=8, kind="papr",
            options={"constellation": "qam-4", "n_ofdm_symbols": 200})
        record = run_point(point)
        mean_db, tail_db = papr_experiment("qam-4", n_ofdm_symbols=200,
                                           seed=8)
        assert record["mean_papr_db"] == mean_db
        assert record["p9999_papr_db"] == tail_db


class TestStoreHardening:
    def test_corrupt_store_is_quarantined_and_recomputed(self, tmp_path):
        """A truncated store file must not wedge run/resume."""
        spec = tiny_measure_spec()
        store = ResultStore(str(tmp_path / "store"))
        first = run_experiment(spec, store=store, n_workers=1)
        path = store.path_for(spec)
        with open(path, "w") as f:
            f.write('{"spec_hash": "abc", "points": {"tru')  # killed mid-write
        with pytest.warns(StoreQuarantineWarning, match="corrupt"):
            assert store.load(spec) == {}
        assert not os.path.exists(path)
        assert os.path.exists(path + ".bad")
        # and the sweep recovers end-to-end: a fresh run recomputes all
        again = run_experiment(spec, store=store, n_workers=1)
        assert again.n_computed == len(spec.points)
        assert again.results == first.results

    def test_spec_hash_mismatch_is_rejected(self, tmp_path):
        """A hand-copied or stale store file must not serve points."""
        spec_a = tiny_measure_spec(n_points=2)
        spec_b = tiny_measure_spec(n_points=3)
        store = ResultStore(str(tmp_path / "store"))
        run_experiment(spec_a, store=store, n_workers=1)
        # "hand-copy" A's store file onto B's address
        shutil.copyfile(store.path_for(spec_a), store.path_for(spec_b))
        with pytest.warns(StoreQuarantineWarning, match="spec_hash"):
            assert store.load(spec_b) == {}
        assert os.path.exists(store.path_for(spec_b) + ".bad")
        # A's own (untouched) file still loads
        assert len(store.load(spec_a)) == 2

    def test_non_record_json_is_quarantined(self, tmp_path):
        spec = tiny_measure_spec(n_points=1)
        store = ResultStore(str(tmp_path / "store"))
        run_experiment(spec, store=store, n_workers=1)
        path = store.path_for(spec)
        with open(path, "w") as f:
            json.dump(["not", "a", "store"], f)
        with pytest.warns(StoreQuarantineWarning):
            assert store.load(spec) == {}

    @pytest.mark.parametrize("points", [
        5, "abc", ["h"], {"h": 3}, {"h": ["rate", 1.0]}])
    def test_malformed_points_are_quarantined(self, tmp_path, points):
        """A right-address file whose points map is not hash -> record
        dict is quarantined at load, not trusted until reports crash."""
        spec = tiny_measure_spec(n_points=1)
        store = ResultStore(str(tmp_path / "store"))
        run_experiment(spec, store=store, n_workers=1)
        path = store.path_for(spec)
        with open(path) as f:
            payload = json.load(f)
        payload["points"] = points
        with open(path, "w") as f:
            json.dump(payload, f)
        OBS.enable()
        try:
            with pytest.warns(StoreQuarantineWarning, match="malformed"):
                run = run_experiment(spec, store=store, n_workers=1)
            assert OBS.snapshot()["counters"]["store.quarantine"] == 1
        finally:
            OBS.disable()
            OBS.reset()
        assert os.path.exists(path + ".bad")
        assert run.n_quarantined == 1
        assert run.n_computed == 1
        assert isinstance(run.rates()["tiny"][5.0], float)

    def test_healthy_store_loads_without_warning(self, tmp_path):
        spec = tiny_measure_spec(n_points=1)
        store = ResultStore(str(tmp_path / "store"))
        run_experiment(spec, store=store, n_workers=1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            points = store.load(spec)
        assert len(points) == 1


class _PairScheme(RatelessScheme):
    """Deterministic (bits, symbols) pairs for interval math tests."""

    name = "pairs"

    def run_message(self, channel, rng):
        symbols = int(rng.integers(4, 12))
        bits = 16 if symbols < 10 else 0  # failures correlate with symbols
        return bits, symbols


def _awgn_factory(rng):
    from repro.channels import AWGNChannel
    return AWGNChannel(10.0, rng=rng)


class TestRatioInterval:
    def test_ratio_half_width_matches_hand_computation(self):
        outcomes = [(16, 8), (16, 10), (0, 12), (16, 9)]
        z = z_score(0.95)
        bits = np.array([b for b, _ in outcomes], dtype=float)
        symbols = np.array([s for _, s in outcomes], dtype=float)
        ratio = bits.sum() / symbols.sum()
        cov = np.cov(bits, symbols, ddof=1)
        var = (cov[0, 0] - 2 * ratio * cov[0, 1]
               + ratio**2 * cov[1, 1]) / (4 * symbols.mean()**2)
        assert ratio_half_width(outcomes, z) == pytest.approx(
            z * math.sqrt(var))

    def test_ratio_half_width_edge_cases(self):
        z = z_score(0.95)
        assert ratio_half_width([(16, 8)], z) == math.inf
        # constant outcomes: zero variance
        assert ratio_half_width([(16, 8), (16, 8), (16, 8)], z) == 0.0

    def test_interval_validation_and_hash_stability(self):
        with pytest.raises(ValueError, match="unknown interval"):
            AdaptivePolicy(target_half_width=0.1, interval="median")
        default = AdaptivePolicy(target_half_width=0.1)
        ratio = AdaptivePolicy(target_half_width=0.1, interval="ratio")
        # the default policy's dict has no interval key: content hashes of
        # every spec written before the knob existed are unchanged
        assert "interval" not in default.as_dict()
        assert ratio.as_dict()["interval"] == "ratio"
        assert AdaptivePolicy.from_dict(ratio.as_dict()) == ratio
        assert AdaptivePolicy.from_dict(default.as_dict()) == default

    def test_ratio_mode_changes_point_hash_but_default_does_not(self):
        from repro.experiments import SchemeSpec
        base = dict(
            series="s", x=10.0, seed=3,
            scheme=SchemeSpec("spinal", {
                "n_bits": 16, "decoder": {"B": 4, "max_passes": 8}}),
            channel=ChannelSpec("awgn"), batch_size=4)
        mean_pt = PointSpec(
            **base, adaptive=AdaptivePolicy(target_half_width=0.3))
        ratio_pt = PointSpec(
            **base,
            adaptive=AdaptivePolicy(target_half_width=0.3, interval="ratio"))
        assert point_hash(mean_pt) != point_hash(ratio_pt)

    def test_adaptive_measure_ratio_deterministic_stop(self):
        policy = AdaptivePolicy(target_half_width=0.25, initial_messages=4,
                                max_messages=64, interval="ratio")
        runs = [adaptive_measure(_PairScheme(), _awgn_factory, 10.0,
                                 policy, seed=9) for _ in range(2)]
        (m1, t1), (m2, t2) = runs
        assert m1 == m2 and t1 == t2
        assert t1["policy"]["interval"] == "ratio"
        assert t1["stopped"] in ("half_width", "budget")
        if t1["stopped"] == "half_width":
            assert t1["final_half_width"] <= 0.25

    def test_mean_and_ratio_modes_differ(self):
        mean_policy = AdaptivePolicy(target_half_width=0.15,
                                     initial_messages=4, max_messages=256)
        ratio_policy = AdaptivePolicy(target_half_width=0.15,
                                      initial_messages=4, max_messages=256,
                                      interval="ratio")
        _, t_mean = adaptive_measure(_PairScheme(), _awgn_factory, 10.0,
                                     mean_policy, seed=4)
        _, t_ratio = adaptive_measure(_PairScheme(), _awgn_factory, 10.0,
                                      ratio_policy, seed=4)
        # same seed stream, different stopping statistic
        assert (t_mean["final_half_width"] != t_ratio["final_half_width"]
                or len(t_mean["cohorts"]) != len(t_ratio["cohorts"]))


class TestMigratedCatalog:
    def test_all_roadmap_benches_are_registered(self):
        expected = {"fig8_3", "fig8_6", "fig8_7", "fig8_8", "fig8_9",
                    "fig8_10", "fig8_11", "fig8_12", "figB_2", "table8_1",
                    "ablation_constellation", "ablation_hash",
                    "link_goodput", "smoke_link"}
        assert expected <= set(catalog_names())

    def test_fig8_3_matches_legacy_seeding(self):
        spec = build_spec("fig8_3", "quick")
        by_series = {}
        for p in spec.points:
            by_series.setdefault(p.series, []).append(p)
        # per-code seed bases n, n+1, n+2, n+3 with + 31 * i per grid index
        for n in (1024, 2048, 3072):
            assert [p.seed for p in by_series[f"spinal n={n}"]] == \
                [n + 31 * i for i in range(3)]
            assert [p.seed for p in by_series[f"raptor n={n}"]] == \
                [n + 1 + 31 * i for i in range(3)]
            assert [p.seed for p in by_series[f"strider+ n={n}"]] == \
                [n + 3 + 31 * i for i in range(3)]

    def test_fig8_10_seeds_are_frozen_constants(self):
        """hash()-free: the randomized legacy seeding is pinned down."""
        spec = build_spec("fig8_10", "quick")
        seeds = {p.series.split(" ")[0]: []
                 for p in spec.points}
        for p in spec.points:
            seeds[p.series.split(" ")[0]].append(p.seed - int(p.x))
        assert set(seeds["none"]) == {972}
        assert set(seeds["2-way"]) == {126}
        assert set(seeds["4-way"]) == {699}
        assert set(seeds["8-way"]) == {333}

    def test_fig8_11_is_distributional(self):
        spec = build_spec("fig8_11", "quick")
        assert all(p.kind == "symbol_cdf" for p in spec.points)
        assert [p.seed for p in spec.points] == [6, 10, 14, 18, 22, 26]
        assert all(p.options["probe_growth"] == 1.0 for p in spec.points)

    def test_table8_1_rows(self):
        spec = build_spec("table8_1", "quick")
        assert all(p.kind == "papr" and p.seed == 8 for p in spec.points)
        assert [p.options["constellation"] for p in spec.points] == \
            ["qam-4", "qam-64", "qam-2^20", "gaussian"]

    def test_link_goodput_shares_seeds_across_protocol_variants(self):
        spec = build_spec("link_goodput", "quick")
        link_series = {}
        for p in spec.points:
            if p.kind == "link":
                link_series.setdefault(p.series, []).append(p.seed)
        assert len(link_series) == 3
        seeds = list(link_series.values())
        # the three protocol variants share per-point seeds (the
        # comparison isolates protocol overhead, not sampling noise)
        assert seeds[0] == seeds[1] == seeds[2]
        assert seeds[0] == [500 + 17 * i for i in range(len(seeds[0]))]
        ref = [p for p in spec.points if p.kind == "measure"]
        assert [p.seed for p in ref] == [300 + i for i in range(len(ref))]

    def test_adaptive_profile_is_derived_from_full(self):
        quick = build_spec("fig8_9", "quick")
        full = build_spec("fig8_9", "full")
        adaptive = build_spec("fig8_9", "adaptive")
        assert adaptive.profile == "adaptive"
        assert len(adaptive.points) == len(full.points)
        assert len({spec_hash(quick), spec_hash(full),
                    spec_hash(adaptive)}) == 3
        for p in adaptive.points:
            assert p.adaptive is not None
            assert p.adaptive.interval == "ratio"

    def test_adaptive_profile_keeps_non_measure_kinds_fixed(self):
        spec = build_spec("link_goodput", "adaptive")
        for p in spec.points:
            if p.kind == "link":
                assert p.adaptive is None
            else:
                assert p.adaptive is not None

