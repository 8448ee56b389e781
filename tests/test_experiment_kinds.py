"""Tests for the PR-5 experiments surface: the ``link`` / ``symbol_cdf`` /
``papr`` point kinds, the hardened store (quarantine + spec-hash
validation), the ratio-estimator adaptive interval, and the migrated
catalog entries' legacy seed policies.

The load-bearing properties:

- a ``link`` point through the orchestrator equals a hand-built
  ``LinkSession`` flow at the same seed, and link specs keep the
  byte-identical-store-for-any-worker-count guarantee;
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
from hypothesis import given, settings, strategies as st

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
from repro.experiments.orchestrator import _RUNNERS
from repro.experiments.spec import POINT_KINDS
from repro.experiments.store import (
    RECORD_FIELDS,
    StoreQuarantineWarning,
    record_problems,
)
from repro.obs import OBS
from repro.simulation.sweep import RatelessScheme

from deadline import deadline


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


def _direct_link_flow(point):
    """The oracle a ``link`` point must equal: one seeded LinkSession flow,
    its channel built by hand rather than through the registry."""
    from repro.channels import (
        AWGNChannel,
        BSCChannel,
        RayleighBlockFadingChannel,
    )
    from repro.core.params import DecoderParams, SpinalParams
    from repro.link import FlowStats, LinkConfig, LinkSession, payload_for
    opts = point.options
    params = SpinalParams(**opts.get("params", {}))
    config = LinkConfig(**opts["config"])
    master = np.random.default_rng(point.seed)
    channel_rng = np.random.default_rng(master.integers(0, 2**63))
    payload_rng = np.random.default_rng(master.integers(0, 2**63))
    kind = point.channel.kind
    if kind == "awgn":
        channel = AWGNChannel(point.x, rng=channel_rng)
    elif kind == "rayleigh":
        channel = RayleighBlockFadingChannel(
            point.x, rng=channel_rng,
            coherence_time=point.channel.options.get("coherence_time", 10))
    else:
        channel = BSCChannel(point.x, rng=channel_rng)
    session = LinkSession(params, DecoderParams(**opts["decoder"]), channel,
                          config, flow=opts["job_id"])
    stats = FlowStats(opts["job_id"])
    for _ in range(opts["n_packets"]):
        stats.add(session.send_packet(payload_for(
            config, payload_rng, opts["payload_bytes"], k=params.k)))
    return {**stats.as_dict(), "job_id": opts["job_id"], "seed": point.seed,
            "snr_db": point.x, "channel": kind,
            "feedback_delay": config.feedback_delay}


@st.composite
def link_points(draw):
    """Small link points over every channel family and both framings."""
    kind = draw(st.sampled_from(["awgn", "rayleigh", "bsc"]))
    channel_options = {}
    config = {"framing": draw(st.booleans()),
              "feedback_delay": draw(st.sampled_from([0, 5, 16])),
              "max_block_bits": 64}
    options = {
        "job_id": draw(st.sampled_from(["flow", "j7"])),
        "n_packets": draw(st.integers(1, 2)),
        "payload_bytes": 4,
        "decoder": {"B": 8, "max_passes": 12},
        "config": config,
    }
    if kind == "bsc":
        options["params"] = {"c": 1, "mapping_name": "bsc"}
        x = draw(st.sampled_from([0.01, 0.05, 0.1]))
    else:
        x = float(draw(st.integers(5, 30)))
    if kind == "rayleigh":
        config["give_csi"] = draw(st.booleans())
        coherence_time = draw(st.none() | st.integers(1, 20))
        if coherence_time is not None:
            channel_options["coherence_time"] = coherence_time
    return PointSpec(series="link", x=x, seed=draw(st.integers(0, 2**31)),
                     kind="link", channel=ChannelSpec(kind, channel_options),
                     options=options)


#: Per kind: the fields a valid point needs, and a misspelling of one of
#: its option keys (for ``measure``, which accepts none, of ``n_messages``).
_KIND_TYPOS = {
    "measure": ("n_message", {"scheme": {"n_bits": 16}, "channel": "awgn"}),
    "ldpc_envelope": ("iteration", {}),
    "link": ("npackets", {"channel": "awgn"}),
    "symbol_cdf": ("n_bit", {"channel": "awgn"}),
    "papr": ("n_ofdm_symbol", {}),
}


def _kind_point(kind, options):
    from repro.experiments import SchemeSpec
    _, fields = _KIND_TYPOS[kind]
    return PointSpec(
        series="s", x=1.0, seed=0, kind=kind, options=options,
        scheme=(SchemeSpec("spinal", fields["scheme"])
                if "scheme" in fields else None),
        channel=ChannelSpec(fields["channel"]) if "channel" in fields
        else None)


class TestPointKindTable:
    """``PointSpec`` checks its kind, its option keys and its capacity
    reference when it is built (``spec.POINT_KINDS``)."""

    def test_every_kind_is_listed(self):
        assert set(_KIND_TYPOS) == set(POINT_KINDS)

    @pytest.mark.parametrize("kind", sorted(_KIND_TYPOS))
    def test_misspelled_option_refused_at_construction(self, kind):
        typo, _ = _KIND_TYPOS[kind]
        accepted = sorted(POINT_KINDS[kind][1])
        assert _kind_point(kind, {key: 1 for key in accepted[:1]})
        with pytest.raises(ValueError) as info:
            _kind_point(kind, {typo: 2})
        message = str(info.value)
        assert f"unknown {kind} point options ['{typo}']" in message
        assert f"accepted: {accepted}" in message

    def test_unknown_kind_refused_at_construction(self):
        with pytest.raises(ValueError, match="unknown point kind 'warp'; "
                           "expected one of .*'symbol_cdf'"):
            PointSpec(series="s", x=1.0, seed=0, kind="warp")

    def test_unknown_capacity_reference_refused_at_construction(self):
        with pytest.raises(ValueError,
                           match="unknown capacity reference 'laplace'"):
            PointSpec(series="s", x=1.0, seed=0, kind="papr",
                      capacity_reference="laplace")


class TestLinkKind:
    @settings(max_examples=30, derandomize=True, deadline=None)
    @given(point=link_points())
    def test_run_point_matches_direct_runner(self, point):
        """A link point is exactly a hand-built LinkSession flow at the
        same seed, over every channel family, framed or not."""
        with deadline(60):
            record = run_point(point)
            direct = _direct_link_flow(point)
        assert {k: v for k, v in record.items()
                if k not in ("series", "x")} == direct
        assert record["series"] == "link" and record["x"] == point.x

    def test_unknown_link_channel_kind_rejected(self):
        """An unknown family fails when the point is built, before any
        flow can run."""
        with pytest.raises(ValueError, match="unknown channel kind"):
            run_point(PointSpec(series="link", x=10.0, seed=0, kind="link",
                                channel=ChannelSpec("laser"),
                                options={"n_packets": 1}))

    def test_worker_count_invariant_store_bytes(self, tmp_path):
        """Link stores are byte-identical for any worker count."""
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
        """A misspelled knob fails when the point is built, not later in
        a worker, and never caches a default."""
        with pytest.raises(ValueError, match="unknown link point options"):
            tiny_link_point(npackets=8)  # typo for n_packets

    def test_empty_payload_link_point_refused_when_built(self):
        """``payload_bytes: 0`` once ran and stored 1 of 1 packets
        delivered in 0 symbols."""
        with pytest.raises(ValueError, match="payload_bytes >= 1"):
            tiny_link_point(payload_bytes=0)

    def test_packetless_link_point_refused_when_built(self):
        """``n_packets: 0`` once ran and stored a record of rate None."""
        with pytest.raises(ValueError, match="n_packets >= 1"):
            tiny_link_point(n_packets=0)

    def test_negative_payload_link_point_refused_when_built(self):
        """``payload_bytes: -3`` once failed inside the run, in numpy."""
        with pytest.raises(ValueError, match="payload_bytes >= 1"):
            tiny_link_point(payload_bytes=-3)

    def test_unknown_link_channel_option_rejected(self):
        """Same rule for channel knobs: a link point must not silently
        fall back to defaults, so its channel spec refuses the typo when
        it is built, before the point could run."""
        with pytest.raises(ValueError, match="does not accept options"):
            PointSpec(
                series="link", x=10.0, seed=1, kind="link",
                channel=ChannelSpec("rayleigh", {"coherence_tme": 4}),
                options={"job_id": "j", "n_packets": 1, "payload_bytes": 4,
                         "decoder": {"B": 4, "max_passes": 8}})


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

    def test_cohort_size_does_not_change_counts_on_fading(self):
        """The point runs its messages as one cohort; over block fading
        with CSI-free decoding the counts equal one-message cohorts'."""
        from repro.channels import channel_factory
        from repro.core.params import DecoderParams, SpinalParams
        from repro.simulation.sweep import SpinalScheme, run_messages
        point = PointSpec(
            series="cdf", x=15.0, seed=3, kind="symbol_cdf",
            channel=ChannelSpec("rayleigh", {"coherence_time": 50}),
            n_messages=6,
            options={"n_bits": 16, "decoder": {"B": 16, "max_passes": 8}})
        record = run_point(point)
        outcomes = run_messages(
            SpinalScheme(SpinalParams(), DecoderParams(B=16, max_passes=8),
                         16, probe_growth=1.0),
            channel_factory("rayleigh", 15.0, {"coherence_time": 50}),
            6, seed=3)
        assert record["counts"] == [s for b, s in outcomes if b > 0]
        assert 0 < record["n_success"] < 6  # both outcomes occur

    def test_symbol_cdf_without_messages_is_empty(self):
        point = PointSpec(
            series="cdf", x=12.0, seed=1, kind="symbol_cdf",
            channel=ChannelSpec("awgn"), n_messages=0,
            options={"n_bits": 16, "decoder": {"B": 4, "max_passes": 8}})
        assert run_point(point) == {"counts": [], "n_messages": 0,
                                    "n_success": 0, "series": "cdf",
                                    "x": 12.0}

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

    @pytest.mark.parametrize("kind", sorted(RECORD_FIELDS))
    def test_record_fields_are_what_the_runner_writes(self, kind):
        points = {
            "measure": tiny_measure_spec(n_points=1).points[0],
            "ldpc_envelope": PointSpec(
                series="ldpc", x=10.0, seed=6, kind="ldpc_envelope",
                options={"n_blocks": 2, "iterations": 5}),
            "link": tiny_link_point(),
            "symbol_cdf": PointSpec(
                series="cdf", x=12.0, seed=12, kind="symbol_cdf",
                channel=ChannelSpec("awgn"), n_messages=2,
                options={"n_bits": 16, "decoder": {"B": 4, "max_passes": 8}}),
            "papr": PointSpec(
                series="row", x=0.0, seed=8, kind="papr",
                options={"constellation": "qam-4", "n_ofdm_symbols": 200}),
        }
        assert set(points) == set(RECORD_FIELDS) == set(_RUNNERS) == \
            set(POINT_KINDS)
        # the JSON round trip is what load() sees
        record = json.loads(json.dumps(run_point(points[kind])))
        assert set(record) == set(RECORD_FIELDS[kind])
        assert record_problems(kind, record) == ([], [])

    @pytest.mark.parametrize("value, problem", [
        ("oops", "rate is str, not number"),
        (True, "rate is bool, not number"),
        (None, "rate is NoneType, not number"),
        ([1.0], "rate is list, not number"),
    ])
    def test_record_types_are_checked(self, value, problem):
        record = json.loads(json.dumps(
            run_point(tiny_measure_spec(n_points=1).points[0])))
        record["rate"] = value
        assert record_problems("measure", record) == ([], [problem])
        record["total_symbols"] = 7.0
        del record["label"]
        assert record_problems("measure", record) == (
            ["label"], [problem, "total_symbols is float, not int"])

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

