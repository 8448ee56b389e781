"""Tests for the packet-level link layer (§5, §6, §8.4)."""

import numpy as np
import pytest

from repro.channels import AWGNChannel, RayleighBlockFadingChannel, SharedChannel
from repro.core.params import DecoderParams, SpinalParams
from repro.link import LinkConfig, LinkSession, payload_for
from repro.simulation import SpinalSession
from repro.utils.bitops import random_message

from deadline import deadline


@pytest.fixture
def params():
    return SpinalParams()


@pytest.fixture
def dec():
    return DecoderParams(B=32, max_passes=16)


class TestLinkSessionOracle:
    def test_matches_spinal_session(self, params, dec):
        """Zero feedback delay + no framing == the oracle engine, exactly:
        same minimal subpass count and same symbol count per packet."""
        cfg = LinkConfig(framing=False, feedback_delay=0)
        for seed in range(4):
            msg = random_message(96, seed)
            engine = SpinalSession(params, dec, msg,
                                   AWGNChannel(12, rng=seed)).run()
            link = LinkSession(params, dec, AWGNChannel(12, rng=seed), cfg)
            packet = link.send_packet(msg)
            assert engine.success and packet.success
            assert packet.n_subpasses == engine.n_subpasses
            assert packet.symbols == engine.n_symbols
            assert packet.wasted_symbols == 0
            assert packet.goodput == pytest.approx(engine.rate)

    def test_feedback_delay_charges_waste(self, params, dec):
        """§8.4: symbols sent while the ACK is in flight are pure waste."""
        msg = random_message(96, 0)
        base = LinkSession(params, dec, AWGNChannel(12, rng=0),
                           LinkConfig(framing=False)).send_packet(msg)
        delayed = LinkSession(params, dec, AWGNChannel(12, rng=0),
                              LinkConfig(framing=False, feedback_delay=50)
                              ).send_packet(msg)
        assert delayed.success
        assert delayed.wasted_symbols > 0
        assert delayed.symbols == base.symbols + delayed.wasted_symbols
        assert delayed.latency > base.latency
        assert delayed.goodput < base.goodput

    def test_give_up_packet(self, params):
        """A hopeless channel burns max_passes of symbols, delivers zero."""
        dec = DecoderParams(B=4, max_passes=2)
        link = LinkSession(params, dec, AWGNChannel(-15, rng=1),
                           LinkConfig(framing=False))
        packet = link.send_packet(random_message(128, 1))
        assert not packet.success
        assert packet.goodput == 0.0
        assert packet.n_subpasses == 2 * 8

    def test_delayed_ack_beats_give_up(self, params, dec):
        """An ACK still in flight when the sender runs out of subpasses
        must land (success), not be dropped as a give-up."""
        msg = random_message(96, 2)
        probe = LinkSession(params, dec, AWGNChannel(12, rng=2),
                            LinkConfig(framing=False)).send_packet(msg)
        tight = DecoderParams(B=32, max_passes=-(-probe.n_subpasses // 8))
        link = LinkSession(params, tight, AWGNChannel(12, rng=2),
                           LinkConfig(framing=False, feedback_delay=10_000))
        packet = link.send_packet(msg)
        assert packet.success
        assert packet.latency >= 10_000

    def test_stuck_transmitter_raises_instead_of_spinning(self, params,
                                                         monkeypatch):
        """A transmitter that neither sends, waits for feedback, nor gives
        up must stop the session with a diagnosis, not hang it."""
        from repro.link.protocol import PacketTransmitter

        def lossy_poll(tx):
            # Feedback is lost and the give-up check never runs.
            tx._feedback.clear()

        monkeypatch.setattr(PacketTransmitter, "poll", lossy_poll)
        dec = DecoderParams(B=4, max_passes=1)
        link = LinkSession(params, dec, AWGNChannel(-10, rng=1),
                           LinkConfig(framing=False), flow="stuck")
        with deadline(20), pytest.raises(RuntimeError) as err:
            link.send_packet(random_message(32, 0))
        message = str(err.value)
        assert "stuck seq 0" in message
        assert "subpass 8 of 8" in message
        assert "sender ACKs [False]" in message


class TestLinkSessionFramed:
    def test_roundtrip_and_overhead(self, params, dec):
        """Framed delivery succeeds and pays real CRC+padding overhead."""
        link = LinkSession(params, dec, AWGNChannel(18, rng=3),
                           LinkConfig(max_block_bits=256))
        packet = link.send_packet(bytes(range(40)))
        assert packet.success
        assert packet.n_blocks == 2          # 320 payload bits, 240 per block
        assert packet.coded_bits > packet.payload_bits
        assert packet.payload_bits == 320

    def test_empty_datagram_is_trivially_delivered(self, params, dec):
        link = LinkSession(params, dec, AWGNChannel(10, rng=0))
        packet = link.send_packet(b"")
        assert packet.success
        assert packet.symbols == 0 and packet.n_blocks == 0
        assert packet.latency == 0

    def test_sequential_packets_share_channel(self, params, dec):
        """Packets run back-to-back on one stateful medium."""
        channel = SharedChannel(
            RayleighBlockFadingChannel(20, coherence_time=10, rng=4))
        link = LinkSession(params, dec, channel,
                           LinkConfig(max_block_bits=256, give_csi=True))
        results = link.run([bytes(range(24)), bytes(range(24))])
        assert [r.seq for r in results] == [0, 1]
        assert channel.symbols_sent == sum(r.symbols for r in results)
        assert results[1].start_time >= results[0].finish_time


class TestStatsAndHelpers:
    def test_payload_for_types(self):
        rng = np.random.default_rng(0)
        framed = payload_for(LinkConfig(), rng, 10)
        assert isinstance(framed, bytes) and len(framed) == 10
        bits = payload_for(LinkConfig(framing=False), rng, 10, k=3)
        assert bits.dtype == np.uint8 and bits.size % 3 == 0

    def test_latency_percentiles(self, params, dec):
        link = LinkSession(params, dec, AWGNChannel(18, rng=10),
                           LinkConfig(max_block_bits=256))
        results = link.run([bytes(range(12))] * 4)
        from repro.link import FlowStats
        stats = FlowStats("f")
        for r in results:
            stats.add(r)
        p50 = stats.latency_percentile(50)
        p99 = stats.latency_percentile(99)
        assert 0 < p50 <= p99
        d = stats.as_dict()
        assert d["latency_p50"] == pytest.approx(p50, abs=1e-3)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            LinkConfig(feedback_delay=-1)
