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

    def test_lost_feedback_ends_as_give_up_at_subpass_8(self, params,
                                                        monkeypatch):
        """With every ACK lost, the bounded send loop spends its subpasses,
        finds nothing in flight to wait for, and gives up: no hang and no
        stall path."""
        from repro.link.protocol import PacketTransmitter

        def lossy_poll(tx):
            tx._feedback.clear()

        monkeypatch.setattr(PacketTransmitter, "poll", lossy_poll)
        dec = DecoderParams(B=4, max_passes=1)
        link = LinkSession(params, dec, AWGNChannel(-10, rng=1),
                           LinkConfig(framing=False), flow="lossy")
        with deadline(20):
            packet = link.send_packet(random_message(32, 0))
        assert not packet.success
        assert packet.n_subpasses == 8
        assert packet.finish_time == packet.symbols == link.link.time


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

    @pytest.mark.parametrize("framing", [True, False])
    def test_unchanged_stores_are_not_decoded_again(self, params,
                                                    monkeypatch, framing):
        """A 1-byte datagram's 24-bit block gets no symbols in subpasses 3
        and 7; the receiver does not search its unchanged store again.
        Every search sees a larger store than the one before it."""
        from repro.core.decoder import BubbleDecoder

        seen = []
        decode = BubbleDecoder.decode

        def counting(decoder, store):
            seen.append(store.n_symbols)
            return decode(decoder, store)

        monkeypatch.setattr(BubbleDecoder, "decode", counting)
        config = LinkConfig(framing=framing)
        payload = (b"\x01" if framing
                   else np.array([0, 0, 0, 0, 0, 0, 0, 1] + [0] * 16,
                                 dtype=np.uint8))
        link = LinkSession(params, DecoderParams(B=16, max_passes=6),
                           AWGNChannel(0, rng=3), config)
        with deadline(30):
            packet = link.send_packet(payload)
        assert packet.success
        assert seen == sorted(set(seen))
        if framing:
            assert packet.n_subpasses == 25
            assert len(seen) == 19  # 25 before unchanged stores were skipped

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
        d = stats.as_dict()
        latencies = [r.latency for r in results if r.success]
        assert 0 < d["latency_p50"] <= d["latency_p90"] <= d["latency_p99"]
        for q in (50, 90, 99):
            assert d[f"latency_p{q}"] == pytest.approx(
                np.percentile(latencies, q), abs=1e-3)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            LinkConfig(feedback_delay=-1)
