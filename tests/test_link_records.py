"""Pinned bytes of the link layer's records (paper §5, §6, §8.4).

Each case runs a seeded flow and hashes every field of its
:class:`~repro.link.PacketResult` records together with
:meth:`~repro.link.FlowStats.as_dict`, key order included; the last case
hashes ``smoke_link``'s ``run_point`` records.  A refactor of
:mod:`repro.link` that keeps the protocol must keep every digest.  The
cases cover what the packet loop has to get right: feedback delays from none
to far beyond the packet, 1-3 byte datagrams (a 1-byte datagram's 24-bit
block carries no symbols in subpasses 3 and 7), give-ups that still have an ACK in
flight, an empty datagram, and Rayleigh fading with CSI on one channel shared
across packets.
"""

import dataclasses
import hashlib
import json

import numpy as np
import pytest

from repro.channels import AWGNChannel, RayleighBlockFadingChannel, SharedChannel
from repro.core.params import DecoderParams, SpinalParams
from repro.experiments import build_spec, run_point
from repro.link import FlowStats, LinkConfig, LinkSession, payload_for


def _digest(obj) -> str:
    blob = json.dumps(obj, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _flow_digest(results, flow="f") -> str:
    stats = FlowStats(flow)
    for r in results:
        stats.add(r)
    return _digest({"packets": [dataclasses.astuple(r) for r in results],
                    "stats": stats.as_dict()})


def _flow(config, payloads, snr_db=10.0, seed=0, dec=None, channel=None):
    params = SpinalParams()
    dec = dec if dec is not None else DecoderParams(B=16, max_passes=6)
    channel = channel if channel is not None else AWGNChannel(snr_db, rng=seed)
    return LinkSession(params, dec, channel, config, flow="f").run(payloads)


def _payloads(config, n, payload_bytes, seed):
    rng = np.random.default_rng(seed)
    return [payload_for(config, rng, payload_bytes) for _ in range(n)]


_DELAY_PINS = {
    (False, 0): "270b646254fe4f25",
    (False, 7): "d861a00c607b14b2",
    (False, 300): "51ca32c3149a7f27",
    (False, 10_000): "731663bbd4e40592",
    (True, 0): "38efab7258fdb5c3",
    (True, 7): "e2839179393e5f81",
    (True, 300): "5a4e9e38759e6a26",
    (True, 10_000): "906b70220a025483",
}


@pytest.mark.parametrize("framing,delay", sorted(_DELAY_PINS))
def test_flows_across_feedback_delays(framing, delay):
    config = LinkConfig(framing=framing, max_block_bits=32,
                        feedback_delay=delay)
    results = _flow(config, _payloads(config, 3, 6, seed=delay),
                    snr_db=8.0, seed=delay)
    assert _flow_digest(results) == _DELAY_PINS[(framing, delay)]


_TINY_PINS = {0: "bec169a37b1f99f2", 5: "832c1c2c7168fa1a"}


@pytest.mark.parametrize("delay", sorted(_TINY_PINS))
def test_one_to_three_byte_datagrams(delay):
    """24- to 40-bit blocks; the 24-bit ones send nothing in subpasses 3, 7."""
    config = LinkConfig(feedback_delay=delay)
    payloads = [b"\x01", b"\x02\x03", b"\x04\x05\x06", b"\xff"]
    results = _flow(config, payloads, snr_db=6.0, seed=3)
    assert _flow_digest(results) == _TINY_PINS[delay]


_GIVE_UP_PINS = {
    "oracle": "8265d38eacf3a3c8",
    "framed": "90fb146960541746",
    "partial": "e995c73547bde283",
}


@pytest.mark.parametrize("case", sorted(_GIVE_UP_PINS))
def test_give_ups_with_feedback_in_flight(case):
    """The sender runs out of subpasses while a NACK is still in flight."""
    dec = DecoderParams(B=4, max_passes=1)
    if case == "oracle":
        config = LinkConfig(framing=False, feedback_delay=40)
        results = _flow(config, _payloads(config, 2, 4, seed=1),
                        snr_db=-5.0, seed=1, dec=dec)
    elif case == "framed":
        config = LinkConfig(max_block_bits=64, feedback_delay=300)
        results = _flow(config, _payloads(config, 2, 12, seed=2),
                        snr_db=-5.0, seed=2, dec=dec)
    else:
        # Some blocks decode, the rest run out: a partial ACK bitmap.
        config = LinkConfig(max_block_bits=32, feedback_delay=25)
        results = _flow(config, _payloads(config, 2, 16, seed=4),
                        snr_db=4.0, seed=4,
                        dec=DecoderParams(B=4, max_passes=2))
    assert not all(r.success for r in results)
    assert _flow_digest(results) == _GIVE_UP_PINS[case]


def test_empty_datagram():
    config = LinkConfig(feedback_delay=7)
    results = _flow(config, [b"", b"\x00" * 5, b""], seed=5)
    assert _flow_digest(results) == "2dbdbf965d67d97c"


_RAYLEIGH_PINS = {
    (False, True): "c5e6a6c4866b8d7f",
    (True, True): "53980bde1588a0e8",
    (True, "phase"): "61c7bb5d7ef1bc28",
}


@pytest.mark.parametrize("framing,csi", list(_RAYLEIGH_PINS))
def test_rayleigh_with_csi_on_one_shared_channel(framing, csi):
    """Packets follow one another on one fading channel's clock."""
    channel = SharedChannel(
        RayleighBlockFadingChannel(14.0, coherence_time=10, rng=6))
    config = LinkConfig(framing=framing, max_block_bits=64, give_csi=csi,
                        feedback_delay=3)
    results = _flow(config, _payloads(config, 3, 5, seed=6), channel=channel)
    assert channel.symbols_sent == sum(r.symbols for r in results)
    assert _flow_digest(results) == _RAYLEIGH_PINS[(framing, csi)]


def test_smoke_link_run_point_records():
    records = [run_point(p) for p in build_spec("smoke_link", "quick").points]
    assert _digest(records) == "18ce779b9aa13fba"
