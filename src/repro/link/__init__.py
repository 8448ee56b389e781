"""repro.link — the spinal code as a *link protocol* (paper §5, §6, §8.4).

The rest of the package measures the code under an oracle success test;
this subsystem measures the **protocol** the paper actually describes: a
sender streaming passes of CRC-framed code blocks, a receiver attempting a
decode after every subpass and returning per-block ACK/NACK feedback, and
a configurable feedback latency in symbol times — §8.4's observation that
by the time the ACK lands "the sender will have transmitted more symbols
than necessary" becomes a first-class, counted overhead instead of a
footnote.

Layers (each module's docstring maps its mechanics to the paper):

- :mod:`~repro.link.protocol` — per-packet ARQ state machine
  (:class:`PacketTransmitter`, whose ``run`` is the one stepping loop) and
  a flow of packets sent back to back on one channel
  (:class:`LinkSession`), framed or oracle.
- :mod:`~repro.link.stats` — goodput, latency percentiles, waste and
  retransmission counters over a flow's packets (:class:`FlowStats`).

The experiment orchestrator runs one seeded :class:`LinkSession` flow per
``link`` point (:mod:`repro.experiments.orchestrator`).
"""

from repro.link.protocol import (
    LinkConfig,
    LinkSession,
    PacketResult,
    PacketTransmitter,
    payload_for,
)
from repro.link.stats import FlowStats

__all__ = [
    "LinkConfig",
    "LinkSession",
    "PacketResult",
    "PacketTransmitter",
    "payload_for",
    "FlowStats",
]
