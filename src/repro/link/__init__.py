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
  (:class:`LinkSession`, :class:`PacketTransmitter`), framed or oracle.
- :mod:`~repro.link.scheduler` — N flows sharing one fading medium under
  round-robin or priority service (:class:`LinkScheduler`, :class:`Flow`).
- :mod:`~repro.link.stats` — goodput, latency percentiles, waste and
  retransmission counters (:class:`FlowStats`, :class:`LinkReport`).
- :mod:`~repro.link.runner` — self-seeded jobs the experiment
  orchestrator runs as ``link`` points (:class:`LinkJob`, :func:`run_job`).
"""

from repro.link.protocol import (
    LinkConfig,
    LinkSession,
    PacketResult,
    PacketTransmitter,
    payload_for,
)
from repro.link.runner import (
    LinkJob,
    job_from_options,
    run_job,
)
from repro.link.scheduler import Flow, LinkScheduler
from repro.link.stats import FlowStats, LinkReport

__all__ = [
    "LinkConfig",
    "LinkSession",
    "PacketResult",
    "PacketTransmitter",
    "payload_for",
    "Flow",
    "LinkScheduler",
    "FlowStats",
    "LinkReport",
    "LinkJob",
    "job_from_options",
    "run_job",
]
