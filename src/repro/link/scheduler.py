"""Multi-flow scheduling over one shared rateless link (paper §5, §8.4).

The paper evaluates one message at a time, but its motivating scenarios —
VoIP beside bulk transfer on a fading wireless hop — put several flows on
one medium.  This scheduler interleaves the per-packet ARQ machines of
:mod:`repro.link.protocol` on a single :class:`~repro.channels.shared.
SharedChannel` clock, one subpass per scheduling turn:

- **round_robin** cycles fairly over flows that have something to send;
- **priority** always serves the highest-priority sendable flow (ties
  broken round-robin), starving bulk traffic while latency-critical
  packets are in flight — the classic small-packet/VoIP treatment.

A flow whose sender is out of subpasses but whose ACK is still in flight
occupies no channel time; when *no* flow can transmit, the clock jumps to
the earliest pending feedback arrival (the medium idles, §5's sender
"awaiting the acknowledgment").  Because every transmitted symbol advances
the one shared clock, per-flow symbol counts sum exactly to the channel
total — the conservation law :meth:`~repro.link.stats.LinkReport.
conservation_ok` checks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.channels.base import Channel
from repro.channels.shared import SharedChannel
from repro.core.params import DecoderParams, SpinalParams
from repro.link.protocol import LinkConfig, PacketTransmitter
from repro.link.stats import FlowStats, LinkReport

__all__ = ["Flow", "LinkScheduler"]


@dataclass
class Flow:
    """One traffic source: a backlog of payloads plus its code/link config.

    ``priority`` only matters under the ``priority`` policy; larger wins.
    """

    name: str
    params: SpinalParams
    decoder_params: DecoderParams
    payloads: Sequence
    config: LinkConfig = field(default_factory=LinkConfig)
    priority: int = 0


class _FlowState:
    """Scheduler-internal progress of one flow."""

    def __init__(self, flow: Flow, link: SharedChannel):
        self.flow = flow
        self.link = link
        self.stats = FlowStats(flow.name)
        self._queue = list(flow.payloads)
        self._next_index = 0
        self.tx: PacketTransmitter | None = None
        self._start_next()

    def _start_next(self) -> None:
        if self._next_index < len(self._queue):
            self.tx = PacketTransmitter(
                self.flow.params, self.flow.decoder_params, self.link,
                self._queue[self._next_index], self.flow.config,
                seq=self._next_index, flow=self.flow.name,
            )
            self._next_index += 1
        else:
            self.tx = None

    @property
    def finished(self) -> bool:
        return self.tx is None

    def poll(self) -> None:
        """Harvest completed packets; begin the next one immediately."""
        while self.tx is not None:
            self.tx.poll()
            if self.tx.result is None:
                return
            self.stats.add(self.tx.result)
            self._start_next()

    def close(self) -> None:
        """Abort the in-flight packet and drop the rest of the backlog."""
        if self.tx is not None:
            self.stats.add(self.tx.abort())
            self.tx = None
        self._next_index = len(self._queue)

    @property
    def can_send(self) -> bool:
        return self.tx is not None and self.tx.can_send

    def next_event_time(self) -> int | None:
        if self.tx is None:
            return None
        return self.tx.next_event_time()

    def step(self) -> int:
        assert self.tx is not None
        return self.tx.step()


class LinkScheduler:
    """Drive N flows' packets through one channel to completion."""

    POLICIES = ("round_robin", "priority")

    def __init__(
        self,
        channel: Channel,
        flows: Sequence[Flow],
        policy: str = "round_robin",
    ):
        if policy not in self.POLICIES:
            raise ValueError(f"unknown policy {policy!r}; use one of "
                             f"{self.POLICIES}")
        if not flows:
            raise ValueError("need at least one flow")
        names = [f.name for f in flows]
        if len(set(names)) != len(names):
            raise ValueError("flow names must be unique")
        self.policy = policy
        self.link = (channel if isinstance(channel, SharedChannel)
                     else SharedChannel(channel))
        self._flows = [_FlowState(f, self.link) for f in flows]
        self._rr_cursor = 0

    def _pick(self) -> _FlowState | None:
        """Next flow to transmit under the configured policy."""
        candidates = [fs for fs in self._flows if fs.can_send]
        if not candidates:
            return None
        if self.policy == "priority":
            top = max(fs.flow.priority for fs in candidates)
            candidates = [fs for fs in candidates if fs.flow.priority == top]
        # Round-robin among (equal-priority) candidates.
        n = len(self._flows)
        for offset in range(n):
            fs = self._flows[(self._rr_cursor + offset) % n]
            if fs in candidates:
                self._rr_cursor = (self._rr_cursor + offset + 1) % n
                return fs
        return None

    def run(self, max_time: int | None = None) -> LinkReport:
        """Run until every flow drains (or the clock passes ``max_time``)."""
        while True:
            for fs in self._flows:
                fs.poll()
            if all(fs.finished for fs in self._flows):
                break
            if max_time is not None and self.link.time >= max_time:
                for fs in self._flows:
                    fs.close()
                break
            fs = self._pick()
            if fs is not None:
                fs.step()
                continue
            # Nobody can transmit: idle the medium to the next ACK arrival.
            pending = [t for t in
                       (f.next_event_time() for f in self._flows)
                       if t is not None]
            if not pending:
                # Every transmitter's poll() resolves "out of subpasses,
                # nothing in flight" as a give-up, so this state means one
                # is stuck; nothing here can change it, and looping again
                # would spin forever.
                stuck = "; ".join(
                    f"{fs.flow.name}: subpass {fs.tx.subpass} of "
                    f"{fs.tx.max_subpasses}, sender ACKs {fs.tx.sender_acks}"
                    for fs in self._flows if fs.tx is not None)
                raise RuntimeError(
                    "link scheduler stalled: no flow can send and no "
                    f"feedback is in flight ({stuck})")
            target = min(pending)
            if target > self.link.time:
                self.link.advance(target - self.link.time)
        return LinkReport(
            flows=[fs.stats for fs in self._flows],
            channel_symbols=self.link.symbols_sent,
            channel_time=self.link.time,
        )
