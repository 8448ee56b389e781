"""ARQ state machine for rateless packet transmission (paper §5, §8.4).

§5 of the paper describes the spinal *protocol*, not just the code: "the
sender transmits passes ... until it receives an acknowledgment", while the
receiver "attempts to decode after each subpass" and returns per-block
ACK/NACK feedback.  The oracle-judged :class:`~repro.simulation.engine.
SpinalSession` measures the code alone; this module charges the protocol's
real costs on top:

- **Framing overhead** (§6): datagrams are split into CRC-16 protected,
  k-padded code blocks via :mod:`repro.core.framing`; the CRC and padding
  bits ride the channel but deliver no payload, so framed goodput sits
  below the oracle rate curve of §8.1 by construction.
- **Feedback delay** (§5, §8.4): the receiver's ACK takes
  ``feedback_delay`` symbol times to reach the sender.  §8.4 notes the
  consequence — "the sender will have transmitted more symbols than
  necessary by the time it learns of the decoding success" — and those
  wasted symbols are exactly what :attr:`PacketResult.wasted_symbols`
  counts.  With zero delay and framing disabled, :class:`LinkSession`
  reproduces ``SpinalSession.run()`` symbol-for-symbol.

Both modes run the same per-subpass loop the paper's receiver runs
(``probe_growth=1`` semantics): transmit one subpass, attempt a decode,
feed the verdict back.  Time is measured on the symbol clock of
:class:`~repro.channels.shared.SharedChannel`: it times the feedback in
flight, and a session's packets follow one another on it, so a stateful
medium (fading) evolves across packets as it does across subpasses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.channels.base import Channel
from repro.channels.shared import SharedChannel
from repro.core.decoder import BubbleDecoder
from repro.core.encoder import SpinalEncoder
from repro.core.framing import FrameDecoder, FrameEncoder
from repro.core.params import DecoderParams, SpinalParams
from repro.core.symbols import ReceivedSymbols
from repro.obs import OBS
from repro.simulation.engine import csi_mode, received_view
from repro.utils.bitops import bits_from_bytes

__all__ = ["LinkConfig", "PacketResult", "PacketTransmitter", "LinkSession"]


@dataclass(frozen=True)
class LinkConfig:
    """Protocol knobs for a link-layer flow.

    Attributes
    ----------
    framing: when True, payloads are datagrams (bytes) carried in CRC-16
        framed code blocks (§6); when False, payloads are raw bit arrays
        judged by the oracle test — the §8.1 measurement mode.
    max_block_bits: framing block-size cap (1024 in the paper, §6).
    feedback_delay: symbol times between the receiver detecting a decode
        and the sender learning of it (§8.4's overhead knob; 0 = ideal).
    give_csi: CSI policy forwarded to the decoder (see
        :func:`repro.simulation.engine.received_view`).
    """

    framing: bool = True
    max_block_bits: int = 1024
    feedback_delay: int = 0
    give_csi: bool | str = False

    def __post_init__(self):
        if self.feedback_delay < 0:
            raise ValueError("feedback_delay must be >= 0 symbol times")


@dataclass
class PacketResult:
    """Outcome of one packet's ARQ exchange, in channel symbol times."""

    flow: str
    seq: int
    success: bool
    payload_bits: int       # bits the application handed the link layer
    coded_bits: int         # bits after CRC + padding (== payload when unframed)
    n_blocks: int
    n_subpasses: int        # subpass rounds the sender transmitted
    symbols: int            # channel symbols consumed (incl. waste)
    wasted_symbols: int     # sent for blocks the receiver had already decoded
    retransmissions: int    # block-subpasses re-sent due to delayed feedback
    start_time: int         # symbol clock when the first symbol went out
    finish_time: int        # symbol clock when the sender closed the packet

    @property
    def latency(self) -> int:
        """Sender-perceived delivery time in symbol times."""
        return self.finish_time - self.start_time

    @property
    def goodput(self) -> float:
        """Payload bits per channel symbol (0 for undelivered packets)."""
        if not self.success or self.symbols == 0:
            return 0.0
        return self.payload_bits / self.symbols


class _OracleReceiver:
    """Single-block receiver judged against the true message (§8.1 mode)."""

    def __init__(self, params: SpinalParams, dec: DecoderParams,
                 message_bits: np.ndarray):
        self.message_bits = np.asarray(message_bits, dtype=np.uint8)
        self.encoder = SpinalEncoder(params, self.message_bits)
        self._decoder = BubbleDecoder(params, dec, self.message_bits.size)
        self._store = ReceivedSymbols(
            self.encoder.n_spine, complex_valued=not params.is_bsc)
        self._decoded = False

    @property
    def n_blocks(self) -> int:
        return 1

    @property
    def payload_bits(self) -> int:
        return self.message_bits.size

    @property
    def coded_bits(self) -> int:
        return self.message_bits.size

    def encoders(self) -> list[SpinalEncoder]:
        return [self.encoder]

    def ack_bitmap(self) -> list[bool]:
        return [self._decoded]

    def receive(self, block_index: int, block, values, csi) -> None:
        self._store.add_block(block.spine_indices, block.slots, values, csi=csi)

    def try_decode(self) -> list[bool]:
        if not self._decoded:
            result = self._decoder.decode(self._store)
            self._decoded = result.matches(self.message_bits)
        return self.ack_bitmap()


class _FramedReceiver:
    """CRC-framed multi-block receiver (§6 mode)."""

    def __init__(self, params: SpinalParams, dec: DecoderParams,
                 datagram: bytes, seq: int, max_block_bits: int):
        self.datagram = bytes(datagram)
        sender = FrameEncoder(params, max_block_bits=max_block_bits,
                              first_sequence=seq)
        self.frame = sender.frame(self.datagram)
        self._encoders = sender.encoders(self.frame)
        self._decoder = FrameDecoder(params, dec, self.frame.sequence,
                                     len(self.datagram),
                                     max_block_bits=max_block_bits)

    @property
    def n_blocks(self) -> int:
        return self.frame.n_blocks

    @property
    def payload_bits(self) -> int:
        return len(self.datagram) * 8

    @property
    def coded_bits(self) -> int:
        return sum(b.size for b in self.frame.block_bits)

    def encoders(self) -> list[SpinalEncoder]:
        return self._encoders

    def ack_bitmap(self) -> list[bool]:
        return self._decoder.ack_bitmap

    def receive(self, block_index: int, block, values, csi) -> None:
        self._decoder.receive_block_symbols(block_index, block, values, csi=csi)

    def try_decode(self) -> list[bool]:
        return self._decoder.try_decode_all()


class PacketTransmitter:
    """One packet's sender+receiver pair on the link's symbol clock.

    :meth:`run` drives this stepwise: :meth:`poll` applies any feedback
    whose flight time has elapsed, :meth:`step` transmits one subpass for
    every block the *sender still believes* is pending (the receiver may
    already have them — that gap is the §8.4 feedback-delay waste), then
    lets the receiver attempt decodes and queues the resulting ACK bitmap
    ``feedback_delay`` symbol times into the future.
    """

    def __init__(
        self,
        params: SpinalParams,
        decoder_params: DecoderParams,
        link: SharedChannel,
        payload,
        config: LinkConfig,
        seq: int = 0,
        flow: str = "flow0",
    ):
        self.params = params
        self.dec = decoder_params
        self.link = link
        self.config = config
        self.seq = seq
        self.flow = flow
        self._csi_mode = csi_mode(config.give_csi)
        if config.framing:
            self.rx = _FramedReceiver(params, decoder_params, payload, seq,
                                      config.max_block_bits)
        else:
            self.rx = _OracleReceiver(params, decoder_params, payload)
        self._encoders = self.rx.encoders()
        w = (self._encoders[0].subpasses_per_pass if self._encoders
             else params.make_schedule().subpasses_per_pass)
        self.max_subpasses = decoder_params.max_passes * w
        self.subpass = 0
        self.start_time = link.time
        self.symbols = 0
        self.wasted_symbols = 0
        self.retransmissions = 0
        # Sender's (possibly stale) belief of the receiver's ACK bitmap.
        self._sender_acks = [False] * self.rx.n_blocks
        # Queued feedback: (arrival_time, bitmap snapshot).
        self._feedback: list[tuple[int, list[bool]]] = []
        self.result: PacketResult | None = None
        if self.rx.n_blocks == 0:
            # An empty datagram has nothing to transmit: trivially delivered.
            self._finish(success=True, finish_time=link.time)

    # -- state queries ----------------------------------------------------

    @property
    def can_send(self) -> bool:
        """True while the sender has subpasses left and no full ACK."""
        return (self.result is None
                and self.subpass < self.max_subpasses
                and not all(self._sender_acks))

    def next_event_time(self) -> int | None:
        """Earliest queued feedback arrival (when an idle sender wakes)."""
        if self.result is not None or not self._feedback:
            return None
        return min(t for t, _ in self._feedback)

    # -- protocol steps ---------------------------------------------------

    def poll(self) -> None:
        """Apply every feedback message that has reached the sender."""
        if self.result is not None:
            return
        now = self.link.time
        ready = [(t, bm) for t, bm in self._feedback if t <= now]
        if ready:
            self._feedback = [(t, bm) for t, bm in self._feedback if t > now]
            # Bitmaps are monotone (blocks never un-decode); the latest
            # snapshot subsumes earlier ones.
            t_last, bitmap = max(ready, key=lambda e: e[0])
            self._sender_acks = list(bitmap)
            if all(bitmap):
                self._finish(success=True, finish_time=t_last)
                return
        if (self.subpass >= self.max_subpasses and not self._feedback
                and not all(self._sender_acks)):
            # Out of subpasses and nothing left in flight: give up.
            self._finish(success=False, finish_time=now)

    def step(self) -> int:
        """Transmit one subpass round; returns channel symbols consumed."""
        self.poll()
        if not self.can_send:
            return 0
        g = self.subpass
        rx_acks = self.rx.ack_bitmap()
        sent = 0
        retrans = 0
        for b, enc in enumerate(self._encoders):
            if self._sender_acks[b]:
                continue
            block = enc.generate(g)
            out = self.link.transmit(block.values)
            values, csi = received_view(out, self._csi_mode)
            self.rx.receive(b, block, values, csi)
            sent += len(block)
            if rx_acks[b]:
                # The receiver already had this block; the sender just
                # doesn't know yet (§8.4 feedback-delay overhead).
                self.wasted_symbols += len(block)
                retrans += 1
        self.symbols += sent
        self.retransmissions += retrans
        self.subpass += 1
        bitmap = self.rx.try_decode()
        self._feedback.append(
            (self.link.time + self.config.feedback_delay, list(bitmap)))
        if OBS.enabled:
            # Out-of-band trace of the ARQ exchange (repro.obs): per-subpass
            # transmit plus the ACK/NACK verdict the receiver queued.  The
            # guard keeps the disabled path free of dict construction.
            n_acked = sum(bitmap)
            OBS.counter("link.ack", n_acked)
            OBS.counter("link.nack", len(bitmap) - n_acked)
            if retrans:
                OBS.counter("link.retransmit", retrans)
            OBS.event("link.subpass", flow=self.flow, seq=self.seq,
                      subpass=g, symbols=sent, retransmitted=retrans,
                      acked=n_acked, blocks=len(bitmap),
                      time=self.link.time)
        self.poll()
        return sent

    def _finish(self, success: bool, finish_time: int) -> None:
        if OBS.enabled:
            OBS.counter("link.packet_delivered" if success
                        else "link.packet_failed")
            OBS.event("link.packet", flow=self.flow, seq=self.seq,
                      success=success, subpasses=self.subpass,
                      symbols=self.symbols,
                      wasted_symbols=self.wasted_symbols,
                      retransmissions=self.retransmissions,
                      start_time=self.start_time, finish_time=finish_time)
        self.result = PacketResult(
            flow=self.flow,
            seq=self.seq,
            success=success,
            payload_bits=self.rx.payload_bits,
            coded_bits=self.rx.coded_bits,
            n_blocks=self.rx.n_blocks,
            n_subpasses=self.subpass,
            symbols=self.symbols,
            wasted_symbols=self.wasted_symbols,
            retransmissions=self.retransmissions,
            start_time=self.start_time,
            finish_time=finish_time,
        )

    def run(self) -> PacketResult:
        """Drive this packet to completion alone on the medium.

        Raises ``RuntimeError`` if the packet stalls: the sender cannot
        send, no feedback is in flight, and :meth:`poll` did not close it.
        """
        while self.result is None:
            if self.can_send:
                self.step()
                continue
            nxt = self.next_event_time()
            if nxt is not None and nxt > self.link.time:
                # Nothing to send; idle until the ACK lands (§5: the
                # sender may also pause between passes awaiting feedback).
                self.link.advance(nxt - self.link.time)
            self.poll()
            if self.result is None and nxt is None:
                # poll() resolves "out of subpasses, nothing in flight" as a
                # give-up, so this state means the transmitter is stuck;
                # nothing here can change it, and looping again would spin
                # forever.
                raise RuntimeError(
                    f"link stalled: {self.flow} seq {self.seq} cannot send "
                    f"and has no feedback in flight (subpass {self.subpass} "
                    f"of {self.max_subpasses}, sender ACKs "
                    f"{self._sender_acks})")
        return self.result


class LinkSession:
    """A single flow of packets over one channel.

    The multi-packet analogue of :class:`~repro.simulation.engine.
    SpinalSession`: each payload runs the full ARQ exchange of
    :class:`PacketTransmitter` back-to-back on the same channel, so
    stateful media (fading) evolve across packets exactly as they do
    across subpasses.

    With ``LinkConfig(framing=False, feedback_delay=0)`` the per-packet
    results match ``SpinalSession.run()`` on the same message and channel:
    the per-subpass decode loop finds the same minimal prefix the engine's
    probe/bisect search finds, and no overhead symbols are charged.
    """

    def __init__(
        self,
        params: SpinalParams,
        decoder_params: DecoderParams,
        channel: Channel,
        config: LinkConfig | None = None,
        flow: str = "flow0",
    ):
        self.params = params
        self.dec = decoder_params
        self.config = config if config is not None else LinkConfig()
        self.flow = flow
        self.link = (channel if isinstance(channel, SharedChannel)
                     else SharedChannel(channel))
        self._seq = 0

    def send_packet(self, payload) -> PacketResult:
        """Transmit one payload (bytes if framed, bit array otherwise)."""
        tx = PacketTransmitter(self.params, self.dec, self.link, payload,
                               self.config, seq=self._seq, flow=self.flow)
        self._seq += 1
        return tx.run()

    def run(self, payloads: Sequence) -> list[PacketResult]:
        """Transmit a backlog of payloads sequentially."""
        return [self.send_packet(p) for p in payloads]


def payload_for(config: LinkConfig, rng: np.random.Generator,
                payload_bytes: int, k: int = 4):
    """Draw one random payload of the right type for a link config.

    Framed payloads are datagrams (bytes); unframed payloads are bit
    arrays padded to a multiple of ``k`` so they spinal-encode directly.
    """
    raw = rng.integers(0, 256, size=payload_bytes, dtype=np.uint8)
    if config.framing:
        return raw.tobytes()
    bits = bits_from_bytes(raw.tobytes())
    pad = (-bits.size) % k
    if pad:
        bits = np.concatenate([bits, np.zeros(pad, dtype=np.uint8)])
    return bits
