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
feed the verdict back.  The framed receiver is
:class:`~repro.core.framing.FrameDecoder` itself; the oracle receiver has
its shape.  :meth:`PacketTransmitter.run` is two bounded loops: at most
``max_passes`` passes of subpasses, then one idle per feedback message still
in flight; a packet still open after both gives up, so no state can spin.
Time is measured on the symbol clock of
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
from repro.core.framing import Frame, FrameDecoder, FrameEncoder
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
    """Single-block receiver judged against the true message (§8.1 mode).

    Shaped like :class:`~repro.core.framing.FrameDecoder`, so the
    transmitter drives both receivers through the same four names, and
    like it skips a decode when the store gained no symbols since the last
    failed attempt (the search would fail the same way again).
    """

    n_blocks = 1

    def __init__(self, params: SpinalParams, dec: DecoderParams,
                 message_bits: np.ndarray):
        self.message_bits = message_bits
        self._store = ReceivedSymbols(params.n_spine(message_bits.size),
                                      complex_valued=not params.is_bsc)
        self._decoder = BubbleDecoder(params, dec, message_bits.size)
        self._decoded = False
        self._failed_at = -1  # store symbols at the last failed attempt

    @property
    def ack_bitmap(self) -> list[bool]:
        return [self._decoded]

    def receive_block_symbols(self, block_index: int, symbols, noisy_values,
                              csi=None) -> None:
        self._store.add_block(symbols.spine_indices, symbols.slots,
                              noisy_values, csi=csi)

    def try_decode_all(self) -> list[bool]:
        n_symbols = self._store.n_symbols
        if not self._decoded and n_symbols > self._failed_at:
            self._failed_at = n_symbols
            result = self._decoder.decode(self._store)
            self._decoded = result.matches(self.message_bits)
        return self.ack_bitmap


class PacketTransmitter:
    """One packet's sender+receiver pair on the link's symbol clock.

    :meth:`step` transmits one subpass for every block the *sender still
    believes* is pending (the receiver may already have them — that gap is
    the §8.4 feedback-delay waste), lets the receiver attempt decodes and
    queues the resulting ACK bitmap ``feedback_delay`` symbol times into
    the future; :meth:`poll` applies the feedback that has arrived.
    :meth:`run` drives both in two bounded loops.
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
        self.link = link
        self.config = config
        self.seq = seq
        self.flow = flow
        self._csi_mode = csi_mode(config.give_csi)
        if config.framing:
            datagram = bytes(payload)
            sender = FrameEncoder(params, max_block_bits=config.max_block_bits,
                                  first_sequence=seq)
            # an empty datagram has no blocks: nothing to frame or send
            frame = (sender.frame(datagram) if datagram
                     else Frame(seq & 0xFF, 0))
            self._encoders = sender.encoders(frame)
            self.rx = FrameDecoder(params, decoder_params, frame.sequence,
                                   len(datagram),
                                   max_block_bits=config.max_block_bits)
            self.payload_bits = len(datagram) * 8
            self.coded_bits = sum(b.size for b in frame.block_bits)
        else:
            message = np.asarray(payload, dtype=np.uint8)
            self._encoders = [SpinalEncoder(params, message)]
            self.rx = _OracleReceiver(params, decoder_params, message)
            self.payload_bits = self.coded_bits = message.size
        self.max_subpasses = (decoder_params.max_passes
                              * params.make_schedule().subpasses_per_pass)
        self.subpass = 0
        self.start_time = link.time
        self.symbols = 0
        self.wasted_symbols = 0
        self.retransmissions = 0
        # Sender's (possibly stale) belief of the receiver's ACK bitmap.
        self._sender_acks = [False] * self.rx.n_blocks
        # Queued feedback in arrival order: (arrival_time, bitmap snapshot).
        self._feedback: list[tuple[int, list[bool]]] = []
        self.result: PacketResult | None = None
        if self.rx.n_blocks == 0:
            # An empty datagram has nothing to transmit: trivially delivered.
            self._finish(success=True, finish_time=link.time)

    def poll(self) -> None:
        """Apply every feedback message that has reached the sender."""
        now = self.link.time
        ready = [entry for entry in self._feedback if entry[0] <= now]
        if ready:
            del self._feedback[:len(ready)]
            # Bitmaps are monotone (blocks never un-decode); the latest
            # snapshot subsumes earlier ones.
            t_last, self._sender_acks = ready[-1]
            if all(self._sender_acks):
                self._finish(success=True, finish_time=t_last)

    def step(self) -> int:
        """Transmit one subpass round; returns channel symbols consumed.

        :meth:`run` calls this only while the packet is open and has
        subpasses left.
        """
        g = self.subpass
        rx_acks = self.rx.ack_bitmap
        sent = 0
        retrans = 0
        for b, enc in enumerate(self._encoders):
            if self._sender_acks[b]:
                continue
            block = enc.generate(g)
            out = self.link.transmit(block.values)
            values, csi = received_view(out, self._csi_mode)
            self.rx.receive_block_symbols(b, block, values, csi=csi)
            sent += len(block)
            if rx_acks[b]:
                # The receiver already had this block; the sender just
                # doesn't know yet (§8.4 feedback-delay overhead).
                self.wasted_symbols += len(block)
                retrans += 1
        self.symbols += sent
        self.retransmissions += retrans
        self.subpass += 1
        bitmap = self.rx.try_decode_all()
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
            payload_bits=self.payload_bits,
            coded_bits=self.coded_bits,
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

        Two bounded loops: send subpasses until the packet closes or
        ``max_subpasses`` are spent, then idle to each feedback message
        still in flight, in arrival order (§5: the sender may pause
        awaiting feedback).  A packet still open after that gives up.
        """
        while self.result is None and self.subpass < self.max_subpasses:
            self.step()
        for arrival, _ in list(self._feedback):
            if self.result is None and arrival > self.link.time:
                self.link.advance(arrival - self.link.time)
                self.poll()
        if self.result is None:
            self._finish(success=False, finish_time=self.link.time)
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
