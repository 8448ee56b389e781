"""Link-layer framing (paper §6).

A network-layer datagram is split into *code blocks* of at most
``max_block_bits`` (1024 in the paper's experiments); each block gets a
16-bit CRC and is spinal-encoded independently.  The receiver decodes each
block from its own symbol stream and reports per-block ACKs ("the ACK
contains one bit per code block").  Frames carry a short sequence number so
an erased frame cannot desynchronise the subpass bookkeeping.

Blocks are padded to a multiple of ``k`` bits before encoding; block sizes
are implied by the datagram length carried in the frame header, so the
receiver strips padding and CRC deterministically.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.crc import append_crc, check_crc
from repro.core.decoder import BubbleDecoder
from repro.core.encoder import SpinalEncoder, SymbolBlock
from repro.core.params import DecoderParams, SpinalParams
from repro.core.symbols import ReceivedSymbols
from repro.utils.bitops import bits_from_bytes, bits_to_bytes

__all__ = ["Frame", "FrameEncoder", "FrameDecoder", "block_layout"]


def block_layout(
    datagram_bytes: int, max_block_bits: int, k: int
) -> list[tuple[int, int]]:
    """Per-block (payload_bits, padded_bits) for a datagram.

    Both ends derive this from the frame header (datagram length), so the
    receiver knows every block's true payload span without side channels.
    """
    if max_block_bits <= 16:
        raise ValueError("max_block_bits must exceed the 16 CRC bits")
    data_bits = max_block_bits - 16
    total = datagram_bytes * 8
    layout = []
    for start in range(0, total, data_bits):
        payload = min(data_bits, total - start)
        with_crc = payload + 16
        padded = with_crc + (-with_crc) % k
        layout.append((payload, padded))
    return layout


@dataclass
class Frame:
    """A datagram split into CRC-protected, k-padded code blocks."""

    sequence: int
    datagram_bytes: int
    block_bits: list[np.ndarray] = field(default_factory=list)

    @property
    def n_blocks(self) -> int:
        return len(self.block_bits)


class FrameEncoder:
    """Sender side: datagram -> frame -> per-block spinal symbol streams."""

    def __init__(self, params: SpinalParams, max_block_bits: int = 1024,
                 first_sequence: int = 0):
        self.params = params
        self.max_block_bits = max_block_bits
        self._sequence = first_sequence & 0xFF

    def frame(self, datagram: bytes) -> Frame:
        """Build the frame for a datagram (splitting, CRC, padding).

        An empty datagram has no code block to carry, so it is refused."""
        if not datagram:
            raise ValueError("cannot frame an empty datagram")
        payload = bits_from_bytes(datagram)
        layout = block_layout(len(datagram), self.max_block_bits, self.params.k)
        blocks = []
        start = 0
        for payload_bits, padded_bits in layout:
            chunk = payload[start:start + payload_bits]
            start += payload_bits
            block = append_crc(chunk)
            pad = padded_bits - block.size
            if pad:
                block = np.concatenate([block, np.zeros(pad, dtype=np.uint8)])
            blocks.append(block)
        frame = Frame(self._sequence, len(datagram), blocks)
        self._sequence = (self._sequence + 1) & 0xFF
        return frame

    def encoders(self, frame: Frame) -> list[SpinalEncoder]:
        """One independent spinal encoder per code block."""
        return [SpinalEncoder(self.params, bits) for bits in frame.block_bits]


class FrameDecoder:
    """Receiver side: accumulates symbols per block, ACKs decoded blocks."""

    def __init__(
        self,
        params: SpinalParams,
        decoder_params: DecoderParams,
        sequence: int,
        datagram_bytes: int,
        max_block_bits: int = 1024,
    ):
        self.params = params
        self.sequence = sequence
        self.datagram_bytes = datagram_bytes
        self._layout = block_layout(datagram_bytes, max_block_bits, params.k)
        complex_valued = not params.is_bsc
        self._stores = [
            ReceivedSymbols(params.n_spine(padded), complex_valued=complex_valued)
            for _, padded in self._layout
        ]
        self._decoders = [
            BubbleDecoder(params, decoder_params, padded)
            for _, padded in self._layout
        ]
        self._decoded: list[np.ndarray | None] = [None] * len(self._layout)
        # Each block's store size at its last failed attempt.
        self._failed_at = [-1] * len(self._layout)

    @property
    def n_blocks(self) -> int:
        return len(self._layout)

    @property
    def ack_bitmap(self) -> list[bool]:
        """Per-block ACK bits (§6)."""
        return [b is not None for b in self._decoded]

    @property
    def complete(self) -> bool:
        return all(self.ack_bitmap)

    def receive_block_symbols(
        self,
        block_index: int,
        symbols: SymbolBlock,
        noisy_values: np.ndarray,
        csi: np.ndarray | None = None,
    ) -> None:
        """Store one block's received symbols for this subpass."""
        self._stores[block_index].add_block(
            symbols.spine_indices, symbols.slots, noisy_values, csi=csi,
        )

    def try_decode(self, block_index: int) -> bool:
        """Attempt to decode one block; ACK (and cache payload) on CRC pass.

        A block whose store holds no more symbols than at its last failed
        attempt is not searched again: the decode is a function of the
        store, so it would fail the same way.
        """
        if self._decoded[block_index] is not None:
            return True
        store = self._stores[block_index]
        if store.n_symbols <= self._failed_at[block_index]:
            return False
        self._failed_at[block_index] = store.n_symbols
        result = self._decoders[block_index].decode(store)
        payload_bits, _ = self._layout[block_index]
        candidate = result.message_bits[: payload_bits + 16]
        if check_crc(candidate):
            self._decoded[block_index] = candidate[:-16]
            return True
        return False

    def try_decode_all(self) -> list[bool]:
        """Attempt every pending block; returns the updated ACK bitmap."""
        for i in range(self.n_blocks):
            self.try_decode(i)
        return self.ack_bitmap

    def reassemble(self) -> bytes:
        """Concatenate decoded block payloads back into the datagram."""
        if not self.complete:
            raise RuntimeError("frame not fully decoded")
        bits = np.concatenate([b for b in self._decoded])
        return bits_to_bytes(bits)[: self.datagram_bytes]
