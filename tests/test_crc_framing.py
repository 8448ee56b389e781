"""Tests for CRC-16 and the link-layer framing (§6)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.channels.awgn import AWGNChannel
from repro.core.crc import append_crc, check_crc, crc16, crc16_bits
from repro.core.framing import FrameDecoder, FrameEncoder, block_layout
from repro.core.params import DecoderParams, SpinalParams
from repro.utils.bitops import bits_from_bytes


class TestCrc16:
    def test_known_vector(self):
        # CRC-16/CCITT-FALSE("123456789") = 0x29B1 (standard check value)
        assert crc16(b"123456789") == 0x29B1

    def test_empty(self):
        assert crc16(b"") == 0xFFFF  # init value, nothing processed

    def test_detects_single_bit_flip(self):
        data = b"hello spinal codes"
        base = crc16(data)
        corrupted = bytearray(data)
        corrupted[3] ^= 0x10
        assert crc16(bytes(corrupted)) != base

    def test_bits_variant_consistent(self):
        data = b"\xab\xcd"
        assert crc16_bits(bits_from_bytes(data)) == crc16(data)

    @given(st.binary(min_size=1, max_size=32), st.integers(0, 255))
    @settings(max_examples=50)
    def test_append_check_roundtrip(self, data, _):
        bits = bits_from_bytes(data)
        assert check_crc(append_crc(bits))

    @given(st.binary(min_size=1, max_size=16), st.data())
    @settings(max_examples=50)
    def test_flip_breaks_crc(self, data, draw):
        bits = append_crc(bits_from_bytes(data))
        pos = draw.draw(st.integers(0, bits.size - 1))
        bits[pos] ^= 1
        assert not check_crc(bits)

    def test_too_short(self):
        assert not check_crc(np.zeros(8, dtype=np.uint8))


class TestBlockLayout:
    def test_single_block(self):
        layout = block_layout(32, max_block_bits=1024, k=4)
        assert layout == [(256, 272)]  # 256 payload + 16 crc, already % 4

    def test_multi_block_split(self):
        # 300 bytes = 2400 bits; blocks carry up to 1008 payload bits
        layout = block_layout(300, max_block_bits=1024, k=4)
        payloads = [p for p, _ in layout]
        assert sum(payloads) == 2400
        assert all(p <= 1008 for p in payloads)

    def test_padding_multiple_of_k(self):
        for k in (1, 3, 4, 7):
            for nbytes in (10, 100, 127):
                for payload, padded in block_layout(nbytes, 1024, k):
                    assert padded % k == 0
                    assert 0 <= padded - (payload + 16) < k

    def test_rejects_tiny_blocks(self):
        with pytest.raises(ValueError):
            block_layout(10, max_block_bits=16, k=4)


class TestFraming:
    def _roundtrip(self, datagram: bytes, snr_db: float, seed: int) -> bytes:
        params = SpinalParams(puncturing="8-way")
        dec = DecoderParams(B=64, max_passes=30)
        sender = FrameEncoder(params, max_block_bits=512)
        frame = sender.frame(datagram)
        encoders = sender.encoders(frame)
        receiver = FrameDecoder(params, dec, frame.sequence, len(datagram),
                                max_block_bits=512)
        assert receiver.n_blocks == frame.n_blocks
        channel = AWGNChannel(snr_db, rng=seed)
        for subpass in range(dec.max_passes * 8):
            for b, enc in enumerate(encoders):
                if receiver.ack_bitmap[b]:
                    continue  # sender stops on ACK (§6)
                block = enc.generate(subpass)
                out = channel.transmit(block.values)
                receiver.receive_block_symbols(b, block, out.values)
            receiver.try_decode_all()
            if receiver.complete:
                break
        return receiver.reassemble()

    def test_single_block_datagram(self):
        data = b"The quick brown fox jumps over the lazy dog."
        assert self._roundtrip(data, snr_db=15, seed=1) == data

    def test_multi_block_datagram(self):
        data = bytes(range(256)) * 2  # 512 bytes -> several 512-bit blocks
        assert self._roundtrip(data, snr_db=12, seed=2) == data

    def test_sequence_increments(self):
        sender = FrameEncoder(SpinalParams())
        f1 = sender.frame(b"a" * 10)
        f2 = sender.frame(b"b" * 10)
        assert f2.sequence == (f1.sequence + 1) & 0xFF

    def test_empty_datagram_is_refused(self):
        """An empty datagram has no block; its frame's receiver could
        never reassemble it."""
        with pytest.raises(ValueError, match="empty datagram"):
            FrameEncoder(SpinalParams()).frame(b"")

    def test_reassemble_before_complete_raises(self):
        receiver = FrameDecoder(SpinalParams(), DecoderParams(B=4), 0, 100)
        with pytest.raises(RuntimeError):
            receiver.reassemble()

    def test_crc_rejects_garbage(self):
        """With no symbols received, decode returns noise; CRC must fail."""
        receiver = FrameDecoder(SpinalParams(), DecoderParams(B=4), 0, 32)
        assert receiver.try_decode(0) is False
        assert receiver.ack_bitmap == [False]
