"""Unit and property tests for repro.utils.bitops."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.utils.bitops import (
    bits_from_bytes,
    bits_from_int,
    bits_to_bytes,
    chunk_bits,
    pack_chunks,
    random_message,
)


class TestBytesRoundtrip:
    def test_single_byte(self):
        assert bits_from_bytes(b"\x80").tolist() == [1, 0, 0, 0, 0, 0, 0, 0]

    def test_all_ones(self):
        assert bits_from_bytes(b"\xff").tolist() == [1] * 8

    def test_roundtrip(self):
        data = b"spinal codes"
        assert bits_to_bytes(bits_from_bytes(data)) == data

    def test_to_bytes_pads(self):
        out = bits_to_bytes(np.array([1, 0, 1], dtype=np.uint8))
        assert out == b"\xa0"

    @given(st.binary(min_size=0, max_size=64))
    def test_roundtrip_property(self, data):
        assert bits_to_bytes(bits_from_bytes(data)) == data


class TestIntConversion:
    def test_basic(self):
        assert bits_from_int(5, 4).tolist() == [0, 1, 0, 1]

    def test_zero_width(self):
        assert bits_from_int(0, 0).size == 0

    def test_overflow_raises(self):
        with pytest.raises(ValueError):
            bits_from_int(16, 4)

    def test_negative_raises(self):
        with pytest.raises(ValueError):
            bits_from_int(-1, 4)

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_roundtrip_property(self, value):
        bits = bits_from_int(value, 32)
        assert int("".join(map(str, bits.tolist())), 2) == value


class TestChunking:
    def test_basic(self):
        bits = np.array([1, 0, 1, 1], dtype=np.uint8)
        assert chunk_bits(bits, 2).tolist() == [2, 3]

    def test_k1_identity(self):
        bits = np.array([1, 0, 1], dtype=np.uint8)
        assert chunk_bits(bits, 1).tolist() == [1, 0, 1]

    def test_indivisible_raises(self):
        with pytest.raises(ValueError):
            chunk_bits(np.array([1, 0, 1], dtype=np.uint8), 2)

    def test_pack_rejects_oversized(self):
        with pytest.raises(ValueError):
            pack_chunks(np.array([4]), 2)

    @given(
        st.integers(min_value=1, max_value=8),
        st.integers(min_value=0, max_value=16),
        st.randoms(use_true_random=False),
    )
    def test_roundtrip_property(self, k, n_chunks, rnd):
        bits = np.array(
            [rnd.randint(0, 1) for _ in range(k * n_chunks)], dtype=np.uint8
        )
        assert np.array_equal(pack_chunks(chunk_bits(bits, k), k), bits)


class TestRandomMessage:
    def test_deterministic_with_seed(self):
        assert np.array_equal(random_message(64, 7), random_message(64, 7))

    def test_binary_values(self):
        msg = random_message(1000, 1)
        assert set(np.unique(msg)) <= {0, 1}

    def test_roughly_balanced(self):
        msg = random_message(10_000, 3)
        assert 0.45 < msg.mean() < 0.55
