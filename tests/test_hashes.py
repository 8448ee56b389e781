"""Tests for the spine hash functions (paper §3.2, §7.1)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.backend import hash_kernel
from repro.core.hashes import (
    available_hashes,
    get_hash,
    lookup3,
    one_at_a_time,
    salsa20,
)

ALL_HASHES = [one_at_a_time, lookup3, salsa20]


def _scalar(hash_fn, s, d):
    return int(hash_fn(np.array([s], np.uint32), np.array([d], np.uint32))[0])


class TestReferenceValues:
    """Pin down outputs so the code is stable across refactors (encoder and
    decoder must agree forever once a protocol is standardised, §7)."""

    def test_one_at_a_time_pinned(self):
        assert _scalar(one_at_a_time, 0, 0) == _oaat_reference(0, 0)
        assert _scalar(one_at_a_time, 1, 2) == _oaat_reference(1, 2)
        assert _scalar(one_at_a_time, 0xDEADBEEF, 0x1234) == _oaat_reference(
            0xDEADBEEF, 0x1234
        )

    @given(st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1))
    @settings(max_examples=50)
    def test_one_at_a_time_matches_reference(self, s, d):
        assert _scalar(one_at_a_time, s, d) == _oaat_reference(s, d)


def _oaat_reference(state: int, data: int) -> int:
    """Plain-Python Jenkins one-at-a-time over 8 little-endian bytes."""
    h = 0
    mask = 0xFFFFFFFF
    payload = list(state.to_bytes(4, "little")) + list(data.to_bytes(4, "little"))
    for byte in payload:
        h = (h + byte) & mask
        h = (h + (h << 10)) & mask
        h ^= h >> 6
    h = (h + (h << 3)) & mask
    h ^= h >> 11
    h = (h + (h << 15)) & mask
    return h


def _layout(name, rng, a, b):
    """A (state, data) operand pair in one of the decoder's broadcast layouts."""
    def words(*shape):
        return rng.integers(0, 2**32, size=shape, dtype=np.uint32)

    if name == "state_larger":        # one slot against many states
        return words(a, b), words(a, 1)
    if name == "data_larger":         # one state against many data words
        return words(1, b), words(a, b)
    if name == "outer":               # branch costs: (1, n) x (n_slots, 1)
        return words(1, b), words(a, 1)
    if name == "both_0d":
        return np.uint32(words(1)[0]), np.uint32(words(1)[0])
    if name == "state_0d":
        return np.uint32(words(1)[0]), words(a, b)
    if name == "strided_view":        # every other state, transposed
        return words(b, 2 * a)[:, ::2].T, words(1, b)
    if name == "beam_gather":
        # tree expansion after selection: rows gathered out of a 4-d
        # (M, n_beam, K, W) child array, hashed against every edge
        states4 = words(a, b, 4, 3)
        row_idx = np.arange(a)[:, None]
        parents = rng.integers(0, b, size=(a, 2))
        sel_edges = rng.integers(0, 4, size=(a, 2))
        leaf = states4[row_idx, parents, sel_edges, :]
        return leaf[:, :, :, None], np.arange(4, dtype=np.uint32)
    raise AssertionError(name)


_LAYOUTS = ("state_larger", "data_larger", "outer", "both_0d", "state_0d",
            "strided_view", "beam_gather")


class TestBroadcastLayouts:
    """one_at_a_time absorbs the state at its own shape before broadcasting.

    Every layout the decoder produces must still give the value and shape
    of the per-element Python transcription.
    """

    @given(layout=st.sampled_from(_LAYOUTS), seed=st.integers(0, 2**32 - 1),
           a=st.integers(1, 5), b=st.integers(1, 5))
    @settings(max_examples=100, deadline=None)
    def test_matches_python_transcription(self, layout, seed, a, b):
        state, data = _layout(layout, np.random.default_rng(seed), a, b)
        out = one_at_a_time(state, data)
        shape = np.broadcast_shapes(np.shape(state), np.shape(data))
        assert isinstance(out, np.ndarray)
        assert out.shape == shape and out.dtype == np.uint32
        flat_s = np.broadcast_to(state, shape).ravel()
        flat_d = np.broadcast_to(data, shape).ravel()
        expect = [_oaat_reference(int(s), int(d))
                  for s, d in zip(flat_s, flat_d)]
        assert out.ravel().tolist() == expect

    def test_inputs_untouched(self):
        """The in-place rounds never write through to the operands."""
        rng = np.random.default_rng(4)
        state, data = _layout("beam_gather", rng, 3, 4)
        before = (state.copy(), data.copy())
        one_at_a_time(state, data)
        assert np.array_equal(state, before[0])
        assert np.array_equal(data, before[1])


class TestVectorisation:
    @pytest.mark.parametrize("hash_fn", ALL_HASHES)
    def test_vector_matches_scalar(self, hash_fn):
        rng = np.random.default_rng(0)
        states = rng.integers(0, 2**32, size=100, dtype=np.uint32)
        datas = rng.integers(0, 2**32, size=100, dtype=np.uint32)
        vec = hash_fn(states, datas)
        for i in range(100):
            assert int(vec[i]) == _scalar(hash_fn, int(states[i]), int(datas[i]))

    @pytest.mark.parametrize("hash_fn", ALL_HASHES)
    def test_broadcasting(self, hash_fn):
        states = np.arange(5, dtype=np.uint32)
        datas = np.arange(3, dtype=np.uint32)
        out = hash_fn(states[:, None], datas[None, :])
        assert out.shape == (5, 3)
        assert int(out[2, 1]) == _scalar(hash_fn, 2, 1)

    @pytest.mark.parametrize("hash_fn", ALL_HASHES)
    def test_dtype(self, hash_fn):
        out = hash_fn(np.array([1], np.uint32), np.array([2], np.uint32))
        assert out.dtype == np.uint32


class TestMixingProperties:
    """The code's distance properties rest on hash outputs looking random."""

    @pytest.mark.parametrize("hash_fn", ALL_HASHES)
    def test_single_bit_input_change_flips_many_output_bits(self, hash_fn):
        rng = np.random.default_rng(1)
        states = rng.integers(0, 2**32, size=2000, dtype=np.uint32)
        data = rng.integers(0, 16, size=2000, dtype=np.uint32)
        base = hash_fn(states, data)
        flipped = hash_fn(states, data ^ np.uint32(1))
        diff_bits = np.unpackbits(
            (base ^ flipped).view(np.uint8).reshape(-1, 4), axis=1
        ).sum(axis=1)
        # Avalanche: average Hamming distance should be near 16 of 32 bits.
        assert 13.0 < diff_bits.mean() < 19.0
        assert (diff_bits > 0).all()

    @pytest.mark.parametrize("hash_fn", ALL_HASHES)
    def test_output_bits_balanced(self, hash_fn):
        rng = np.random.default_rng(2)
        states = rng.integers(0, 2**32, size=4000, dtype=np.uint32)
        out = hash_fn(states, np.uint32(5))
        bits = np.unpackbits(out.view(np.uint8).reshape(-1, 4), axis=1)
        means = bits.mean(axis=0)
        assert (means > 0.40).all() and (means < 0.60).all()

    @pytest.mark.parametrize("hash_fn", ALL_HASHES)
    def test_collision_rate_small(self, hash_fn):
        """~N^2/2^33 birthday collisions expected; assert no blow-up."""
        rng = np.random.default_rng(3)
        states = rng.integers(0, 2**32, size=20_000, dtype=np.uint32)
        out = hash_fn(states, np.uint32(9))
        n_unique = np.unique(out).size
        assert 20_000 - n_unique < 20  # expected ~0.05 collisions


class TestRegistry:
    def test_names(self):
        assert set(available_hashes()) == {"one_at_a_time", "lookup3", "salsa20"}

    def test_lookup(self):
        """get_hash returns the hash kernel for the name (compiled where it
        built), which gives the reference's words."""
        fn = get_hash("one_at_a_time")
        assert fn is hash_kernel("one_at_a_time")
        states = np.arange(7, dtype=np.uint32)
        assert np.array_equal(fn(states, states[::-1]),
                              one_at_a_time(states, states[::-1]))

    def test_unknown_raises(self):
        with pytest.raises(ValueError, match="unknown hash"):
            get_hash("md5")
