"""Tests for spine construction and puncturing schedules (§3.1, §5)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.hashes import one_at_a_time
from repro.core.puncturing import (
    NoPuncturing,
    StridedPuncturing,
    make_schedule,
    transmission_plan,
)
from repro.core.spine import spine_states_batch
from repro.utils.bitops import random_message


def spine_states(hash_fn, k, message_bits, s0=0):
    """The ``(n/k,)`` uint32 spine of one message (encoder side): entry i
    is ``s_{i+1}`` in the paper's numbering (the state *after* absorbing
    chunk i), the one-message row of :func:`spine_states_batch`."""
    messages = np.asarray(message_bits, dtype=np.uint8).reshape(1, -1)
    return spine_states_batch(hash_fn, k, messages, s0)[0]


def expand_states(hash_fn, k, states):
    """All ``2^k`` child states of each input state (decoder-side
    expansion): shape ``(..., 2^k)``, the last axis the k-bit edge
    value."""
    states = np.asarray(states, dtype=np.uint32)
    return hash_fn(states[..., None], np.arange(1 << k, dtype=np.uint32))


class TestSpine:
    def test_length(self):
        msg = random_message(64, 0)
        assert spine_states(one_at_a_time, 4, msg).shape == (16,)

    def test_sequential_definition(self):
        """s_i = h(s_{i-1}, chunk_i) with s_0 = 0."""
        msg = np.array([1, 0, 1, 1, 0, 1, 0, 0], dtype=np.uint8)
        spine = spine_states(one_at_a_time, 4, msg, s0=0)
        s1 = one_at_a_time(np.array([0], np.uint32), np.array([0b1011], np.uint32))
        s2 = one_at_a_time(s1, np.array([0b0100], np.uint32))
        assert int(spine[0]) == int(s1[0])
        assert int(spine[1]) == int(s2[0])

    def test_prefix_property(self):
        """Messages sharing a prefix share the spine prefix (§4.2)."""
        a = random_message(64, 1)
        b = a.copy()
        b[32] ^= 1  # differ from chunk 8 onward (k=4)
        sa = spine_states(one_at_a_time, 4, a)
        sb = spine_states(one_at_a_time, 4, b)
        assert np.array_equal(sa[:8], sb[:8])
        assert not np.array_equal(sa[8:], sb[8:])

    def test_single_bit_diverges_spine(self):
        """One flipped bit makes all later spine values dissimilar."""
        a = random_message(64, 2)
        b = a.copy()
        b[0] ^= 1
        sa = spine_states(one_at_a_time, 4, a)
        sb = spine_states(one_at_a_time, 4, b)
        assert not (sa == sb).any()

    def test_s0_matters(self):
        msg = random_message(32, 3)
        assert not np.array_equal(
            spine_states(one_at_a_time, 4, msg, s0=0),
            spine_states(one_at_a_time, 4, msg, s0=12345),
        )

    def test_expand_matches_spine(self):
        """Child via expand_states equals the encoder's next spine value."""
        msg = random_message(16, 4)
        spine = spine_states(one_at_a_time, 4, msg)
        children = expand_states(one_at_a_time, 4, spine[:1])
        chunk2 = int("".join(map(str, msg[4:8])), 2)
        assert int(children[0, chunk2]) == int(spine[1])

    def test_expand_shapes(self):
        states = np.arange(6, dtype=np.uint32).reshape(2, 3)
        out = expand_states(one_at_a_time, 3, states)
        assert out.shape == (2, 3, 8)


class TestSchedules:
    def test_none_sends_everything(self):
        s = NoPuncturing()
        assert s.positions(10, 0).tolist() == list(range(10))

    def test_none_single_subpass(self):
        with pytest.raises(IndexError):
            NoPuncturing().positions(10, 1)

    @pytest.mark.parametrize("ways", [2, 4, 8])
    def test_strided_partition(self, ways):
        """Each pass covers every spine position exactly once."""
        s = StridedPuncturing(ways)
        n = 64
        all_pos = np.concatenate([s.positions(n, j) for j in range(ways)])
        assert sorted(all_pos.tolist()) == list(range(n))

    @pytest.mark.parametrize("ways", [2, 4, 8])
    @pytest.mark.parametrize("n_spine", [16, 63, 64, 65, 100])
    def test_last_position_in_first_subpass(self, ways, n_spine):
        """Tail symbols must arrive first (end-of-message discrimination)."""
        s = StridedPuncturing(ways)
        assert n_spine - 1 in s.positions(n_spine, 0)

    def test_non_power_of_two_rejected(self):
        with pytest.raises(ValueError):
            StridedPuncturing(3)

    def test_factory(self):
        assert isinstance(make_schedule("none"), NoPuncturing)
        assert make_schedule("8-way").subpasses_per_pass == 8
        with pytest.raises(ValueError):
            make_schedule("9-way")
        with pytest.raises(ValueError):
            make_schedule("wat")

    def test_first_subpass_spreads(self):
        """Early subpasses leave uniform gaps (bit-reversed residues)."""
        s = StridedPuncturing(8)
        p0 = s.positions(64, 0)
        p1 = s.positions(64, 1)
        merged = np.sort(np.concatenate([p0, p1]))
        gaps = np.diff(merged)
        assert gaps.max() == 4  # two subpasses halve the stride


class TestTransmissionPlan:
    def test_pass_symbol_count(self):
        """One pass = n_spine - 1 regular + tail symbols."""
        s = make_schedule("8-way")
        spine_idx, slots = transmission_plan(s, 64, tail_symbols=2,
                                             first_subpass=0, n_subpasses=8)
        assert spine_idx.size == 63 + 2

    def test_no_puncturing_plan(self):
        s = make_schedule("none")
        spine_idx, slots = transmission_plan(s, 8, tail_symbols=1,
                                             first_subpass=0, n_subpasses=2)
        assert spine_idx.size == 16
        # second pass uses slot 1 everywhere
        assert set(slots[8:].tolist()) == {1}

    def test_tail_slots_advance_per_pass(self):
        s = make_schedule("none")
        _, slots0 = transmission_plan(s, 8, 3, first_subpass=0, n_subpasses=1)
        _, slots1 = transmission_plan(s, 8, 3, first_subpass=1, n_subpasses=1)
        # pass 0 tail slots: 0,1,2; pass 1 tail slots: 3,4,5
        assert slots0[-3:].tolist() == [0, 1, 2]
        assert slots1[-3:].tolist() == [3, 4, 5]

    def test_concatenation_invariance(self):
        """Generating subpasses one at a time equals one big call."""
        s = make_schedule("4-way")
        big_sp, big_sl = transmission_plan(s, 32, 2, 0, 12)
        parts = [transmission_plan(s, 32, 2, g, 1) for g in range(12)]
        cat_sp = np.concatenate([p[0] for p in parts])
        cat_sl = np.concatenate([p[1] for p in parts])
        assert np.array_equal(big_sp, cat_sp)
        assert np.array_equal(big_sl, cat_sl)

    @given(st.integers(1, 4), st.integers(0, 20))
    @settings(max_examples=20)
    def test_slots_unique_per_spine(self, tail, n_subpasses):
        """No (spine, slot) pair is ever transmitted twice."""
        s = make_schedule("8-way")
        spine_idx, slots = transmission_plan(s, 24, tail, 0, n_subpasses)
        pairs = set(zip(spine_idx.tolist(), slots.tolist()))
        assert len(pairs) == spine_idx.size
