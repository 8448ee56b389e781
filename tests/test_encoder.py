"""Tests for the spinal encoder (§3)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.encoder import BatchSpinalEncoder, SpinalEncoder
from repro.core.params import SpinalParams
from repro.core.puncturing import transmission_plan
from repro.utils.bitops import random_message

from deadline import deadline


@pytest.fixture
def params():
    return SpinalParams(puncturing="none", tail_symbols=1)


class TestEncoderBasics:
    def test_rejects_indivisible_length(self, params):
        with pytest.raises(ValueError):
            SpinalEncoder(params, random_message(30, 0))  # 30 % 4 != 0

    def test_spine_length(self, params):
        enc = SpinalEncoder(params, random_message(64, 0))
        assert enc.n_spine == 16
        assert enc.spine.shape == (16,)

    def test_symbols_complex(self, params):
        enc = SpinalEncoder(params, random_message(32, 1))
        block = enc.generate(0)
        assert block.values.dtype == np.complex128
        assert len(block) == enc.n_spine  # tail=1: exactly one per spine

    def test_prefix_property(self, params):
        """Rateless prefix property: symbols at higher rates are a prefix
        of symbols at lower rates (§1, §3)."""
        enc = SpinalEncoder(params, random_message(64, 2))
        two_passes = enc.generate_passes(2)
        one_pass = enc.generate_passes(1)
        n = len(one_pass)
        assert np.array_equal(two_passes.values[:n], one_pass.values)

    def test_deterministic(self, params):
        msg = random_message(64, 3)
        a = SpinalEncoder(params, msg).generate_passes(2)
        b = SpinalEncoder(params, msg).generate_passes(2)
        assert np.array_equal(a.values, b.values)

    def test_regenerable_out_of_order(self, params):
        """Any subpass can be produced without generating earlier ones."""
        enc = SpinalEncoder(params, random_message(64, 4))
        all_blocks = enc.generate(0, 3)
        third = enc.generate(2, 1)
        n12 = len(enc.generate(0, 2))
        assert np.array_equal(all_blocks.values[n12:], third.values)

    def test_messages_differing_in_one_bit_diverge(self, params):
        """Encoded symbols become independent after the differing bit (§1)."""
        a = random_message(64, 5)
        b = a.copy()
        b[4] ^= 1  # chunk index 1
        ea = SpinalEncoder(params, a).generate_passes(1)
        eb = SpinalEncoder(params, b).generate_passes(1)
        assert ea.values[0] == eb.values[0]  # chunk 0 symbols identical
        assert not np.allclose(ea.values[1:], eb.values[1:])

    def test_average_power(self):
        """Mean complex symbol power should approximate P = 1."""
        params = SpinalParams(puncturing="none")
        enc = SpinalEncoder(params, random_message(1024, 6))
        block = enc.generate_passes(8)
        power = np.mean(np.abs(block.values) ** 2)
        assert power == pytest.approx(1.0, rel=0.1)


class TestBscEncoder:
    def test_bits_out(self):
        params = SpinalParams.bsc()
        enc = SpinalEncoder(params, random_message(64, 7))
        block = enc.generate_passes(1)
        assert block.values.dtype == np.uint8
        assert set(np.unique(block.values)) <= {0, 1}

    def test_bits_balanced(self):
        params = SpinalParams.bsc()
        enc = SpinalEncoder(params, random_message(512, 8))
        block = enc.generate_passes(20)
        assert 0.45 < block.values.mean() < 0.55


class TestPuncturedEncoder:
    def test_eight_way_subpass_sizes(self):
        params = SpinalParams(puncturing="8-way", tail_symbols=2)
        enc = SpinalEncoder(params, random_message(256, 9))  # n_spine=64
        sizes = [len(enc.generate(g)) for g in range(8)]
        # first subpass: 7 regular + 2 tail; others: 8 regular
        assert sizes[0] == 9
        assert sizes[1:] == [8] * 7
        assert sum(sizes) == enc.symbols_per_pass()

    def test_symbols_per_pass(self):
        params = SpinalParams(puncturing="8-way", tail_symbols=2)
        enc = SpinalEncoder(params, random_message(256, 10))
        assert enc.symbols_per_pass() == 63 + 2

    def test_hardware_profile_params(self):
        params = SpinalParams.hardware_profile()
        enc = SpinalEncoder(params, random_message(192, 11))
        assert params.c == 7
        block = enc.generate(0)
        assert len(block) > 0


class TestPassCache:
    """Each block is cut from a pass the encoder computed once; it must be
    exactly what encoding the block's own plan computes."""

    @given(schedule=st.sampled_from(["none", "2-way", "4-way", "8-way"]),
           n_spine=st.integers(1, 19), tail=st.integers(1, 3),
           bsc=st.booleans(), n_messages=st.integers(1, 3),
           seed=st.integers(0, 2**32 - 1), data=st.data())
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_blocks_match_their_plans_bit_for_bit(
            self, schedule, n_spine, tail, bsc, n_messages, seed, data):
        """Schedules with fewer and more spine positions than ways, AWGN
        and BSC, 1-3 messages with row subsets, and requests out of
        order, repeated and crossing pass boundaries."""
        make = SpinalParams.bsc if bsc else SpinalParams
        params = make(puncturing=schedule, tail_symbols=tail)
        messages = np.random.default_rng(seed).integers(
            0, 2, (n_messages, n_spine * params.k), dtype=np.uint8)
        encoder = BatchSpinalEncoder(params, messages)
        w = encoder.subpasses_per_pass
        requests = data.draw(st.lists(st.tuples(
            st.integers(0, 3 * w), st.integers(1, 2 * w + 1),
            st.one_of(st.none(), st.lists(
                st.integers(0, n_messages - 1), min_size=1,
                max_size=n_messages, unique=True))),
            min_size=1, max_size=6))
        with deadline(60):
            for first, n, rows in requests:
                rows = None if rows is None else np.array(rows)
                block = encoder.generate_batch(first, n, rows=rows)
                spine, slots = transmission_plan(
                    encoder._schedule, n_spine, tail, first, n)
                want = encoder.symbols_at(spine, slots, rows=rows)
                assert block.spine_indices.dtype == spine.dtype
                assert block.slots.dtype == slots.dtype
                assert np.array_equal(block.spine_indices, spine)
                assert np.array_equal(block.slots, slots)
                assert block.values.dtype == want.dtype
                assert block.values.shape == want.shape
                assert block.values.tobytes() == want.tobytes()
                for shared in (block.spine_indices, block.slots):
                    with pytest.raises(ValueError, match="read-only"):
                        shared[...] = 0
                # values are the caller's own: writing them leaves the
                # cached passes alone
                block.values[...] = 0
                again = encoder.generate_batch(first, n, rows=rows)
                assert again.values.tobytes() == want.tobytes()

    def test_a_pass_is_encoded_once(self, monkeypatch):
        """Every subpass of a pass, and a repeat, reuse its first encoding;
        the next pass is encoded when first requested."""
        params = SpinalParams(puncturing="8-way")
        encoder = SpinalEncoder(params, random_message(64, 3))
        calls = []
        symbols_at = encoder.symbols_at
        monkeypatch.setattr(encoder, "symbols_at", lambda *a, **kw: (
            calls.append(a[1].copy()), symbols_at(*a, **kw))[1])
        for g in (3, 0, 7, 3):
            encoder.generate(g)
        assert len(calls) == 1 and set(calls[0]) == {0, 1}  # pass 0's slots
        encoder.generate(6, 4)  # crosses into pass 1
        assert len(calls) == 2

    @pytest.mark.parametrize("first,n", [(-1, 1), (0, 0), (2, -1)])
    def test_empty_or_negative_spans_are_refused(self, first, n):
        encoder = SpinalEncoder(SpinalParams(), random_message(32, 4))
        with pytest.raises(ValueError, match="n_subpasses >= 1"):
            encoder.generate(first, n)
