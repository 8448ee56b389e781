"""Tests for the bubble decoder (§4)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.channels.awgn import AWGNChannel
from repro.channels.bsc import BSCChannel
from repro.core.decoder import BubbleDecoder
from repro.core.encoder import SpinalEncoder
from repro.core.params import DecoderParams, SpinalParams
from repro.core.symbols import BatchReceivedSymbols, ReceivedSymbols
from repro.utils.bitops import random_message


def _roundtrip(params, dec, n_bits, snr_db, n_passes, seed, channel_cls=AWGNChannel):
    """Encode, add noise, decode; return (decoded == message)."""
    msg = random_message(n_bits, seed)
    enc = SpinalEncoder(params, msg)
    block = enc.generate_passes(n_passes)
    channel = channel_cls(snr_db, rng=seed + 1)
    out = channel.transmit(block.values)
    store = ReceivedSymbols(enc.n_spine, complex_valued=not params.is_bsc)
    store.add_block(block.spine_indices, block.slots, out.values)
    decoder = BubbleDecoder(params, dec, n_bits)
    return decoder.decode(store).matches(msg)


class TestNoiselessDecoding:
    """With no noise, even B=1 greedy decoding must recover the message."""

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_noiseless_any_k(self, k):
        params = SpinalParams(k=k, puncturing="none", tail_symbols=1)
        msg = random_message(8 * k, 42 + k)
        enc = SpinalEncoder(params, msg)
        block = enc.generate_passes(1)
        store = ReceivedSymbols(enc.n_spine)
        store.add_block(block.spine_indices, block.slots, block.values)
        result = BubbleDecoder(params, DecoderParams(B=1, d=1), 8 * k).decode(store)
        assert result.matches(msg)

    def test_noiseless_cost_zero(self):
        params = SpinalParams(puncturing="none", tail_symbols=1)
        msg = random_message(32, 0)
        enc = SpinalEncoder(params, msg)
        block = enc.generate_passes(1)
        store = ReceivedSymbols(enc.n_spine)
        store.add_block(block.spine_indices, block.slots, block.values)
        result = BubbleDecoder(params, DecoderParams(B=4, d=1), 32).decode(store)
        assert result.path_cost == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_noiseless_any_depth(self, d):
        params = SpinalParams(k=2, puncturing="none", tail_symbols=1)
        msg = random_message(24, 7)
        enc = SpinalEncoder(params, msg)
        block = enc.generate_passes(1)
        store = ReceivedSymbols(enc.n_spine)
        store.add_block(block.spine_indices, block.slots, block.values)
        result = BubbleDecoder(params, DecoderParams(B=2, d=d), 24).decode(store)
        assert result.matches(msg)

    def test_depth_exceeding_tree_is_full_ml(self):
        """d >= n/k collapses to exact ML over the whole tree."""
        params = SpinalParams(k=2, puncturing="none", tail_symbols=1)
        msg = random_message(8, 3)  # n_spine = 4
        enc = SpinalEncoder(params, msg)
        block = enc.generate_passes(1)
        store = ReceivedSymbols(enc.n_spine)
        store.add_block(block.spine_indices, block.slots, block.values)
        result = BubbleDecoder(params, DecoderParams(B=1, d=10), 8).decode(store)
        assert result.matches(msg)


class TestNoisyAWGN:
    def test_high_snr_one_pass(self):
        params = SpinalParams(puncturing="none")
        assert _roundtrip(params, DecoderParams(B=64), 64, snr_db=25,
                          n_passes=1, seed=0)

    def test_medium_snr_more_passes(self):
        params = SpinalParams(puncturing="none")
        assert _roundtrip(params, DecoderParams(B=64), 96, snr_db=8,
                          n_passes=4, seed=1)

    def test_low_snr_many_passes(self):
        params = SpinalParams(puncturing="none")
        assert _roundtrip(params, DecoderParams(B=128), 64, snr_db=0,
                          n_passes=10, seed=2)

    def test_insufficient_symbols_fails(self):
        """Below capacity symbols, decoding must (almost surely) fail."""
        params = SpinalParams(puncturing="none")
        # 1 pass at -5 dB: rate 4 >> C = 0.4 -- undecodable
        assert not _roundtrip(params, DecoderParams(B=64), 128, snr_db=-5,
                              n_passes=1, seed=3)

    def test_wider_beam_not_worse(self):
        """B=256 succeeds in a regime where B=2 fails (beam matters)."""
        params = SpinalParams(puncturing="none")
        ok_wide = sum(
            _roundtrip(params, DecoderParams(B=256), 96, 6, 3, seed=s)
            for s in range(6)
        )
        ok_narrow = sum(
            _roundtrip(params, DecoderParams(B=2), 96, 6, 3, seed=s)
            for s in range(6)
        )
        assert ok_wide > ok_narrow

    def test_gaussian_constellation(self):
        params = SpinalParams(mapping_name="gaussian", puncturing="none")
        assert _roundtrip(params, DecoderParams(B=64), 64, snr_db=15,
                          n_passes=2, seed=4)

    def test_fading_with_csi(self):
        from repro.channels.fading import RayleighBlockFadingChannel

        params = SpinalParams(puncturing="none")
        msg = random_message(64, 5)
        enc = SpinalEncoder(params, msg)
        block = enc.generate_passes(6)
        channel = RayleighBlockFadingChannel(20, coherence_time=10, rng=6)
        out = channel.transmit(block.values)
        store = ReceivedSymbols(enc.n_spine)
        store.add_block(block.spine_indices, block.slots, out.values, csi=out.csi)
        result = BubbleDecoder(params, DecoderParams(B=128), 64).decode(store)
        assert result.matches(msg)


class TestNoisyBSC:
    def test_clean_bsc(self):
        params = SpinalParams.bsc()
        assert _roundtrip(params, DecoderParams(B=16), 64, 0.0, 6, seed=0,
                          channel_cls=BSCChannel)

    def test_noisy_bsc(self):
        """p = 0.05: C = 0.71 bits/use; 10 passes -> rate 0.4 < C."""
        params = SpinalParams.bsc()
        assert _roundtrip(params, DecoderParams(B=128), 64, 0.05, 10, seed=1,
                          channel_cls=BSCChannel)

    def test_very_noisy_bsc_fails_with_few_passes(self):
        params = SpinalParams.bsc()
        assert not _roundtrip(params, DecoderParams(B=32), 64, 0.4, 2, seed=2,
                              channel_cls=BSCChannel)


class TestPuncturedDecoding:
    def test_partial_pass_decodes_at_high_snr(self):
        """After the fix anchoring subpass 0 on the final spine value, a
        fraction of a pass suffices at high SNR (the point of §5)."""
        params = SpinalParams(puncturing="8-way", tail_symbols=2)
        msg = random_message(256, 8)
        enc = SpinalEncoder(params, msg)
        block = enc.generate(0, 4)  # half a pass
        channel = AWGNChannel(30, rng=9)
        out = channel.transmit(block.values)
        store = ReceivedSymbols(enc.n_spine)
        store.add_block(block.spine_indices, block.slots, out.values)
        result = BubbleDecoder(params, DecoderParams(B=256), 256).decode(store)
        assert result.matches(msg)

    def test_missing_positions_zero_cost(self):
        """Decoding with an empty store returns *some* message with zero
        cost (all branch costs are zero)."""
        params = SpinalParams(puncturing="8-way")
        store = ReceivedSymbols(16)
        result = BubbleDecoder(params, DecoderParams(B=8), 64).decode(store)
        assert result.path_cost == 0.0
        assert result.message_bits.size == 64


class TestDepthEquivalence:
    """Fig 8-7: same node count, different (B, d) splits."""

    @pytest.mark.parametrize("B,d", [(64, 1), (8, 2), (1, 3)])
    def test_constant_work_configs_decode_high_snr(self, B, d):
        params = SpinalParams(k=3, puncturing="none")
        ok = sum(
            _roundtrip(params, DecoderParams(B=B, d=d), 96, 20, 1, seed=s)
            for s in range(4)
        )
        assert ok >= 3

    def test_d1_equals_m_algorithm_reference(self):
        """d=1 must match a straightforward M-algorithm implementation."""
        params = SpinalParams(k=2, puncturing="none", tail_symbols=1)
        msg = random_message(24, 11)
        enc = SpinalEncoder(params, msg)
        block = enc.generate_passes(3)
        channel = AWGNChannel(5, rng=12)
        out = channel.transmit(block.values)
        store = ReceivedSymbols(enc.n_spine)
        store.add_block(block.spine_indices, block.slots, out.values)

        result = BubbleDecoder(params, DecoderParams(B=4, d=1), 24).decode(store)
        reference = _m_algorithm_reference(params, store, n_bits=24, B=4)
        assert np.array_equal(result.message_bits, reference)


def _m_algorithm_reference(params, store, n_bits, B):
    """Deliberately naive beam search used as an oracle for d=1."""
    from repro.core.rng import SpinalRNG

    k = params.k
    rng = SpinalRNG(params.hash_fn, params.c)
    mapping = params.make_mapping()
    beam = [(0.0, params.s0, [])]  # (cost, state, chunks)
    for i in range(n_bits // k):
        slots, values, _ = store.for_spine(i)
        cands = []
        for cost, state, chunks in beam:
            for e in range(1 << k):
                child = int(params.hash_fn(
                    np.array([state], np.uint32), np.array([e], np.uint32))[0])
                bc = 0.0
                for t, y in zip(slots, values):
                    w = int(rng.words(np.array([child], np.uint32), int(t))[0])
                    xi = mapping.levels[w & ((1 << params.c) - 1)]
                    xq = mapping.levels[(w >> params.c) & ((1 << params.c) - 1)]
                    bc += abs(y - (xi + 1j * xq)) ** 2
                cands.append((cost + bc, child, chunks + [e]))
        cands.sort(key=lambda t: t[0])
        beam = cands[:B]
    best = beam[0]
    from repro.utils.bitops import pack_chunks

    return pack_chunks(np.array(best[2], dtype=np.uint32), k)


class TestDecodeResult:
    def test_symbol_count_recorded(self):
        params = SpinalParams(puncturing="none", tail_symbols=1)
        msg = random_message(32, 13)
        enc = SpinalEncoder(params, msg)
        block = enc.generate_passes(2)
        store = ReceivedSymbols(enc.n_spine)
        store.add_block(block.spine_indices, block.slots, block.values)
        result = BubbleDecoder(params, DecoderParams(B=4), 32).decode(store)
        assert result.n_symbols_used == len(block)

    def test_mismatched_store_raises(self):
        params = SpinalParams()
        store = ReceivedSymbols(10)
        with pytest.raises(ValueError):
            BubbleDecoder(params, DecoderParams(), 64).decode(store)

    def test_one_message_decode_rejects_a_cohort_view(self):
        params = SpinalParams()
        store = BatchReceivedSymbols(params.n_spine(32), 2)
        view = store.prefix(np.arange(2), store.checkpoint())
        with pytest.raises(ValueError, match="decode_batch"):
            BubbleDecoder(params, DecoderParams(), 32).decode(view)


@given(st.integers(0, 1000))
@settings(max_examples=10, deadline=None)
def test_roundtrip_property_high_snr(seed):
    """Any random message decodes under ample SNR and symbols."""
    params = SpinalParams(puncturing="none")
    assert _roundtrip(params, DecoderParams(B=32), 64, snr_db=20,
                      n_passes=2, seed=seed)
