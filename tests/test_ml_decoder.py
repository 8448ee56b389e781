"""Exact-ML oracle tests: the bubble decoder approximates ML (paper §4).

These tests pin the relationship the paper proves: the unpruned bubble
decoder IS the ML decoder, and a well-provisioned pruned decoder almost
always matches it.  The oracle, :class:`MLDecoder`, is brute-force
evaluation of equation (4.1) (§4.1): replay the encoder for every possible
message and return the one whose symbols are closest to the received
vector.  Exponential in n, so usable only for small messages; §4.3 notes
that ``d = n/k`` (no pruning) recovers it exactly.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.channels.awgn import AWGNChannel
from repro.channels.bsc import BSCChannel
from repro.core.decoder import BubbleDecoder, DecodeResult
from repro.core.encoder import SpinalEncoder
from repro.core.params import DecoderParams, SpinalParams
from repro.core.rng import SpinalRNG
from repro.core.symbols import ReceivedSymbols
from repro.utils.bitops import pack_chunks, random_message

_MAX_ML_BITS = 24


class MLDecoder:
    """Exact ML decoder by exhaustive tree expansion (small n only)."""

    def __init__(self, params: SpinalParams, n_bits: int):
        if n_bits > _MAX_ML_BITS:
            raise ValueError(
                f"exact ML is exponential; refusing n > {_MAX_ML_BITS} bits"
            )
        self.params = params
        self.n_bits = n_bits
        self.n_spine = params.n_spine(n_bits)
        self._rng = SpinalRNG(params.hash_fn, params.c)
        self._mapping = params.make_mapping()
        self._mask = np.uint32((1 << params.c) - 1)

    def _costs(
        self, states: np.ndarray, spine_idx: int, received: ReceivedSymbols
    ) -> np.ndarray:
        slots, values, csi = received.for_spine(spine_idx)
        if slots.size == 0:
            return np.zeros(states.size)
        words = self._rng.words(states[None, :], slots[:, None])
        if self.params.is_bsc:
            bits = (words & np.uint32(1)).astype(np.float64)
            return np.abs(bits - values[:, None]).sum(axis=0)
        c = self.params.c
        x_i = self._mapping.levels[(words & self._mask).astype(np.intp)]
        x_q = self._mapping.levels[
            ((words >> np.uint32(c)) & self._mask).astype(np.intp)]
        x = x_i + 1j * x_q
        if csi is not None:
            x = csi[:, None] * x
        d = values[:, None] - x
        return (d.real**2 + d.imag**2).sum(axis=0)

    def decode(self, received: ReceivedSymbols) -> DecodeResult:
        """Search all 2^n messages; returns the exact argmin of (4.1)."""
        k = self.params.k
        big_k = 1 << k
        states = np.array([self.params.s0], dtype=np.uint32)
        costs = np.zeros(1)
        for step in range(self.n_spine):
            children = self.params.hash_fn(
                states[:, None], np.arange(big_k, dtype=np.uint32)).ravel()
            costs = (np.repeat(costs, big_k)
                     + self._costs(children, step, received))
            states = children
        best = int(np.argmin(costs))
        # index in base 2^k spells the message chunks, MSB-first
        digits = []
        idx = best
        for _ in range(self.n_spine):
            digits.append(idx % big_k)
            idx //= big_k
        message = pack_chunks(np.asarray(list(reversed(digits)),
                                         dtype=np.uint32), k)
        return DecodeResult(message, float(costs[best]), received.n_symbols)


def _received(params, msg, snr_db, n_passes, seed, channel_cls=AWGNChannel):
    enc = SpinalEncoder(params, msg)
    block = enc.generate_passes(n_passes)
    out = channel_cls(snr_db, rng=seed).transmit(block.values)
    store = ReceivedSymbols(enc.n_spine, complex_valued=not params.is_bsc)
    store.add_block(block.spine_indices, block.slots, out.values)
    return store


class TestMLDecoder:
    def test_refuses_large_n(self):
        with pytest.raises(ValueError):
            MLDecoder(SpinalParams(), 64)

    def test_noiseless_exact(self):
        params = SpinalParams(k=2, puncturing="none", tail_symbols=1)
        msg = random_message(12, 0)
        store = _received(params, msg, 60, 1, seed=1)
        result = MLDecoder(params, 12).decode(store)
        assert result.matches(msg)
        assert result.path_cost < 1e-4  # 60 dB residual noise, not exactly 0

    def test_noisy_ml_is_argmin(self):
        """ML output must have cost <= the true message's cost."""
        params = SpinalParams(k=2, puncturing="none", tail_symbols=1)
        msg = random_message(12, 2)
        store = _received(params, msg, 2, 3, seed=3)
        ml = MLDecoder(params, 12).decode(store)
        # compute the true message's cost through an unpruned bubble run
        full = BubbleDecoder(params, DecoderParams(B=1 << 12, d=1), 12)
        best = full.decode(store)
        assert ml.path_cost == pytest.approx(best.path_cost, rel=1e-9)
        assert np.array_equal(ml.message_bits, best.message_bits)

    @given(st.integers(0, 500), st.sampled_from([0.0, 6.0, 15.0]))
    @settings(max_examples=12, deadline=None)
    def test_unpruned_bubble_equals_ml(self, seed, snr):
        """d >= n/k (or B covering the tree) recovers exact ML (§4.3)."""
        params = SpinalParams(k=2, puncturing="none", tail_symbols=1)
        msg = random_message(10, seed)
        store = _received(params, msg, snr, 2, seed=seed + 1)
        ml = MLDecoder(params, 10).decode(store)
        bubble = BubbleDecoder(params, DecoderParams(B=1, d=8), 10).decode(store)
        assert np.array_equal(ml.message_bits, bubble.message_bits)

    @given(st.integers(0, 200))
    @settings(max_examples=8, deadline=None)
    def test_wide_beam_matches_ml_at_moderate_snr(self, seed):
        """B = 64 on a 2^10 tree nearly always finds the ML word."""
        params = SpinalParams(k=2, puncturing="none", tail_symbols=1)
        msg = random_message(10, seed + 50)
        store = _received(params, msg, 8, 2, seed=seed + 51)
        ml = MLDecoder(params, 10).decode(store)
        pruned = BubbleDecoder(
            params, DecoderParams(B=64, d=1), 10).decode(store)
        assert pruned.path_cost >= ml.path_cost - 1e-9

    def test_bsc_ml(self):
        params = SpinalParams.bsc(k=2)
        msg = random_message(12, 7)
        enc = SpinalEncoder(params, msg)
        block = enc.generate_passes(8)
        out = BSCChannel(0.05, rng=8).transmit(block.values)
        store = ReceivedSymbols(enc.n_spine, complex_valued=False)
        store.add_block(block.spine_indices, block.slots, out.values)
        result = MLDecoder(params, 12).decode(store)
        assert result.matches(msg)
