"""Golden decode vectors: literal bubble-decoder outputs, pinned.

Each case builds a three-message cohort over a fixed seed, decodes it as
one batch and each message on its own, and compares against literals
captured from the decoder before the scalar and batch searches were
merged: the message bits as hex, ``path_cost.hex()`` and
``n_symbols_used``.  A change to the search, the branch-cost kernels, the
symbol store or the encoder that moves any output by one bit or one ulp
turns these red.
"""

import numpy as np
import pytest

from repro.channels import AWGNChannel, BSCChannel, RayleighBlockFadingChannel
from repro.core.decoder import BatchBubbleDecoder, BubbleDecoder
from repro.core.encoder import BatchSpinalEncoder
from repro.core.params import DecoderParams, SpinalParams
from repro.core.symbols import BatchReceivedSymbols, ReceivedSymbols
from repro.simulation.engine import received_view
from repro.utils.bitops import random_message

M = 3

#: name -> (params, decoder params, n_bits, channel factory, CSI mode,
#: subpasses sent)
CASES = {
    "bsc": (SpinalParams.bsc(), DecoderParams(B=8), 32,
            lambda rng: BSCChannel(0.08, rng=rng), "none", 40),
    "phase-csi": (SpinalParams(), DecoderParams(B=16), 32,
                  lambda rng: RayleighBlockFadingChannel(
                      10, coherence_time=5, rng=rng), "phase", 10),
    "full-csi": (SpinalParams(), DecoderParams(B=16), 32,
                 lambda rng: RayleighBlockFadingChannel(
                     10, coherence_time=5, rng=rng), "full", 10),
    "d2": (SpinalParams(k=2, puncturing="4-way"), DecoderParams(B=4, d=2), 24,
           lambda rng: AWGNChannel(4, rng=rng), "none", 5),
    # Subpass 0 of 8-way puncturing leaves most spine positions empty.
    "punctured-first-subpass": (SpinalParams(), DecoderParams(B=8), 48,
                                lambda rng: AWGNChannel(20, rng=rng),
                                "none", 1),
}

#: name -> per message: (message bits hex, path_cost.hex(), n_symbols_used)
GOLDEN = {
    'bsc': [
        ('6f085f8f', '0x1.4000000000000p+2', 45),
        ('a290b2da', '0x0.0p+0', 45),
        ('7e41b4c9', '0x1.4000000000000p+2', 45),
    ],
    'd2': [
        ('fdb193', '0x1.dd36304bc7f32p+2', 17),
        ('a2a290', '0x1.48b3fbbfed8dbp+2', 17),
        ('b2da9f', '0x1.5e34679717ef3p+2', 17),
    ],
    'full-csi': [
        ('fae6cf76', '0x1.d39d1fc55cd18p+0', 12),
        ('a290b2da', '0x1.0cd22b00f7945p+0', 12),
        ('9f9ce42e', '0x1.67da0d1cd827ep+0', 12),
    ],
    'phase-csi': [
        ('9d31c5ed', '0x1.70510951ff570p+2', 12),
        ('a2974b2c', '0x1.a4f5abf38b622p+0', 12),
        ('9f9c5530', '0x1.184f06833e09fp+1', 12),
    ],
    'punctured-first-subpass': [
        ('00220000004a', '0x1.ff037dc17f04ap-3', 3),
        ('007000000061', '0x1.bab6c16477f19p-3', 3),
        ('006400000007', '0x1.68ccbd96b63ccp-3', 3),
    ],
}


def _cohort(name):
    """(params, decoder params, n_bits, shared block, per-row (values, csi))."""
    params, dec, n_bits, make_channel, mode, n_subpasses = CASES[name]
    rng = np.random.default_rng(1234)
    messages = np.stack([random_message(n_bits, rng) for _ in range(M)])
    block = BatchSpinalEncoder(params, messages).generate_batch(0, n_subpasses)
    rows = []
    for m in range(M):
        channel = make_channel(np.random.default_rng(77 + m))
        values, csi = received_view(channel.transmit(block.values[m]), mode)
        rows.append((values, csi))
    return params, dec, n_bits, block, rows


def _literal(result):
    bits = result.message_bits
    return (np.packbits(bits).tobytes().hex(), result.path_cost.hex(),
            result.n_symbols_used)


@pytest.mark.parametrize("name", sorted(CASES))
def test_one_message_decode_matches_golden(name):
    params, dec, n_bits, block, rows = _cohort(name)
    decoder = BubbleDecoder(params, dec, n_bits)
    for m, (values, csi) in enumerate(rows):
        store = ReceivedSymbols(params.n_spine(n_bits),
                                complex_valued=not params.is_bsc)
        store.add_block(block.spine_indices, block.slots, values, csi=csi)
        assert _literal(decoder.decode(store)) == GOLDEN[name][m]


@pytest.mark.parametrize("name", sorted(CASES))
def test_cohort_decode_matches_golden(name):
    params, dec, n_bits, block, rows = _cohort(name)
    store = BatchReceivedSymbols(params.n_spine(n_bits), M,
                                 complex_valued=not params.is_bsc)
    csi = None if rows[0][1] is None else np.stack([c for _, c in rows])
    store.add_block(block.spine_indices, block.slots,
                    np.stack([v for v, _ in rows]), csi=csi)
    decoder = BatchBubbleDecoder(params, dec, n_bits)
    ckpt = store.checkpoint()
    results = decoder.decode_batch(store.prefix(np.arange(M), ckpt))
    assert [_literal(r) for r in results] == GOLDEN[name]
    # A non-contiguous row subset and a single row decode the same rows.
    pair = decoder.decode_batch(store.prefix(np.array([2, 0]), ckpt))
    assert [_literal(r) for r in pair] == [GOLDEN[name][2], GOLDEN[name][0]]
    one = decoder.decode_batch(store.prefix(np.array([1]), ckpt))
    assert [_literal(r) for r in one] == [GOLDEN[name][1]]
