"""Cross-cutting property-based tests (hypothesis) on core invariants.

These sweep parameter combinations the fixed-value unit tests don't:
arbitrary (k, c, puncturing, tail) configurations must keep the
encoder/decoder pair consistent, the transmission plan collision-free,
and the noiseless channel invertible; arbitrary payload lists, framing and
feedback delays must keep a link session's symbol accounting exact and let
it terminate.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.channels import AWGNChannel, SharedChannel
from repro.core.decoder import BubbleDecoder
from repro.core.encoder import SpinalEncoder
from repro.core.params import DecoderParams, SpinalParams
from repro.core.puncturing import make_schedule, transmission_plan
from repro.core.symbols import ReceivedSymbols
from repro.link import LinkConfig, LinkSession
from repro.utils.bitops import bits_from_bytes, random_message

from deadline import deadline

configs = st.fixed_dictionaries({
    "k": st.integers(1, 6),
    "c": st.integers(2, 8),
    "puncturing": st.sampled_from(["none", "2-way", "4-way", "8-way"]),
    "tail_symbols": st.integers(1, 3),
    "mapping_name": st.sampled_from(["uniform", "gaussian"]),
    "s0": st.integers(0, 2**32 - 1),
})


@given(configs, st.integers(0, 10_000))
@settings(max_examples=25, deadline=None, derandomize=True)
def test_noiseless_roundtrip_any_config(cfg, seed):
    """Every legal parameter set decodes its own noiseless transmission.

    Each pass shows the decoder 2c coded bits per spine value against k
    unknown message bits, so at small c a two-pass prefix can genuinely
    collide between two messages (path cost 0 for both) — a property of
    the code, not a decoder defect.  Send enough passes for a comfortable
    information margin, and derandomize so CI sees a fixed example set.
    """
    params = SpinalParams(**cfg)
    n_bits = 8 * cfg["k"]  # 8 spine values
    msg = random_message(n_bits, seed)
    enc = SpinalEncoder(params, msg)
    n_passes = max(2, -(-(cfg["k"] + 8) // (2 * cfg["c"])))
    block = enc.generate_passes(n_passes)
    store = ReceivedSymbols(enc.n_spine)
    store.add_block(block.spine_indices, block.slots, block.values)
    dec = BubbleDecoder(params, DecoderParams(B=32, d=1), n_bits)
    assert dec.decode(store).matches(msg)


@given(configs)
@settings(max_examples=25, deadline=None)
def test_prefix_property_any_config(cfg):
    """Rateless prefix property holds for every configuration."""
    params = SpinalParams(**cfg)
    n_bits = 16 * cfg["k"]
    enc = SpinalEncoder(params, random_message(n_bits, 1))
    long = enc.generate_passes(3)
    short = enc.generate_passes(1)
    assert np.array_equal(long.values[: len(short)], short.values)
    assert np.array_equal(long.spine_indices[: len(short)],
                          short.spine_indices)


@given(
    st.sampled_from(["none", "2-way", "4-way", "8-way"]),
    st.integers(2, 100),
    st.integers(1, 4),
    st.integers(1, 30),
)
@settings(max_examples=40, deadline=None)
def test_plan_covers_each_pass_exactly_once(sched_name, n_spine, tail, _):
    """Every pass transmits each spine position exactly once, with the
    final position carrying ``tail`` slots (§3.3, §4.4, §5)."""
    schedule = make_schedule(sched_name)
    w = schedule.subpasses_per_pass
    spine_idx, slots = transmission_plan(schedule, n_spine, tail, 0, w)
    counts = np.bincount(spine_idx, minlength=n_spine)
    assert (counts[:-1] == 1).all()
    assert counts[-1] == tail
    # slots for regular positions are the pass index (0 here)
    regular = spine_idx != n_spine - 1
    assert (slots[regular] == 0).all()


@given(st.integers(1, 6), st.integers(0, 2**31))
@settings(max_examples=15, deadline=None)
def test_decoder_output_length_invariant(k, seed):
    """The decoder always returns exactly n bits, decodable or not."""
    params = SpinalParams(k=k)
    n_bits = 6 * k
    store = ReceivedSymbols(6)
    result = BubbleDecoder(params, DecoderParams(B=4), n_bits).decode(store)
    assert result.message_bits.size == n_bits
    assert set(np.unique(result.message_bits)) <= {0, 1}


@given(st.integers(1, 8), st.integers(0, 1000))
@settings(max_examples=20, deadline=None)
def test_path_cost_monotone_in_noise(b_exp, seed):
    """More noise on the same transmission cannot reduce the best path
    cost below the noiseless optimum (which is 0)."""
    from repro.channels.awgn import AWGNChannel

    params = SpinalParams(puncturing="none", tail_symbols=1)
    msg = random_message(32, seed)
    enc = SpinalEncoder(params, msg)
    block = enc.generate_passes(1)
    noisy = AWGNChannel(8, rng=seed).transmit(block.values).values
    store_clean = ReceivedSymbols(enc.n_spine)
    store_clean.add_block(block.spine_indices, block.slots, block.values)
    store_noisy = ReceivedSymbols(enc.n_spine)
    store_noisy.add_block(block.spine_indices, block.slots, noisy)
    dec = BubbleDecoder(params, DecoderParams(B=2**b_exp), 32)
    assert dec.decode(store_clean).path_cost <= dec.decode(store_noisy).path_cost + 1e-9


link_payloads = st.lists(st.binary(min_size=1, max_size=48),
                         min_size=1, max_size=3)


@given(link_payloads, st.booleans(), st.integers(0, 32),
       st.sampled_from([3.0, 10.0, 18.0]), st.integers(0, 2**16))
@settings(max_examples=8, deadline=None, derandomize=True)
def test_link_session_conserves_symbols_and_terminates(
        datagrams, framing, feedback_delay, snr_db, seed):
    """Any payload list, framing and feedback delay drains the backlog:
    one result per payload in order, per-packet symbols summing to the
    channel total, and a clock no shorter than the symbols it carried."""
    cfg = LinkConfig(framing=framing, max_block_bits=256,
                     feedback_delay=feedback_delay)
    # unframed payloads are bit arrays; 8 bits a byte is a multiple of k=4
    payloads = datagrams if framing else [bits_from_bytes(d)
                                          for d in datagrams]
    # max_passes=3 gives up at 3 dB, so give-ups are accounted too
    dec = DecoderParams(B=16, max_passes=3)
    link = SharedChannel(AWGNChannel(snr_db, rng=seed))
    with deadline(60):
        results = LinkSession(SpinalParams(), dec, link, cfg).run(payloads)
    assert [r.seq for r in results] == list(range(len(payloads)))
    assert sum(r.symbols for r in results) == link.symbols_sent
    assert link.time >= link.symbols_sent
