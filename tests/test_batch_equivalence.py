"""Cohort-size invariance of the decode pipeline, bit for bit.

There is one pipeline, and a single message (:class:`SpinalSession`) is a
one-row cohort of it.  Its contract is strict: running M messages as one
:class:`BatchSession` cohort must reproduce the same messages run in any
split into smaller cohorts *exactly* — same success flags, symbol counts,
subpass counts, attempt counts, and (floating-point identical) path costs —
because each message keeps its own channel/RNG and the kernels never mix
rows.  These tests pin that contract on AWGN, BSC and Rayleigh block
fading (under every CSI policy the receiver supports), across puncturing
schedules and pruning depths, including failing messages, and at the
measurement layer (`measure_scheme` with and without ``batch_size``).
Decodes are also checked against the reference search of
``tests/reference_decoder.py``.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.channels import AWGNChannel, BSCChannel, RayleighBlockFadingChannel
from repro.core.decoder import BatchBubbleDecoder, BubbleDecoder
from repro.core.encoder import BatchSpinalEncoder, SpinalEncoder
from repro.core.params import DecoderParams, SpinalParams
from repro.core.symbols import (
    BatchReceivedSymbols,
    ReceivedSymbols,
    _scatter_layout,
)
from repro.simulation import (
    BatchSession,
    SpinalScheme,
    SpinalSession,
    measure_scheme,
)
from repro.utils.bitops import random_message

from reference_decoder import reference_decode


def _cohort(make_channel, n_bits, n_messages, seed):
    """(messages, channels, fresh-channel factory) with per-message seeds.

    Mirrors measure_scheme's seeding: one child seed per message drives the
    channel noise and the message draw, so scalar and batch runs can be
    handed identical inputs.
    """
    master = np.random.default_rng(seed)
    seeds = [int(master.integers(0, 2**63)) for _ in range(n_messages)]

    def build(child_seed):
        rng = np.random.default_rng(child_seed)
        channel = make_channel(rng)
        message = random_message(n_bits, rng)
        return message, channel

    pairs = [build(s) for s in seeds]
    messages = np.stack([m for m, _ in pairs])
    channels = [c for _, c in pairs]
    rebuild = lambda: _cohort(make_channel, n_bits, n_messages, seed)  # noqa: E731
    return messages, channels, rebuild


def _assert_results_identical(scalar_results, batch_results):
    assert len(scalar_results) == len(batch_results)
    for i, (a, b) in enumerate(zip(scalar_results, batch_results)):
        assert a.success == b.success, f"message {i}: success differs"
        assert a.n_symbols == b.n_symbols, f"message {i}: n_symbols differs"
        assert a.n_subpasses == b.n_subpasses, f"message {i}: n_subpasses differs"
        assert a.n_attempts == b.n_attempts, f"message {i}: n_attempts differs"
        assert a.n_bits == b.n_bits
        if np.isnan(a.path_cost):
            assert np.isnan(b.path_cost), f"message {i}: path_cost differs"
        else:
            # Bitwise equality, not approx: the batch kernels must preserve
            # the scalar arithmetic exactly.
            assert a.path_cost == b.path_cost, f"message {i}: path_cost differs"


CONFIGS = [
    # (params, decoder_params, n_bits, channel factory, label)
    pytest.param(
        SpinalParams(), DecoderParams(B=32, max_passes=12), 96,
        lambda rng: AWGNChannel(12, rng=rng), id="awgn-8way"),
    pytest.param(
        SpinalParams(puncturing="none"), DecoderParams(B=16, max_passes=10), 64,
        lambda rng: AWGNChannel(8, rng=rng), id="awgn-nopunct"),
    pytest.param(
        SpinalParams(k=2, puncturing="4-way"),
        DecoderParams(B=8, d=2, max_passes=12), 48,
        lambda rng: AWGNChannel(10, rng=rng), id="awgn-4way-d2"),
    pytest.param(
        SpinalParams(k=3, puncturing="2-way", tail_symbols=3),
        DecoderParams(B=16, d=3, max_passes=10), 48,
        lambda rng: AWGNChannel(14, rng=rng), id="awgn-2way-d3-tail3"),
    pytest.param(
        SpinalParams.bsc(), DecoderParams(B=32, max_passes=24), 64,
        lambda rng: BSCChannel(0.05, rng=rng), id="bsc-8way"),
    pytest.param(
        SpinalParams.bsc(puncturing="none"),
        DecoderParams(B=16, d=2, max_passes=16), 32,
        lambda rng: BSCChannel(0.1, rng=rng), id="bsc-nopunct-d2"),
    pytest.param(
        # Heavy noise + tiny budget: most messages fail (give-up path).
        SpinalParams(), DecoderParams(B=8, max_passes=3), 128,
        lambda rng: AWGNChannel(-10, rng=rng), id="awgn-failures"),
]


class TestBatchSessionEquivalence:
    @pytest.mark.parametrize("params,dec,n_bits,make_channel", CONFIGS)
    @pytest.mark.parametrize("probe_growth", [1.5, 1.0])
    def test_batch_reproduces_scalar(self, params, dec, n_bits, make_channel,
                                     probe_growth):
        messages, channels, rebuild = _cohort(make_channel, n_bits, 6, seed=7)
        scalar_msgs, scalar_chans, _ = rebuild()
        assert np.array_equal(messages, scalar_msgs)
        scalar = [
            SpinalSession(params, dec, scalar_msgs[m], scalar_chans[m],
                          probe_growth=probe_growth).run()
            for m in range(len(scalar_chans))
        ]
        batch = BatchSession(params, dec, messages, channels,
                             probe_growth=probe_growth).run()
        _assert_results_identical(scalar, batch)

    def test_many_seeds_property(self):
        """Same contract over a spread of seeds (mixed success/failure)."""
        params = SpinalParams()
        dec = DecoderParams(B=16, max_passes=8)
        for seed in range(5):
            messages, channels, rebuild = _cohort(
                lambda rng: AWGNChannel(6, rng=rng), 64, 4, seed=100 + seed)
            scalar_msgs, scalar_chans, _ = rebuild()
            scalar = [
                SpinalSession(params, dec, scalar_msgs[m], scalar_chans[m]).run()
                for m in range(4)
            ]
            batch = BatchSession(params, dec, messages, channels).run()
            _assert_results_identical(scalar, batch)

    @pytest.mark.parametrize("give_csi", ["none", "phase", "full"])
    @pytest.mark.parametrize("tau", [1, 10, 100])
    def test_fading_batches_identically(self, give_csi, tau):
        """Rayleigh cohorts batch under every CSI policy, bit for bit.

        Block fading is stateful (the coherence block spans transmit
        calls), but its state is private to each message's channel — the
        cohort preserves per-channel call sequences exactly, so the batch
        path must reproduce scalar sessions including the per-symbol
        coefficients the "full" decoder consumes and the derotation the
        "phase" receiver applies.
        """
        params = SpinalParams()
        dec = DecoderParams(B=32, max_passes=16)
        make = lambda rng: RayleighBlockFadingChannel(  # noqa: E731
            18, coherence_time=tau, rng=rng)
        messages, channels, rebuild = _cohort(make, 64, 4, seed=3)
        assert not all(c.memoryless for c in channels)
        session = BatchSession(params, dec, messages, channels,
                               give_csi=give_csi)
        assert session._can_batch()
        scalar_msgs, scalar_chans, _ = rebuild()
        scalar = [
            SpinalSession(params, dec, scalar_msgs[m], scalar_chans[m],
                          give_csi=give_csi).run()
            for m in range(4)
        ]
        _assert_results_identical(scalar, session.run())

    @pytest.mark.parametrize("give_csi", ["none", "phase", "full"])
    def test_fading_punctured_and_failure_cohorts(self, give_csi):
        """Fading batch equivalence holds off the happy path too: sparse
        puncturing with pruning depth d=2, and a low-SNR/tiny-budget cohort
        where most messages give up (the failure bookkeeping path)."""
        make = lambda rng: RayleighBlockFadingChannel(  # noqa: E731
            16, coherence_time=10, rng=rng)
        punct = (SpinalParams(k=2, puncturing="4-way"),
                 DecoderParams(B=8, d=2, max_passes=12))
        make_fail = lambda rng: RayleighBlockFadingChannel(  # noqa: E731
            -5, coherence_time=10, rng=rng)
        fail = (SpinalParams(), DecoderParams(B=8, max_passes=3))
        for (params, dec), factory in ((punct, make), (fail, make_fail)):
            messages, channels, rebuild = _cohort(factory, 48, 5, seed=11)
            scalar_msgs, scalar_chans, _ = rebuild()
            scalar = [
                SpinalSession(params, dec, scalar_msgs[m], scalar_chans[m],
                              give_csi=give_csi).run()
                for m in range(5)
            ]
            batch = BatchSession(params, dec, messages, channels,
                                 give_csi=give_csi).run()
            _assert_results_identical(scalar, batch)

    @pytest.mark.parametrize("n_passes", [1, 3])
    def test_fixed_rate_batch_reproduces_scalar(self, n_passes):
        """The rated (Figure 8-2) cohort path: L passes, one batched decode."""
        params = SpinalParams(puncturing="none", tail_symbols=2)
        dec = DecoderParams(B=16, max_passes=12)
        for make, give_csi in (
            (lambda rng: AWGNChannel(8, rng=rng), False),
            (lambda rng: RayleighBlockFadingChannel(
                15, coherence_time=10, rng=rng), "full"),
        ):
            messages, channels, rebuild = _cohort(make, 48, 4, seed=13)
            scalar_msgs, scalar_chans, _ = rebuild()
            scalar = [
                SpinalSession(params, dec, scalar_msgs[m], scalar_chans[m],
                              give_csi=give_csi).run_fixed_rate(n_passes)
                for m in range(4)
            ]
            batch = BatchSession(params, dec, messages, channels,
                                 give_csi=give_csi).run_fixed_rate(n_passes)
            _assert_results_identical(scalar, batch)

    def test_csi_mode_batches_over_memoryless_channels(self):
        """A decoder that wants to *see* CSI batches fine — over AWGN the
        channel reports no coefficients and the store stays CSI-less."""
        params = SpinalParams()
        dec = DecoderParams(B=16, max_passes=8)
        make = lambda rng: AWGNChannel(12, rng=rng)  # noqa: E731
        messages, channels, rebuild = _cohort(make, 64, 3, seed=9)
        session = BatchSession(params, dec, messages, channels,
                               give_csi="full")
        assert session._can_batch()
        scalar_msgs, scalar_chans, _ = rebuild()
        scalar = [
            SpinalSession(params, dec, scalar_msgs[m], scalar_chans[m],
                          give_csi="full").run()
            for m in range(3)
        ]
        _assert_results_identical(scalar, session.run())

    def test_shared_state_channel_falls_back_to_scalar(self):
        """Channels whose state is coupled across instances (the
        shared-medium clock) must keep taking the scalar path."""
        from repro.channels import SharedChannel

        params = SpinalParams()
        dec = DecoderParams(B=8, max_passes=6)
        messages, channels, _ = _cohort(
            lambda rng: SharedChannel(AWGNChannel(12, rng=rng)), 32, 3, seed=2)
        session = BatchSession(params, dec, messages, channels)
        assert not session._can_batch()
        assert all(r.success for r in session.run())

    def test_mixed_family_cohort_falls_back_to_scalar(self):
        """A cohort mixing CSI-reporting and CSI-less channels is valid per
        message but unrepresentable in the batch store's all-or-nothing CSI
        plane — it must transparently take the scalar path, as before."""
        params = SpinalParams()
        dec = DecoderParams(B=8, max_passes=6)
        def make(rng):
            if make.calls % 2 == 0:
                ch = AWGNChannel(12, rng=rng)
            else:
                ch = RayleighBlockFadingChannel(12, coherence_time=10, rng=rng)
            make.calls += 1
            return ch
        make.calls = 0
        messages, channels, rebuild = _cohort(make, 32, 4, seed=5)
        session = BatchSession(params, dec, messages, channels)
        assert not session._can_batch()
        make.calls = 0
        scalar_msgs, scalar_chans, _ = rebuild()
        scalar = [
            SpinalSession(params, dec, scalar_msgs[m], scalar_chans[m]).run()
            for m in range(4)
        ]
        _assert_results_identical(scalar, session.run())

    def test_duplicate_channel_instance_falls_back_to_scalar(self):
        """One channel instance reused across rows is not per-message
        ownership: interleaved cohort transmits would consume its RNG in a
        different order than M sequential scalar sessions."""
        params = SpinalParams()
        dec = DecoderParams(B=8, max_passes=6)
        rng = np.random.default_rng(0)
        messages = np.stack([random_message(32, rng) for _ in range(3)])
        shared = AWGNChannel(12, rng=1)
        session = BatchSession(params, dec, messages, [shared] * 3)
        assert not session._can_batch()


_FAMILIES = {
    "awgn": (SpinalParams(), lambda rng: AWGNChannel(6, rng=rng)),
    "bsc": (SpinalParams.bsc(), lambda rng: BSCChannel(0.05, rng=rng)),
    "rayleigh": (SpinalParams(), lambda rng: RayleighBlockFadingChannel(
        10, coherence_time=5, rng=rng)),
}


class TestCohortSizeInvariance:
    @given(family=st.sampled_from(sorted(_FAMILIES)),
           give_csi=st.sampled_from(["none", "full", "phase"]),
           probe_growth=st.sampled_from([1.0, 1.5]),
           fixed_passes=st.sampled_from([None, 1, 3]),
           seed=st.integers(0, 2**16), data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_any_split_gives_the_same_results(self, family, give_csi,
                                              probe_growth, fixed_passes,
                                              seed, data):
        """One cohort == the same rows run as sub-cohorts, concatenated."""
        M = data.draw(st.integers(1, 5), label="M")
        cuts = data.draw(st.sets(st.integers(1, M - 1)) if M > 1
                         else st.just(set()), label="cuts")
        params, make = _FAMILIES[family]
        dec = DecoderParams(B=8, max_passes=6)

        def run(messages, channels):
            session = BatchSession(params, dec, messages, channels,
                                   give_csi=give_csi,
                                   probe_growth=probe_growth)
            return (session.run() if fixed_passes is None
                    else session.run_fixed_rate(fixed_passes))

        messages, channels, rebuild = _cohort(make, 32, M, seed)
        whole = run(messages, channels)
        messages, channels, _ = rebuild()
        bounds = [0, *sorted(cuts), M]
        parts = []
        for lo, hi in zip(bounds, bounds[1:]):
            parts.extend(run(messages[lo:hi], channels[lo:hi]))
        _assert_results_identical(whole, parts)


class TestBatchDecoderEquivalence:
    @pytest.mark.parametrize("params,dec,n_bits,make_channel", CONFIGS[:6])
    def test_decode_batch_matches_scalar_decode(self, params, dec, n_bits,
                                                make_channel):
        """One shared prefix: every cohort row and every one-message decode
        equals the reference search, bit for bit."""
        M = 4
        rng = np.random.default_rng(11)
        messages = np.stack([random_message(n_bits, rng) for _ in range(M)])
        channels = [make_channel(np.random.default_rng(50 + m))
                    for m in range(M)]
        batch_enc = BatchSpinalEncoder(params, messages)
        n_subpasses = 2 * batch_enc.subpasses_per_pass
        block = batch_enc.generate_batch(0, n_subpasses)
        received = np.stack([
            channels[m].transmit(block.values[m]).values for m in range(M)
        ])

        batch_store = BatchReceivedSymbols(
            batch_enc.n_spine, M, complex_valued=not params.is_bsc)
        batch_store.add_block(block.spine_indices, block.slots, received)
        batch_dec = BatchBubbleDecoder(params, dec, n_bits)
        batch_results = batch_dec.decode_batch(
            batch_store.prefix(np.arange(M), batch_store.checkpoint()))

        one_dec = BubbleDecoder(params, dec, n_bits)
        for m in range(M):
            store = ReceivedSymbols(
                batch_enc.n_spine, complex_valued=not params.is_bsc)
            store.add_block(block.spine_indices, block.slots, received[m])
            ref = reference_decode(params, dec, n_bits, store)
            for got in (batch_results[m], one_dec.decode(store)):
                assert np.array_equal(ref.message_bits, got.message_bits)
                assert ref.path_cost == got.path_cost
                assert ref.n_symbols_used == got.n_symbols_used

    def test_batch_encoder_matches_scalar_encoder(self):
        for params in (SpinalParams(), SpinalParams.bsc()):
            rng = np.random.default_rng(2)
            messages = np.stack([random_message(48, rng) for _ in range(3)])
            batch_enc = BatchSpinalEncoder(params, messages)
            block = batch_enc.generate_batch(0, 5)
            for m in range(3):
                enc = SpinalEncoder(params, messages[m])
                ref = enc.generate(0, 5)
                assert np.array_equal(ref.spine_indices, block.spine_indices)
                assert np.array_equal(ref.slots, block.slots)
                assert np.array_equal(ref.values, block.values[m])
                assert np.array_equal(enc.spine, batch_enc.spines[m])


class TestMeasureSchemeBatching:
    def _measure(self, batch_size, channel, reference="awgn"):
        params = SpinalParams() if reference == "awgn" else SpinalParams.bsc()
        dec = DecoderParams(B=16, max_passes=10)
        return measure_scheme(
            SpinalScheme(params, dec, 64), channel,
            snr_db=10.0, n_messages=7, seed=5,
            batch_size=batch_size, capacity_reference=reference,
        )

    @pytest.mark.parametrize("batch_size", [1, 3, 7, 16])
    def test_batched_measurement_identical_awgn(self, batch_size):
        factory = lambda rng: AWGNChannel(10, rng=rng)  # noqa: E731
        scalar = self._measure(None, factory)
        batched = self._measure(batch_size, factory)
        assert scalar == batched  # dataclass equality: every field

    def test_batched_measurement_identical_bsc(self):
        factory = lambda rng: BSCChannel(0.05, rng=rng)  # noqa: E731
        scalar = self._measure(None, factory, reference="bsc")
        batched = self._measure(4, factory, reference="bsc")
        assert scalar == batched

    @pytest.mark.parametrize("give_csi", ["none", "phase", "full"])
    def test_batched_measurement_identical_fading(self, give_csi):
        """The fig8_4/8_5-style sweep shape: fading factory + CSI policy,
        measured with and without batching, field-for-field identical."""
        params = SpinalParams()
        dec = DecoderParams(B=16, max_passes=10)
        scheme = SpinalScheme(params, dec, 64, give_csi=give_csi)
        factory = lambda rng: RayleighBlockFadingChannel(  # noqa: E731
            14, coherence_time=10, rng=rng)
        kwargs = dict(snr_db=14.0, n_messages=6, seed=8,
                      capacity_reference="rayleigh")
        scalar = measure_scheme(scheme, factory, **kwargs)
        batched = measure_scheme(scheme, factory, batch_size=6, **kwargs)
        assert scalar == batched

    def test_invalid_batch_size(self):
        factory = lambda rng: AWGNChannel(10, rng=rng)  # noqa: E731
        with pytest.raises(ValueError):
            self._measure(0, factory)


class TestIncrementalStoreSession:
    """The per-attempt store-rebuild bugfix: one incremental store with a
    prefix cursor must leave attempt counts and results unchanged."""

    def _reference_run(self, params, dec, message, channel, probe_growth):
        """The pre-fix engine: rebuild a fresh store for every attempt."""
        import math

        encoder = SpinalEncoder(params, message)
        decoder = BubbleDecoder(params, dec, message.size)
        blocks = []

        def ensure(count):
            while len(blocks) < count:
                block = encoder.generate(len(blocks))
                out = channel.transmit(block.values)
                blocks.append((block, out.values))

        attempts = 0
        last_cost = float("nan")

        def attempt(n):
            nonlocal attempts, last_cost
            ensure(n)
            store = ReceivedSymbols(
                encoder.n_spine, complex_valued=not params.is_bsc)
            for block, values in blocks[:n]:
                store.add_block(block.spine_indices, block.slots, values)
            result = decoder.decode(store)
            attempts += 1
            last_cost = result.path_cost
            return result.matches(message)

        w = encoder.subpasses_per_pass
        max_subpasses = dec.max_passes * w
        lo, g, hi = 0, 1, None
        while g <= max_subpasses:
            if attempt(g):
                hi = g
                break
            lo = g
            if probe_growth == 1.0:
                g += 1
            else:
                g = min(max(g + 1, math.ceil(g * probe_growth)), max_subpasses)
                if g == lo:
                    break
        if hi is None:
            return (False, None, attempts, last_cost)
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if attempt(mid):
                hi = mid
            else:
                lo = mid
        return (True, hi, attempts, last_cost)

    @pytest.mark.parametrize("probe_growth", [1.0, 1.5])
    @pytest.mark.parametrize("snr_db", [15, 6])
    def test_attempts_and_results_unchanged(self, probe_growth, snr_db):
        params = SpinalParams()
        dec = DecoderParams(B=16, max_passes=8)
        for seed in range(3):
            message = random_message(64, seed)
            session = SpinalSession(
                params, dec, message, AWGNChannel(snr_db, rng=seed),
                probe_growth=probe_growth)
            result = session.run()
            success, hi, attempts, last_cost = self._reference_run(
                params, dec, message, AWGNChannel(snr_db, rng=seed),
                probe_growth)
            assert result.success == success
            assert result.n_attempts == attempts
            if success:
                assert result.n_subpasses == hi
                assert result.path_cost == last_cost

    def test_prefix_view_decode_equals_fresh_store(self):
        """Decoding any checkpointed prefix == decoding a rebuilt store."""
        params = SpinalParams()
        dec = DecoderParams(B=32)
        message = random_message(64, 21)
        encoder = SpinalEncoder(params, message)
        channel = AWGNChannel(10, rng=22)
        decoder = BubbleDecoder(params, dec, 64)

        store = ReceivedSymbols(encoder.n_spine)
        checkpoints = [store.checkpoint()]
        blocks = []
        for g in range(10):
            block = encoder.generate(g)
            values = channel.transmit(block.values).values
            blocks.append((block, values))
            store.add_block(block.spine_indices, block.slots, values)
            checkpoints.append(store.checkpoint())
        for n in range(1, 11):
            fresh = ReceivedSymbols(encoder.n_spine)
            for block, values in blocks[:n]:
                fresh.add_block(block.spine_indices, block.slots, values)
            a = decoder.decode(store.prefix(checkpoints[n]))
            b = decoder.decode(fresh)
            assert np.array_equal(a.message_bits, b.message_bits)
            assert a.path_cost == b.path_cost
            assert a.n_symbols_used == b.n_symbols_used == fresh.n_symbols


def _argsort_layout(spine_indices, counts):
    """The store's scatter layout of a block as its general path computes
    it, every block stably sorted (before ascending blocks skipped the
    sort), kept as an oracle: ``(order, rows, cols, added)`` as
    :func:`repro.core.symbols._scatter_layout` returns them."""
    arr = np.asarray(spine_indices, dtype=np.intp).ravel()
    order = np.argsort(arr, kind="stable")
    rows = arr[order]
    uniq, start, cnt = np.unique(rows, return_index=True,
                                 return_counts=True)
    cols = counts[rows] + np.arange(arr.size) - np.repeat(start, cnt)
    added = np.zeros_like(counts)
    added[uniq] = cnt
    return order, rows, cols, added


class TestColumnarStore:
    def test_scatter_preserves_arrival_order(self):
        """Multi-subpass blocks with repeated spine positions keep per-spine
        insertion order (the RNG slot replay depends on it)."""
        store = ReceivedSymbols(4, complex_valued=False)
        store.add_block(
            np.array([2, 0, 3, 3, 2]),
            np.array([0, 0, 0, 1, 1]),
            np.array([1.0, 2.0, 3.0, 4.0, 5.0]),
        )
        store.add_block(
            np.array([2, 1]), np.array([2, 0]), np.array([6.0, 7.0]))
        slots, values, csi = store.for_spine(2)
        assert slots.tolist() == [0, 1, 2]
        assert values.tolist() == [1.0, 5.0, 6.0]
        assert csi is None
        slots3, values3, _ = store.for_spine(3)
        assert slots3.tolist() == [0, 1]
        assert values3.tolist() == [3.0, 4.0]
        assert store.n_symbols == 7

    @given(n_spine=st.integers(1, 12),
           kind=st.sampled_from(["sorted", "unsorted", "one position",
                                 "single", "empty"]),
           data=st.data())
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_scatter_layout_matches_the_general_path(self, n_spine, kind,
                                                     data):
        """The layout of a block, whether its positions ascend (no sort)
        or not, is the general path's: every block stably sorted, each
        symbol's column its position's fill count plus its rank among the
        block's symbols there (:func:`_argsort_layout`).  Blocks ascend or
        not, repeat positions, hold one symbol or none."""
        size = {"single": 1, "empty": 0}.get(kind)
        positions = st.integers(0, n_spine - 1)
        if kind == "one position":
            block = [data.draw(positions)] * data.draw(st.integers(1, 9))
        else:
            block = data.draw(st.lists(
                positions, min_size=size if size is not None else 2,
                max_size=size if size is not None else 40))
        if kind == "sorted":
            block.sort()
        counts = np.array(data.draw(st.lists(
            st.integers(0, 6), min_size=n_spine, max_size=n_spine)),
            dtype=np.int64)
        order, rows, cols, added = _scatter_layout(
            np.array(block, dtype=np.int64), n_spine, counts.copy())
        want_order, want_rows, want_cols, want_added = _argsort_layout(
            block, counts)
        if order is None:
            assert block == sorted(block)
            order = np.arange(len(block))
        assert order.tolist() == want_order.tolist()
        assert rows.tolist() == want_rows.tolist()
        assert cols.tolist() == want_cols.tolist()
        assert added.tolist() == want_added.tolist()
        for bad in (-1, n_spine):
            with pytest.raises(IndexError):
                _scatter_layout(np.array(block + [bad]), n_spine, counts)

    def test_store_validation_errors(self):
        store = ReceivedSymbols(2)
        with pytest.raises(ValueError):
            store.add_block(np.array([0]), np.array([0, 1]), np.array([1.0]))
        with pytest.raises(IndexError):
            store.add_block(np.array([5]), np.array([0]), np.array([1.0 + 0j]))
        store.add_block(np.array([0]), np.array([0]), np.array([1.0 + 0j]),
                        csi=np.array([1.0 + 0j]))
        with pytest.raises(ValueError):  # CSI must keep coming once given
            store.add_block(np.array([1]), np.array([0]), np.array([1.0 + 0j]))

    def test_csi_cannot_start_late(self):
        """Zero-filling CSI for pre-CSI symbols would silently corrupt
        branch costs — the store must refuse instead."""
        store = ReceivedSymbols(2)
        store.add_block(np.array([0]), np.array([0]), np.array([1.0 + 0j]))
        with pytest.raises(ValueError, match="first block"):
            store.add_block(np.array([1]), np.array([0]),
                            np.array([1.0 + 0j]), csi=np.array([1.0 + 0j]))

    def test_prefix_checkpoint_validation(self):
        store = ReceivedSymbols(2)
        foreign = np.array([5, 5])
        with pytest.raises(ValueError):
            store.prefix(foreign)

    def test_prefix_rejects_rows_outside_the_store(self):
        """A view's rows are a 1-D integer set inside ``[0, n_messages)``:
        row -1 would read as zero rows of a run and, in a scattered set, as
        the last message, and row 1.9 or ``True`` as row 1, so ``prefix``
        refuses them, and the store's row count, before any view exists."""
        store = BatchReceivedSymbols(2, 3)
        store.add_block(np.array([0, 1]), np.array([0, 0]),
                        np.ones((3, 2), dtype=np.complex128))
        ckpt = store.checkpoint()
        for rows in ([-1], [3], [2, 0, -1], [[0, 1]], 1, [1.9], [True]):
            with pytest.raises(ValueError, match="rows"):
                store.prefix(np.array(rows), ckpt)
        view = store.prefix(np.array([2, 0]), ckpt)
        assert view.for_spine(0)[1].shape == (2, 1)
        assert store.prefix(np.array([], dtype=np.intp), ckpt).n_rows == 0

    def test_batch_store_rows_subset(self):
        """Rows absent from an add never pollute another row's view."""
        store = BatchReceivedSymbols(2, 3, complex_valued=False)
        store.add_block(np.array([0, 1]), np.array([0, 0]),
                        np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]))
        ckpt1 = store.checkpoint()
        store.add_block(np.array([0, 1]), np.array([1, 1]),
                        np.array([[7.0, 8.0]]), rows=np.array([1]))
        view_all = store.prefix(np.arange(3), ckpt1)
        slots, vals, csi = view_all.for_spine(0)
        assert slots.tolist() == [0]
        assert vals[:, 0].tolist() == [1.0, 3.0, 5.0]
        assert csi is None
        view_row1 = store.prefix(np.array([1]), store.checkpoint())
        slots, vals, _ = view_row1.for_spine(0)
        assert slots.tolist() == [0, 1]
        assert vals[0].tolist() == [3.0, 7.0]

    def test_batch_store_csi_plane(self):
        """The batch store's CSI plane scatters per (spine, row, slot) and
        obeys the scalar store's all-or-nothing discipline."""
        store = BatchReceivedSymbols(2, 2)
        store.add_block(
            np.array([0, 1]), np.array([0, 0]),
            np.array([[1.0 + 0j, 2.0], [3.0, 4.0]]),
            csi=np.array([[1.0 + 1j, 2.0 + 2j], [3.0 + 3j, 4.0 + 4j]]),
        )
        assert store.has_csi
        with pytest.raises(ValueError, match="keep providing"):
            store.add_block(np.array([0]), np.array([1]),
                            np.array([[5.0 + 0j], [6.0]]))
        store.add_block(np.array([0]), np.array([1]),
                        np.array([[5.0 + 0j]]), rows=np.array([1]),
                        csi=np.array([[5.0 + 5j]]))
        view = store.prefix(np.array([1]), store.checkpoint())
        slots, vals, csi = view.for_spine(0)
        assert slots.tolist() == [0, 1]
        assert vals[0].tolist() == [3.0, 5.0]
        assert csi[0].tolist() == [3.0 + 3j, 5.0 + 5j]
        late = BatchReceivedSymbols(2, 2)
        late.add_block(np.array([0]), np.array([0]),
                       np.array([[1.0 + 0j], [2.0]]))
        with pytest.raises(ValueError, match="first block"):
            late.add_block(np.array([1]), np.array([0]),
                           np.array([[1.0 + 0j], [2.0]]),
                           csi=np.array([[1.0 + 0j], [1.0 + 0j]]))


class TestCapacityReference:
    def _measurement(self, reference, snr_db=0.05, rate_bits=160,
                     symbols=400):
        from repro.simulation import RateMeasurement

        return RateMeasurement(
            label="x", snr_db=snr_db, n_messages=10, n_success=10,
            total_bits=rate_bits, total_symbols=symbols,
            capacity_reference=reference,
        )

    def test_bsc_fraction_uses_bsc_capacity(self):
        from repro.channels import bsc_capacity

        m = self._measurement("bsc", snr_db=0.05)
        assert m.capacity == pytest.approx(bsc_capacity(0.05))
        assert m.fraction_of_capacity == pytest.approx(
            m.rate / bsc_capacity(0.05))

    def test_bsc_gap_db_raises(self):
        m = self._measurement("bsc", snr_db=0.05)
        with pytest.raises(ValueError, match="AWGN"):
            m.gap_db

    def test_rayleigh_fraction(self):
        from repro.channels import rayleigh_capacity

        m = self._measurement("rayleigh", snr_db=10.0)
        assert m.fraction_of_capacity == pytest.approx(
            m.rate / rayleigh_capacity(10.0))
        with pytest.raises(ValueError):
            m.gap_db

    def test_awgn_default_unchanged(self):
        from repro.channels import awgn_capacity, gap_to_capacity_db

        m = self._measurement("awgn", snr_db=10.0)
        assert m.gap_db == pytest.approx(gap_to_capacity_db(m.rate, 10.0))
        assert m.fraction_of_capacity == pytest.approx(
            m.rate / awgn_capacity(10.0))

    def test_unknown_reference_rejected(self):
        with pytest.raises(ValueError, match="capacity reference"):
            self._measurement("laplace")

    def test_zero_capacity_point(self):
        """BSC at p=0.5 has zero capacity — no ZeroDivisionError."""
        m = self._measurement("bsc", snr_db=0.5)
        assert m.capacity == 0.0
        assert m.fraction_of_capacity == float("inf")
        zero = self._measurement("bsc", snr_db=0.5, rate_bits=0)
        assert zero.fraction_of_capacity == 0.0


class TestFlowStatsFold:
    def test_single_pass_fold_matches_naive(self):
        from repro.link.protocol import PacketResult
        from repro.link.stats import FlowStats

        rng = np.random.default_rng(0)
        stats = FlowStats("f")
        for i in range(50):
            stats.add(PacketResult(
                flow="f", seq=i, success=bool(rng.integers(0, 2)),
                payload_bits=int(rng.integers(8, 128)),
                coded_bits=int(rng.integers(128, 256)),
                n_blocks=1, n_subpasses=int(rng.integers(1, 10)),
                symbols=int(rng.integers(10, 500)),
                wasted_symbols=int(rng.integers(0, 50)),
                retransmissions=int(rng.integers(0, 4)),
                start_time=0, finish_time=int(rng.integers(1, 1000)),
            ))
        rs = stats.results
        d = stats.as_dict()
        delivered = sum(r.payload_bits for r in rs if r.success)
        symbols = sum(r.symbols for r in rs)
        assert d["n_packets"] == 50
        assert d["n_delivered"] == sum(r.success for r in rs)
        assert d["payload_bits_delivered"] == delivered
        assert d["symbols"] == symbols
        assert d["wasted_symbols"] == sum(r.wasted_symbols for r in rs)
        assert d["retransmissions"] == sum(r.retransmissions for r in rs)
        assert d["goodput"] == round(delivered / symbols, 9)
        assert d["framing_overhead"] == round(
            1.0 - sum(r.payload_bits for r in rs)
            / sum(r.coded_bits for r in rs), 9)
        # every call folds the results as they are now
        stats.add(PacketResult(
            flow="f", seq=50, success=True, payload_bits=8, coded_bits=16,
            n_blocks=1, n_subpasses=1, symbols=100, wasted_symbols=0,
            retransmissions=0, start_time=0, finish_time=5))
        assert stats.as_dict()["symbols"] == symbols + 100
