"""Tests for the rateless execution engine (§8.1)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.channels import AWGNChannel, BSCChannel, RayleighBlockFadingChannel
from repro.core.params import DecoderParams, SpinalParams
from repro.simulation import SpinalScheme, SpinalSession, measure_scheme
from repro.simulation.engine import rateless_search
from repro.utils.bitops import random_message

from deadline import deadline


@pytest.fixture
def params():
    return SpinalParams()


@pytest.fixture
def dec():
    return DecoderParams(B=64, max_passes=24)


class TestSpinalSession:
    def test_high_snr_decodes_fast(self, params, dec):
        msg = random_message(128, 0)
        session = SpinalSession(params, dec, msg, AWGNChannel(25, rng=1))
        result = session.run()
        assert result.success
        assert result.rate > 3.0

    def test_rate_definition(self, params, dec):
        msg = random_message(128, 1)
        session = SpinalSession(params, dec, msg, AWGNChannel(15, rng=2))
        result = session.run()
        assert result.rate == pytest.approx(128 / result.n_symbols)

    def test_probe_one_matches_exhaustive_scan(self, params):
        """probe_growth=1 is the paper's per-subpass scan; the bisection
        default must land on the same minimal prefix."""
        dec = DecoderParams(B=32, max_passes=16)
        for seed in range(4):
            msg = random_message(96, seed)
            a = SpinalSession(params, dec, msg, AWGNChannel(12, rng=seed),
                              probe_growth=1.0).run()
            b = SpinalSession(params, dec, msg, AWGNChannel(12, rng=seed),
                              probe_growth=1.5).run()
            assert a.success and b.success
            assert a.n_subpasses == b.n_subpasses
            assert b.n_attempts <= a.n_attempts

    def test_give_up_counts_all_symbols(self, params):
        dec = DecoderParams(B=4, max_passes=2)
        msg = random_message(256, 3)
        session = SpinalSession(params, dec, msg, AWGNChannel(-15, rng=4))
        result = session.run()
        assert not result.success
        assert result.rate == 0.0
        assert result.n_subpasses == 2 * 8

    def test_fixed_rate_mode(self, params, dec):
        msg = random_message(128, 5)
        session = SpinalSession(params, dec, msg, AWGNChannel(20, rng=6))
        result = session.run_fixed_rate(n_passes=2)
        assert result.success
        assert result.n_attempts == 1

    def test_fixed_rate_symbol_accounting(self, params, dec):
        """Fixed-rate mode consumes exactly L passes' worth of symbols."""
        msg = random_message(128, 8)
        session = SpinalSession(params, dec, msg, AWGNChannel(20, rng=9))
        result = session.run_fixed_rate(n_passes=3)
        per_pass = session.encoder.symbols_per_pass()
        assert result.n_symbols == 3 * per_pass
        assert result.n_subpasses == 3 * session.encoder.subpasses_per_pass
        assert result.rate == pytest.approx(128 / (3 * per_pass))

    def test_fixed_rate_failure_keeps_symbols(self, params, dec):
        """An undecodable fixed-rate shot still charges its symbols."""
        msg = random_message(256, 12)
        session = SpinalSession(params, dec, msg, AWGNChannel(-10, rng=13))
        result = session.run_fixed_rate(n_passes=1)
        assert not result.success
        assert result.n_attempts == 1
        assert result.rate == 0.0
        assert result.n_symbols == session.encoder.symbols_per_pass()

    def test_bsc_session(self):
        params = SpinalParams.bsc()
        dec = DecoderParams(B=64, max_passes=24)
        msg = random_message(64, 7)
        session = SpinalSession(params, dec, msg, BSCChannel(0.05, rng=8))
        result = session.run()
        assert result.success
        # rate below BSC capacity (0.71 bits/use)
        assert 0.0 < result.rate <= 1.0

    def test_fading_with_and_without_csi(self, params):
        """CSI-aware decoding should not lose to blind decoding."""
        dec = DecoderParams(B=64, max_passes=30)
        n_with = n_without = 0
        for seed in range(3):
            msg = random_message(128, seed + 10)
            ch = RayleighBlockFadingChannel(15, coherence_time=10, rng=seed)
            r1 = SpinalSession(params, dec, msg, ch, give_csi=True).run()
            ch2 = RayleighBlockFadingChannel(15, coherence_time=10, rng=seed)
            r2 = SpinalSession(params, dec, msg, ch2, give_csi=False).run()
            n_with += r1.n_symbols if r1.success else 10**6
            n_without += r2.n_symbols if r2.success else 10**6
        assert n_with <= n_without

    def test_invalid_probe_growth(self, params, dec):
        with pytest.raises(ValueError):
            SpinalSession(params, dec, random_message(64, 0),
                          AWGNChannel(10, rng=0), probe_growth=0.5)


class TestMeasurement:
    def test_measure_aggregates(self, params):
        dec = DecoderParams(B=32, max_passes=16)
        m = measure_scheme(
            SpinalScheme(params, dec, 128),
            lambda rng: AWGNChannel(20, rng=rng), 20, n_messages=4, seed=0,
        )
        assert m.n_messages == 4
        assert m.n_success == 4
        assert 2.0 < m.rate < 9.0
        assert m.gap_db < 0

    def test_measure_deterministic(self, params):
        dec = DecoderParams(B=16, max_passes=12)

        def measure():
            return measure_scheme(
                SpinalScheme(params, dec, 64),
                lambda rng: AWGNChannel(15, rng=rng), 15, n_messages=3,
                seed=11,
            )

        assert measure().rate == measure().rate

    def test_snr_sweep_monotone_tendency(self, params):
        """Rate at 25 dB must exceed rate at 5 dB."""
        dec = DecoderParams(B=32, max_passes=16)
        scheme = SpinalScheme(params, dec, 128)
        low, high = (
            measure_scheme(scheme, lambda rng, s=snr: AWGNChannel(s, rng=rng),
                           snr, n_messages=3, seed=1)
            for snr in (5, 25))
        assert high.rate > low.rate

    def test_success_fraction(self, params):
        dec = DecoderParams(B=4, max_passes=1)
        m = measure_scheme(
            SpinalScheme(params, dec, 256),
            lambda rng: AWGNChannel(-10, rng=rng), -10, n_messages=3, seed=2,
        )
        assert m.n_success == 0
        assert m.rate == 0.0
        assert m.gap_db == float("-inf")


class TestRatelessSearch:
    """One probe-then-bisect search serves spinal cohorts, Raptor and
    Strider; each scheme's attempt sequence is pinned, as the schemes ran
    it when each carried its own copy of the loop."""

    def test_probe_then_bisect(self):
        tried = []

        def attempt(rows, count):
            tried.append(count)
            return np.array([count >= 6])

        assert rateless_search(attempt, 1, 1, 1.25, 40) == [6]
        assert tried == [1, 2, 3, 4, 5, 7, 6]

    def test_start_and_exhaustion(self):
        tried = []
        assert rateless_search(
            lambda rows, g: tried.append(g) or [False], 1, 4, 1.3, 9) == [None]
        assert tried == [4, 6, 8, 9]
        assert rateless_search(lambda rows, g: [True], 1, 4, 1.3, 9) == [1]

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(
        rows=st.lists(st.tuples(st.integers(1, 45),
                                st.frozensets(st.integers(1, 45), max_size=6)),
                      min_size=1, max_size=8),
        start=st.integers(1, 12),
        growth=st.sampled_from([1.0, 1.25, 1.3, 1.5]),
        limit=st.integers(1, 40),
    )
    def test_cohort_matches_each_row_alone(self, rows, start, growth, limit):
        """A row succeeds from its threshold on, except at its (possibly
        empty) set of failing counts; a cohort gives every row the answer
        and the attempt sequence of a one-row search of that row."""
        def succeeds(row, count):
            threshold, fails = row
            return count >= threshold and count not in fails

        tried = [[] for _ in rows]

        def attempt(members, count):
            assert list(members) == sorted(set(members))
            for m in members:
                tried[m].append(count)
            return np.array([succeeds(rows[m], count) for m in members])

        with deadline(30):
            found = rateless_search(attempt, len(rows), start, growth, limit)
            for m, row in enumerate(rows):
                alone = []

                def one(members, count, row=row, alone=alone):
                    alone.append(count)
                    return np.array([succeeds(row, count)])

                assert rateless_search(one, 1, start, growth, limit) == \
                    [found[m]]
                assert tried[m] == alone
                if found[m] is not None:
                    # bisection ends on a success right above a failure
                    assert succeeds(row, found[m])
                    assert found[m] == 1 or not succeeds(row, found[m] - 1)

    def test_raptor_attempts(self):
        from unittest import mock

        from repro.fountain.raptor import RaptorCodec, RaptorScheme

        scheme = RaptorScheme(256, "qam-16")
        bits_per_chunk = scheme.chunk_symbols * 4
        chunks = []
        decode = RaptorCodec.decode

        def counted(codec, bit_llrs, iterations=40):
            chunks.append(bit_llrs.size // bits_per_chunk)
            return decode(codec, bit_llrs, iterations)

        with mock.patch.object(RaptorCodec, "decode", counted):
            result = scheme.run_message(
                AWGNChannel(0.0, rng=np.random.default_rng(4)),
                np.random.default_rng(3))
        assert chunks == [1, 2, 3, 4, 5, 7, 9, 12, 15, 19, 24, 30, 38, 48,
                          43, 40, 41, 42]
        assert result == (256, 42 * scheme.chunk_symbols)

    @pytest.mark.parametrize("snr, symbols, used", [
        (-5.0, [129, 193, 258, 355, 290], 290),
        (0.0, [129, 64, 97], 129),
    ])
    def test_strider_attempts(self, snr, symbols, used):
        """Strider+ (4 subpasses a pass) starts at one full pass."""
        from unittest import mock

        from repro.strider.strider import StriderCodec, StriderScheme

        scheme = StriderScheme(n_bits=96, n_layers=2, max_passes=10,
                               subpasses_per_pass=4)
        seen = []
        decode = StriderCodec.decode

        def counted(codec, pass_values, pass_noise, *args, **kwargs):
            seen.append(sum(v.size for v in pass_values))
            return decode(codec, pass_values, pass_noise, *args, **kwargs)

        with mock.patch.object(StriderCodec, "decode", counted):
            result = scheme.run_message(
                AWGNChannel(snr, rng=np.random.default_rng(4)),
                np.random.default_rng(3))
        assert seen == symbols
        assert result == (96, used)
