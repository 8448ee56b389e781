"""Tests for the Raptor stack: degree distribution, LT, precode, codec."""

import numpy as np
import pytest

from repro.channels.awgn import AWGNChannel
from repro.fountain import (
    LdpcPrecode,
    LTStream,
    RaptorCodec,
    RaptorScheme,
    ideal_soliton,
    robust_soliton,
    sample_rfc5053_degree,
)
from repro.modulation import soft_demap
from repro.simulation import measure_scheme


class TestDegreeDistribution:
    def test_rfc_degrees_valid(self):
        rng = np.random.default_rng(0)
        degrees = sample_rfc5053_degree(rng, size=20_000)
        assert set(np.unique(degrees)) <= {1, 2, 3, 4, 10, 11, 40}

    def test_rfc_probabilities(self):
        rng = np.random.default_rng(1)
        degrees = sample_rfc5053_degree(rng, size=200_000)
        p2 = (degrees == 2).mean()
        # P(2) = (491582-10241)/2^20 = 0.459
        assert p2 == pytest.approx(0.459, abs=0.01)
        p1 = (degrees == 1).mean()
        assert p1 == pytest.approx(10241 / 2**20, abs=0.002)

    def test_mean_degree(self):
        """RFC 5053 average output degree is ~4.6."""
        rng = np.random.default_rng(2)
        degrees = sample_rfc5053_degree(rng, size=100_000)
        assert 4.4 < degrees.mean() < 4.9

    def test_ideal_soliton_sums_to_one(self):
        assert ideal_soliton(100).sum() == pytest.approx(1.0)

    def test_robust_soliton_sums_to_one(self):
        assert robust_soliton(100).sum() == pytest.approx(1.0)

    def test_soliton_shapes(self):
        p = ideal_soliton(50)
        assert p[1] == pytest.approx(0.5)  # P(d=2) = 1/2


class TestLTStream:
    def test_deterministic(self):
        a = LTStream(100, seed=3)
        b = LTStream(100, seed=3)
        for i in (0, 5, 17):
            assert np.array_equal(a.neighbours(i), b.neighbours(i))

    def test_neighbours_distinct_and_bounded(self):
        s = LTStream(50, seed=4)
        for i in range(200):
            nbrs = s.neighbours(i)
            assert np.unique(nbrs).size == nbrs.size
            assert nbrs.max() < 50

    def test_encode_is_xor(self):
        s = LTStream(20, seed=5)
        rng = np.random.default_rng(0)
        block = rng.integers(0, 2, size=20, dtype=np.uint8)
        out = s.encode_range(block, 0, 30)
        for i in range(30):
            assert out[i] == block[s.neighbours(i)].sum() % 2
        assert out.dtype == np.uint8
        assert s.encode_range(block, 5, 0).size == 0

    def test_range_consistency(self):
        s = LTStream(30, seed=6)
        block = np.ones(30, dtype=np.uint8)
        whole = s.encode_range(block, 0, 20)
        parts = np.concatenate([
            s.encode_range(block, 0, 7),
            s.encode_range(block, 7, 13),
        ])
        assert np.array_equal(whole, parts)


class TestPrecode:
    def test_rate(self):
        p = LdpcPrecode(k=950, rate=0.95)
        assert p.n_intermediate == 1000
        assert p.n_parity == 50

    def test_systematic(self):
        p = LdpcPrecode(k=100, seed=1)
        rng = np.random.default_rng(0)
        msg = rng.integers(0, 2, size=100, dtype=np.uint8)
        inter = p.encode(msg)
        assert np.array_equal(inter[:100], msg)

    def test_satisfied(self):
        p = LdpcPrecode(k=100, seed=2)
        rng = np.random.default_rng(1)
        inter = p.encode(rng.integers(0, 2, size=100, dtype=np.uint8))
        assert p.satisfied(inter)
        inter[3] ^= 1
        assert not p.satisfied(inter)

    def test_check_edges_cover_left_degree(self):
        p = LdpcPrecode(k=200, left_degree=4, seed=3)
        checks, vars_ = p.check_edges()
        msg_edges = (vars_ < 200).sum()
        assert msg_edges == 200 * 4
        parity_edges = (vars_ >= 200).sum()
        assert parity_edges == p.n_parity

    def test_too_short_message(self):
        with pytest.raises(ValueError):
            LdpcPrecode(k=10, rate=0.95)


class TestRaptorCodec:
    def test_noiseless_roundtrip(self):
        codec = RaptorCodec(k=256, constellation="qam-16", lt_seed=1)
        rng = np.random.default_rng(0)
        msg = rng.integers(0, 2, size=256, dtype=np.uint8)
        inter = codec.encode_intermediate(msg)
        n_sym = 120  # 480 bits for 270 intermediate: ample overhead
        y = codec.symbols(inter, 0, n_sym)
        llrs = soft_demap(codec.constellation, y, 1e-4)
        decoded, converged = codec.decode(llrs, iterations=30)
        assert converged
        assert np.array_equal(decoded, msg)

    def test_noisy_roundtrip(self):
        codec = RaptorCodec(k=256, constellation="qam-16", lt_seed=2)
        rng = np.random.default_rng(1)
        msg = rng.integers(0, 2, size=256, dtype=np.uint8)
        inter = codec.encode_intermediate(msg)
        ch = AWGNChannel(12, rng=3)
        y = ch.transmit(codec.symbols(inter, 0, 160)).values
        llrs = soft_demap(codec.constellation, y, ch.noise_power)
        decoded, _ = codec.decode(llrs, iterations=40)
        assert np.array_equal(decoded, msg)

    def test_insufficient_symbols_fail(self):
        codec = RaptorCodec(k=256, constellation="qam-16", lt_seed=4)
        rng = np.random.default_rng(2)
        msg = rng.integers(0, 2, size=256, dtype=np.uint8)
        inter = codec.encode_intermediate(msg)
        y = codec.symbols(inter, 0, 30)  # 120 bits << 256
        llrs = soft_demap(codec.constellation, y, 1e-4)
        decoded, _ = codec.decode(llrs, iterations=20)
        assert not np.array_equal(decoded, msg)

    # Hard bits and precode-satisfied flag of a small seeded code (k=64,
    # qam-16), pinned from the reference decoder: two failures, one of
    # them 8 bits off, and one success.
    GOLDEN = {
        (10.0, 30): ("00010000111110010011001001101000"
                     "11011101110000000110110000011100", False),
        (10.0, 40): ("01000110000111100001111111011000"
                     "11001010001010110101000000111100", True),
        (14.0, 24): ("01001010000110000001111011011001"
                     "11001010011010110101010000111100", False),
    }

    @pytest.mark.parametrize("snr_db, n_symbols", sorted(GOLDEN))
    def test_literal_decode(self, snr_db, n_symbols):
        codec = RaptorCodec(64, "qam-16", lt_seed=3, precode_seed=5)
        msg = np.random.default_rng(11).integers(0, 2, size=64,
                                                 dtype=np.uint8)
        inter = codec.encode_intermediate(msg)
        ch = AWGNChannel(snr_db, rng=4)
        y = ch.transmit(codec.symbols(inter, 0, n_symbols)).values
        llrs = soft_demap(codec.constellation, y, ch.noise_power)
        bits, satisfied = codec.decode(llrs)
        want_bits, want_satisfied = self.GOLDEN[snr_db, n_symbols]
        assert "".join(map(str, bits.tolist())) == want_bits
        assert satisfied is want_satisfied

    def test_decode_graph_arrives_sorted(self):
        """LT edges then presorted precode edges: BP needs no lexsort."""
        codec = RaptorCodec(64, "qam-16", lt_seed=3, precode_seed=5)
        checks, vars_ = codec._pc_checks, codec._pc_vars
        assert np.array_equal(np.lexsort((vars_, checks)),
                              np.arange(checks.size))


class TestRaptorScheme:
    def test_rate_reasonable_at_high_snr(self):
        scheme = RaptorScheme(k=512, constellation="qam-64")
        m = measure_scheme(
            scheme, lambda rng: AWGNChannel(20, rng=rng), 20,
            n_messages=2, seed=0,
        )
        assert m.n_success == 2
        assert 2.0 < m.rate <= 6.0

    def test_rate_increases_with_snr(self):
        lo = measure_scheme(
            RaptorScheme(k=512), lambda rng: AWGNChannel(6, rng=rng), 6,
            n_messages=2, seed=1,
        )
        hi = measure_scheme(
            RaptorScheme(k=512), lambda rng: AWGNChannel(22, rng=rng), 22,
            n_messages=2, seed=1,
        )
        assert hi.rate > lo.rate
