"""Tests for GF(2) algebra, BP, QC-LDPC construction, and the envelope."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.backend import ckernels
from repro.channels.awgn import AWGNChannel
from repro.ldpc import (
    BeliefPropagation,
    gf2_rank,
    gf2_rref,
    generator_from_parity,
    ldpc_envelope,
    make_qc_ldpc,
    wifi_ldpc_family,
)
from repro.ldpc.construction import base_matrix_shape
from repro.modulation import make_constellation, soft_demap

from deadline import deadline


class TestGf2:
    def test_rref_identity(self):
        eye = np.eye(4, dtype=np.uint8)
        r, pivots = gf2_rref(eye)
        assert np.array_equal(r, eye)
        assert pivots == [0, 1, 2, 3]

    def test_rank_deficient(self):
        a = np.array([[1, 1, 0], [1, 1, 0], [0, 0, 1]], dtype=np.uint8)
        assert gf2_rank(a) == 2

    def test_generator_satisfies_parity(self):
        rng = np.random.default_rng(0)
        h = rng.integers(0, 2, size=(10, 30), dtype=np.uint8)
        g, info = generator_from_parity(h)
        assert ((h.astype(np.uint32) @ g.T) & 1).sum() == 0

    def test_systematic_readback(self):
        rng = np.random.default_rng(1)
        h = rng.integers(0, 2, size=(8, 20), dtype=np.uint8)
        g, info = generator_from_parity(h)
        msg = rng.integers(0, 2, size=g.shape[0], dtype=np.uint8)
        cw = (msg.astype(np.uint32) @ g & 1).astype(np.uint8)
        assert np.array_equal(cw[info], msg)

    @given(st.integers(0, 10_000))
    @settings(max_examples=15, deadline=None)
    def test_generator_property(self, seed):
        rng = np.random.default_rng(seed)
        m, n = 6, 15
        h = rng.integers(0, 2, size=(m, n), dtype=np.uint8)
        g, info = generator_from_parity(h)
        assert g.shape[0] == n - gf2_rank(h)
        msg = rng.integers(0, 2, size=g.shape[0], dtype=np.uint8)
        cw = (msg.astype(np.uint32) @ g & 1).astype(np.uint8)
        assert ((h.astype(np.uint32) @ cw) & 1).sum() == 0


class TestBeliefPropagation:
    def test_repetition_code(self):
        """x0 = x1 = x2: one strong observation pulls the others."""
        bp = BeliefPropagation(
            np.array([0, 0, 1, 1]), np.array([0, 1, 1, 2]), 2, 3
        )
        bits, ok = bp.decode(np.array([5.0, 0.0, 0.0]))
        assert ok
        assert bits.tolist() == [0, 0, 0]
        bits, ok = bp.decode(np.array([-5.0, 0.0, 0.0]))
        assert bits.tolist() == [1, 1, 1]

    def test_single_parity_check_correction(self):
        """(3,2) SPC: flips the weakest bit to satisfy parity."""
        bp = BeliefPropagation(np.zeros(3, int), np.arange(3), 1, 3)
        # true word 1,1,0 (parity even); bit2 weakly wrong
        bits, ok = bp.decode(np.array([-6.0, -6.0, 0.8]), iterations=5)
        assert ok
        assert bits.tolist() == [1, 1, 0]

    def test_obs_llr_check(self):
        """A check with a finite observation acts as a soft XOR constraint."""
        bp = BeliefPropagation(np.array([0, 0]), np.array([0, 1]), 1, 2)
        # check says x0 XOR x1 = 1 (obs llr strongly negative)
        bits, _ = bp.decode(
            np.array([8.0, 0.0]), iterations=3,
            check_obs_llrs=np.array([-9.0]), early_exit=False,
        )
        assert bits.tolist() == [0, 1]

    def test_syndrome(self):
        bp = BeliefPropagation(np.array([0, 0]), np.array([0, 1]), 1, 2)
        assert bp.syndrome_ok(np.array([1, 1], dtype=np.uint8))
        assert not bp.syndrome_ok(np.array([1, 0], dtype=np.uint8))

    def test_edge_alignment_validation(self):
        with pytest.raises(ValueError):
            BeliefPropagation(np.zeros(3, int), np.zeros(2, int), 1, 2)


class TestEdgelessNodes:
    """Checks and variables without edges, including trailing ones.

    An edgeless check constrains nothing and an edgeless variable keeps its
    channel LLR, so results must match the graph without them.
    """

    CHAN = np.array([3.0, -1.0])

    def test_trailing_edgeless_check(self):
        bare = BeliefPropagation([0, 0], [0, 1], 1, 2)
        padded = BeliefPropagation([0, 0], [0, 1], 2, 2)
        for early_exit in (True, False):
            got = padded.decode(self.CHAN, iterations=4, early_exit=early_exit)
            want = bare.decode(self.CHAN, iterations=4, early_exit=early_exit)
            assert got[0].tolist() == want[0].tolist()
            assert got[1] == want[1]

    def test_trailing_edgeless_check_with_observation(self):
        bare = BeliefPropagation([0, 0], [0, 1], 1, 2)
        padded = BeliefPropagation([0, 0], [0, 1], 2, 2)
        got, _ = padded.decode(self.CHAN, iterations=3, early_exit=False,
                               check_obs_llrs=np.array([-9.0, 5.0]))
        want, _ = bare.decode(self.CHAN, iterations=3, early_exit=False,
                              check_obs_llrs=np.array([-9.0]))
        assert got.tolist() == want.tolist()

    def test_syndrome_ignores_edgeless_check(self):
        padded = BeliefPropagation([0, 0], [0, 1], 2, 2)
        assert padded.syndrome_ok(np.array([1, 1], dtype=np.uint8))
        assert not padded.syndrome_ok(np.array([1, 0], dtype=np.uint8))

    def test_trailing_edgeless_variable(self):
        bare = BeliefPropagation([0, 0], [0, 1], 1, 2)
        padded = BeliefPropagation([0, 0], [0, 1], 1, 3)
        chan = np.array([3.0, -1.0, -2.0])
        got, got_ok = padded.decode(chan, iterations=4)
        want, want_ok = bare.decode(chan[:2], iterations=4)
        assert got.tolist() == want.tolist() + [1]
        assert got_ok == want_ok

    def test_interior_edgeless_nodes(self):
        # check 1 and variable 1 sit between connected nodes
        bp = BeliefPropagation([0, 0, 2, 2], [0, 2, 2, 3], 3, 4)
        bits, ok = bp.decode(np.array([5.0, -4.0, 0.0, 0.0]), iterations=5)
        assert ok
        assert bits.tolist() == [0, 1, 0, 0]

    def test_no_edges_at_all(self):
        bp = BeliefPropagation([], [], 2, 3)
        chan = np.array([1.0, -2.0, 0.0])
        bits, ok = bp.decode(chan, iterations=3)
        assert bits.tolist() == [0, 1, 0]
        assert ok
        assert bp.syndrome_ok(np.array([1, 0, 1], dtype=np.uint8))


#: Segment lengths around numpy's pairwise-sum cut-overs (8 values, 128).
_SEGMENTS = (0, 1, 2, 7, 8, 9, 128, 129, 300)
#: Positive NaN only: where two different NaNs meet, numpy's own add picks
#: one by the element's position in its SIMD loop.
_SPECIAL_LLRS = np.array([np.nan, np.inf, -np.inf, 0.0, -0.0, 40.0,
                          -1e300, 5e-324])


def _llrs(rng, size, n_special):
    llrs = rng.normal(scale=8.0, size=size)
    hit = rng.choice(size, size=min(n_special, size), replace=False)
    llrs[hit] = rng.choice(_SPECIAL_LLRS, size=hit.size)
    return llrs


class TestCompiledPasses:
    """Sum-product on the C passes of ``ckernels.BpPasses`` reproduces the
    numpy loop bit for bit, posteriors compared as uint64 words."""

    @given(seed=st.integers(0, 2**32 - 1),
           check_degrees=st.lists(st.sampled_from(_SEGMENTS), min_size=1,
                                  max_size=6),
           n_vars=st.integers(1, 40), n_special=st.integers(0, 8),
           observed=st.booleans(), codeword=st.booleans(),
           iterations=st.sampled_from([0, 1, 2, 5]),
           early_exit=st.booleans())
    @settings(max_examples=120, deadline=None)
    def test_matches_numpy(self, seed, check_degrees, n_vars, n_special,
                           observed, codeword, iterations, early_exit):
        if ckernels.load() is None:
            pytest.skip("compiled kernels unavailable here")
        rng = np.random.default_rng(seed)
        check_index = np.repeat(np.arange(len(check_degrees)), check_degrees)
        # uneven variable degrees: long segments, short ones and none
        var_index = rng.choice(n_vars, size=check_index.size,
                               p=rng.dirichlet(np.full(n_vars, 0.3)))
        bp = BeliefPropagation(check_index, var_index, len(check_degrees),
                               n_vars)
        chan = _llrs(rng, n_vars, n_special)
        if codeword:  # the all-zero word: a pure parity decode exits early
            chan = np.abs(chan)
        obs = _llrs(rng, len(check_degrees), n_special) if observed else None
        got = {}
        with deadline(30), np.errstate(all="ignore"):
            for path in ("numpy", "compiled"):
                with mock.patch.object(
                        ckernels, "load",
                        ckernels.load if path == "compiled" else
                        lambda: None):
                    got[path] = bp.posteriors(chan, iterations, obs,
                                              early_exit)
        (want, want_ok), (have, have_ok) = got["numpy"], got["compiled"]
        assert have.view(np.uint64).tolist() == want.view(np.uint64).tolist()
        assert have_ok == want_ok


class TestQcConstruction:
    @pytest.mark.parametrize("rate,rows", [("1/2", 12), ("2/3", 8),
                                           ("3/4", 6), ("5/6", 4)])
    def test_base_shapes(self, rate, rows):
        assert base_matrix_shape(rate) == (rows, 24)

    def test_expansion_dimensions(self):
        ci, vi, n, m = make_qc_ldpc("1/2", z=27)
        assert n == 648 and m == 324
        assert ci.max() < m and vi.max() < n

    def test_unknown_rate(self):
        with pytest.raises(ValueError):
            make_qc_ldpc("7/8")

    def test_deterministic(self):
        a = make_qc_ldpc("3/4", seed=5)
        b = make_qc_ldpc("3/4", seed=5)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    def test_family_rates_exact(self):
        fam = wifi_ldpc_family()
        for rate_str, code in fam.items():
            num, den = map(int, rate_str.split("/"))
            assert code.rate == pytest.approx(num / den)
            assert code.n == 648


class TestLdpcCode:
    @pytest.fixture(scope="class")
    def code(self):
        return wifi_ldpc_family()["1/2"]

    def test_encode_valid_codeword(self, code):
        rng = np.random.default_rng(0)
        msg = rng.integers(0, 2, size=code.k, dtype=np.uint8)
        assert code.parity_check(code.encode(msg))

    def test_encode_decode_roundtrip_awgn(self, code):
        rng = np.random.default_rng(1)
        msg = rng.integers(0, 2, size=code.k, dtype=np.uint8)
        cw = code.encode(msg)
        const = make_constellation("qpsk")
        symbols = const.modulate(cw)
        ch = AWGNChannel(4, rng=2)  # rate 1/2 QPSK threshold ~1 dB
        y = ch.transmit(symbols).values
        llrs = soft_demap(const, y, ch.noise_power)
        decoded, ok = code.decode(llrs)
        assert ok
        assert np.array_equal(decoded, msg)

    def test_fails_below_threshold(self, code):
        rng = np.random.default_rng(3)
        msg = rng.integers(0, 2, size=code.k, dtype=np.uint8)
        cw = code.encode(msg)
        const = make_constellation("qpsk")
        ch = AWGNChannel(-4, rng=4)
        y = ch.transmit(const.modulate(cw)).values
        llrs = soft_demap(const, y, ch.noise_power)
        decoded, ok = code.decode(llrs, iterations=20)
        assert not np.array_equal(decoded, msg)

    def test_message_length_validated(self, code):
        with pytest.raises(ValueError):
            code.encode(np.zeros(10, dtype=np.uint8))

    def test_linear_code_property(self, code):
        """Sum of codewords is a codeword."""
        rng = np.random.default_rng(5)
        a = rng.integers(0, 2, size=code.k, dtype=np.uint8)
        b = rng.integers(0, 2, size=code.k, dtype=np.uint8)
        assert code.parity_check(code.encode(a) ^ code.encode(b))


class TestEnvelope:
    def test_envelope_monotone_across_extremes(self):
        low, _ = ldpc_envelope(0.0, n_blocks=3, iterations=15, seed=0)
        high, label = ldpc_envelope(28.0, n_blocks=3, iterations=15, seed=0)
        assert high >= low
        assert high == pytest.approx(5.0, abs=0.2)  # 64QAM 5/6 ceiling
        assert "qam-64" in label

    def test_envelope_zero_at_terrible_snr(self):
        tput, _ = ldpc_envelope(-12.0, n_blocks=2, iterations=10, seed=0)
        assert tput == pytest.approx(0.0, abs=0.3)
