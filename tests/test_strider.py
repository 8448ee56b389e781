"""Tests for the Strider stack: RSC, BCJR, turbo, layered SIC."""

import hashlib
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.backend import ckernels
from repro.channels.awgn import AWGNChannel
from repro.modulation import QPSK, soft_demap
from repro.simulation import measure_scheme
from repro.strider import RscCode, StriderCodec, StriderScheme, TurboCodec
from repro.strider.bcjr import _NEG, BcjrTrellis, max_log_bcjr
from repro.utils.bitops import random_message


class TestRsc:
    def test_trellis_dimensions(self):
        rsc = RscCode()
        assert rsc.memory == 3
        assert rsc.n_states == 8
        assert rsc.n_parity == 2

    def test_termination_reaches_zero(self):
        rsc = RscCode()
        rng = np.random.default_rng(0)
        for _ in range(5):
            bits = rng.integers(0, 2, size=40)
            sys, par, tail = rsc.encode(bits, terminate=True)
            assert sys.size == 43
            assert par.shape == (2, 43)
            assert tail.size == 3

    def test_systematic(self):
        rsc = RscCode()
        bits = np.array([1, 0, 1, 1, 0])
        sys, _, _ = rsc.encode(bits, terminate=False)
        assert np.array_equal(sys, bits)

    def test_recursive_state_evolution(self):
        """Feedback makes a single 1 produce an infinite parity response."""
        rsc = RscCode()
        impulse = np.zeros(30, dtype=np.int64)
        impulse[0] = 1
        _, par, _ = rsc.encode(impulse, terminate=False)
        # a non-recursive code would go quiet after the memory flushes
        assert par[0][10:].sum() > 0

    def test_next_state_is_permutation_per_input(self):
        rsc = RscCode()
        for u in (0, 1):
            assert sorted(rsc.next_state[:, u].tolist()) == list(range(8))

    @pytest.mark.parametrize("feedback, feedforward, digest", [
        (13, (15, 17), "8fd8cb0ec6cbf3db"),
        (7, (5,), "6573f03d0dd3de54"),
        (13, (15, 17, 11), "dd0bbbdd4a72ffda"),
    ])
    def test_encode_output_is_pinned(self, feedback, feedforward, digest):
        """``encode``'s three arrays, bytes, dtypes and shapes, over random
        bits of 0 to 164, with ``terminate`` off and on, hash to the digest
        of the per-bit numpy loop the list walk replaced."""
        rsc = RscCode(feedback, feedforward)
        h = hashlib.sha256()
        rng = np.random.default_rng(2024)
        for n in (0, 1, 5, 40, 164):
            bits = rng.integers(0, 2, size=n)
            for terminate in (False, True):
                for a in rsc.encode(bits, terminate=terminate):
                    h.update(f"{a.dtype.str}{a.shape}".encode())
                    h.update(a.tobytes())
        assert h.hexdigest()[:16] == digest


class TestBcjr:
    def test_clean_decode(self):
        rsc = RscCode()
        trellis = BcjrTrellis(rsc)
        rng = np.random.default_rng(1)
        bits = rng.integers(0, 2, size=60)
        sys, par, _ = rsc.encode(bits)
        scale = 8.0
        sys_llr = scale * (1.0 - 2.0 * sys)
        par_llr = scale * (1.0 - 2.0 * par)
        llr, _ = max_log_bcjr(trellis, sys_llr, par_llr)
        assert np.array_equal((llr[:60] < 0).astype(int), bits)

    def test_parity_only_decoding(self):
        """With systematic LLRs erased, parity + trellis still decode."""
        rsc = RscCode()
        trellis = BcjrTrellis(rsc)
        rng = np.random.default_rng(2)
        bits = rng.integers(0, 2, size=50)
        sys, par, _ = rsc.encode(bits)
        sys_llr = np.zeros(sys.size)
        par_llr = 8.0 * (1.0 - 2.0 * par)
        llr, _ = max_log_bcjr(trellis, sys_llr, par_llr)
        assert np.array_equal((llr[:50] < 0).astype(int), bits)

    def test_extrinsic_excludes_intrinsic(self):
        rsc = RscCode()
        trellis = BcjrTrellis(rsc)
        bits = np.zeros(20, dtype=np.int64)
        sys, par, _ = rsc.encode(bits)
        sys_llr = 4.0 * (1.0 - 2.0 * sys)
        par_llr = 4.0 * (1.0 - 2.0 * par)
        llr, ext = max_log_bcjr(trellis, sys_llr, par_llr)
        assert np.allclose(ext, llr - sys_llr)


def _maximum_at_bcjr(trellis, sys_llrs, parity_llrs, a_priori=None,
                     terminated=True):
    """Reference max-log BCJR: separate forward and backward recursions
    that scatter every branch with ``np.maximum.at`` into a ``_NEG``-filled
    array (the textbook form the fused recursion must reproduce bit for
    bit)."""
    sys_llrs = np.asarray(sys_llrs, dtype=np.float64)
    parity_llrs = np.asarray(parity_llrs, dtype=np.float64)
    t_len = sys_llrs.size
    if a_priori is None:
        a_priori = np.zeros(t_len)
    ns = trellis.n_states
    sys_term = 0.5 * (sys_llrs + a_priori)[:, None] * trellis.sys_sign[None, :]
    par_term = 0.5 * np.einsum("pt,bp->tb", parity_llrs, trellis.par_sign)
    gamma = sys_term + par_term
    frm, to = trellis.from_state, trellis.to_state

    alpha = np.full((t_len + 1, ns), _NEG)
    alpha[0, 0] = 0.0
    for t in range(t_len):
        nxt = np.full(ns, _NEG)
        np.maximum.at(nxt, to, alpha[t, frm] + gamma[t])
        alpha[t + 1] = nxt - nxt.max()

    beta = np.full((t_len + 1, ns), _NEG)
    if terminated:
        beta[t_len, 0] = 0.0
    else:
        beta[t_len, :] = 0.0
    for t in range(t_len - 1, -1, -1):
        prv = np.full(ns, _NEG)
        np.maximum.at(prv, frm, beta[t + 1, to] + gamma[t])
        beta[t] = prv - prv.max()

    metric = alpha[:-1][:, frm] + gamma + beta[1:][:, to]
    zero_mask = trellis.input_bit == 0
    llr = metric[:, zero_mask].max(axis=1) - metric[:, ~zero_mask].max(axis=1)
    return llr, llr - sys_llrs - a_priori


def _paths():
    """The recursions max_log_bcjr can run here: the numpy loop always,
    the compiled kernel when it builds."""
    return ("numpy", "compiled") if ckernels.load() is not None else ("numpy",)


def _decode_on(path, *args, **kwargs):
    """max_log_bcjr with its recursion on ``path``."""
    if path == "numpy":
        with mock.patch.object(ckernels, "load", lambda: None):
            return max_log_bcjr(*args, **kwargs)
    assert ckernels.load() is not None
    return max_log_bcjr(*args, **kwargs)


# A short seeded input and the outputs pinned from the maximum.at
# recursion, as float.hex literals compared exactly.
_GOLDEN_SYS = [-2.78, 0.714, -1.791, -1.107, -3.731, 2.51, 0.478, -0.799,
               1.25]
_GOLDEN_PAR = [[1.366, 5.423, 1.678, -1.314, -1.149, -5.608, -1.55, 0.76,
                0.608],
               [2.117, 1.361, -1.558, 2.667, 1.517, -3.401, 3.264, -1.873,
                -1.448]]
_GOLDEN_APRI = [-0.84, 1.926, 0.165, 0.194, 0.789, 2.027, 0.508, -1.206,
                2.468]
_GOLDEN_OUT = {  # (terminated, with a_priori): (llr, extrinsic)
    (True, False): (
        ["-0x1.9d916872b020ep+1", "-0x1.9d916872b020ep+1",
         "0x1.9d916872b020ep+1", "-0x1.e1a9fbe76c8b4p+1",
         "-0x1.f6a7ef9db22d0p+1", "0x1.f147ae147ae14p+1",
         "0x1.9d916872b020cp+1", "-0x1.9d916872b020cp+1",
         "0x1.f147ae147ae13p+1"],
        ["-0x1.cdd2f1a9fbe88p-2", "-0x1.f8f5c28f5c291p+1",
         "0x1.416872b020c4ap+2", "-0x1.53f7ced916872p+1",
         "-0x1.916872b020c40p-3", "0x1.6000000000000p+0",
         "0x1.60624dd2f1aa0p+1", "-0x1.374bc6a7ef9dbp+1",
         "0x1.5147ae147ae13p+1"],
    ),
    (True, True): (
        ["-0x1.7ed916872b020p+1", "-0x1.7ed916872b020p+1",
         "0x1.0189374bc6a7fp+2", "-0x1.7ed916872b021p+1",
         "-0x1.1e24dd2f1a9fcp+2", "0x1.4cdd2f1a9fbe8p+2",
         "0x1.7ed916872b021p+1", "-0x1.0189374bc6a7fp+2",
         "0x1.8d1eb851eb852p+2"],
        ["0x1.420c49ba5e355p-1", "-0x1.68624dd2f1a9fp+2",
         "0x1.6999999999999p+2", "-0x1.09fbe76c8b43ap+1",
         "-0x1.876c8b4395812p+0", "0x1.53f7ced916878p-1",
         "0x1.00a3d70a3d70ap+1", "-0x1.026e978d4fdf4p+1",
         "0x1.3e5604189374cp+1"],
    ),
    (False, False): (
        ["0x1.16c8b43958104p+1", "0x1.16c8b43958105p+1",
         "0x1.f0a3d70a3d708p-1", "0x1.f0a3d70a3d70cp-1",
         "-0x1.6c49ba5e353f7p+0", "0x1.6666666666666p+1",
         "0x1.6c49ba5e353f7p+0", "0x1.f0a3d70a3d70ep-1",
         "0x1.90624dd2f1aa0p+0"],
        ["0x1.3d4fdf3b645a0p+2", "0x1.76c8b43958104p+0",
         "0x1.616872b020c49p+1", "0x1.09db22d0e5604p+1",
         "0x1.276c8b4395810p+1", "0x1.28f5c28f5c290p-2",
         "0x1.e3d70a3d70a3cp-1", "0x1.c4dd2f1a9fbeap+0",
         "0x1.4189374bc6a80p-2"],
    ),
    (False, True): (
        ["0x1.204189374bc68p+1", "0x1.204189374bc68p+1",
         "0x1.9db22d0e56000p-4", "0x1.f7ced916872c0p-4",
         "-0x1.9db22d0e56020p-4", "0x1.6be76c8b43958p+2",
         "0x1.9db22d0e56040p-4", "0x1.9db22d0e56050p-4",
         "0x1.69ba5e353f7cfp+1"],
        ["0x1.77ced916872aep+2", "-0x1.8d4fdf3b645b4p-2",
         "0x1.ba1cac083126ap+0", "0x1.09374bc6a7efbp+0",
         "0x1.6ba5e353f7ceep+1", "0x1.2624dd2f1a9fcp+0",
         "-0x1.c51eb851eb852p-1", "0x1.0d916872b020dp+1",
         "-0x1.c8b4395810624p-1"],
    ),
}


class TestBcjrGolden:
    @pytest.mark.parametrize("terminated, with_apriori", sorted(_GOLDEN_OUT))
    def test_literal_vectors(self, terminated, with_apriori):
        trellis = BcjrTrellis(RscCode())
        a_priori = np.array(_GOLDEN_APRI) if with_apriori else None
        want_llr, want_ext = _GOLDEN_OUT[terminated, with_apriori]
        for path in _paths():
            llr, ext = _decode_on(path, trellis, np.array(_GOLDEN_SYS),
                                  np.array(_GOLDEN_PAR), a_priori,
                                  terminated=terminated)
            assert [x.hex() for x in llr.tolist()] == want_llr, path
            assert [x.hex() for x in ext.tolist()] == want_ext, path


class TestFusedBcjr:
    @given(
        st.integers(1, 200),
        st.sampled_from([0.0, 1e-3, 1.0, 8.0, 100.0, 1e4]),
        st.booleans(),
        st.booleans(),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_matches_maximum_at_recursion(self, t_len, scale, terminated,
                                          with_apriori, seed):
        trellis = BcjrTrellis(RscCode())
        rng = np.random.default_rng(seed)
        sys_llrs = scale * rng.normal(size=t_len)
        parity = scale * rng.normal(size=(2, t_len))
        a_priori = scale * rng.normal(size=t_len) if with_apriori else None
        want = _maximum_at_bcjr(trellis, sys_llrs, parity, a_priori,
                                terminated)
        for path in _paths():
            got = _decode_on(path, trellis, sys_llrs, parity, a_priori,
                             terminated)
            for g, w in zip(got, want):
                assert g.tobytes() == w.tobytes(), path

    @pytest.mark.parametrize("scale", [1e30, 1e31])
    def test_floor_keeps_huge_metrics_exact(self, scale):
        """Branch metrics as large as _NEG push candidates below it and let
        them reach the LLR maxima; only the floor keeps the fused step
        equal to maximum.at."""
        trellis = BcjrTrellis(RscCode())
        rng = np.random.default_rng(3)
        for terminated in (True, False):
            args = (scale * rng.normal(size=40),
                    scale * rng.normal(size=(2, 40)),
                    scale * rng.normal(size=40))
            want = _maximum_at_bcjr(trellis, *args, terminated=terminated)
            for path in _paths():
                got = _decode_on(path, trellis, *args, terminated=terminated)
                for g, w in zip(got, want):
                    assert g.tobytes() == w.tobytes(), path

    def test_branches_per_state(self):
        trellis = BcjrTrellis(RscCode())
        for table, states in ((trellis.in_branches, trellis.to_state),
                              (trellis.out_branches, trellis.from_state)):
            assert table.shape == (2, trellis.n_states)
            assert (states[table] == np.arange(trellis.n_states)).all()
            assert (table[0] < table[1]).all()  # branch order kept

    def test_rejects_state_without_two_predecessors(self):
        # both inputs of states 0 and 1 lead to state 0: state 0 gets four
        # incoming branches and state 1 none
        next_state = np.array([[0, 0], [0, 0], [2, 3], [2, 3]])
        code = SimpleNamespace(n_states=4, next_state=next_state,
                               parity_out=np.zeros((4, 2, 2), dtype=np.int64))
        with pytest.raises(ValueError, match="incoming"):
            BcjrTrellis(code)

    def test_rejects_state_count_mismatch(self):
        # a next-state table naming a state beyond n_states
        code = SimpleNamespace(n_states=2, next_state=np.array([[0, 1], [2, 0]]),
                               parity_out=np.zeros((2, 2, 2), dtype=np.int64))
        with pytest.raises(ValueError, match="incoming"):
            BcjrTrellis(code)


_NAN = np.float64(np.nan)  # 0x7ff8000000000000, numpy's canonical NaN


def _numpy_reduces_like_the_kernel():
    """Whether numpy's ``maximum.reduce`` over an 8-state half picks NaN
    payloads and signed zeros the way ``kernels.c`` does: a NaN first value
    made canonical, then a left fold keeping the later of two ties.  That
    is numpy's AVX-512 loop; its narrower SIMD loops reduce in another
    order, and then only NaN-free, tie-free inputs compare bit for bit."""
    probes = [([-_NAN, 1, 2, 3, 4, 5, 6, 7], _NAN),
              ([1, -_NAN, _NAN, 3, 4, 5, 6, 7], -_NAN),
              ([1, _NAN, -_NAN, 3, 4, 5, 6, 7], _NAN),
              ([0.0, -0.0, -0.0, 0.0, -0.0, 0.0, 0.0, -0.0], -0.0),
              ([-0.0, 0.0, -0.0, -0.0, 0.0, -0.0, -0.0, 0.0], 0.0)]
    out = np.empty((1, 1))
    for row, want in probes:
        np.maximum.reduce(np.array([row]), axis=1, keepdims=True, out=out)
        if out.tobytes() != np.float64(want).tobytes():
            return False
    return True


class TestCompiledBcjr:
    @given(
        st.integers(0, 300),
        st.sampled_from([0.1, 1.0, 100.0, 1e30]),
        st.booleans(),
        st.booleans(),
        st.integers(0, 12),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_paths_agree_bit_for_bit_on_special_values(
            self, t_len, scale, terminated, with_apriori, n_special, seed):
        """±inf, NaN and ±0 in the LLRs reach every step of the recursion
        (inf - inf makes NaNs with the other sign); the compiled kernel
        must pick the same NaN payloads and zero signs as the numpy loop."""
        if ckernels.load() is None:
            pytest.skip("compiled kernels unavailable here")
        if not _numpy_reduces_like_the_kernel():
            pytest.skip("numpy's maximum.reduce orders NaN and zero ties "
                        "differently on this CPU")
        trellis = BcjrTrellis(RscCode())
        rng = np.random.default_rng(seed)
        sys_llrs = scale * rng.normal(size=t_len)
        parity = scale * rng.normal(size=(2, t_len))
        a_priori = scale * rng.normal(size=t_len) if with_apriori else None
        inputs = [sys_llrs, parity] + ([a_priori] if with_apriori else [])
        specials = [np.inf, -np.inf, _NAN, -_NAN, 0.0, -0.0]
        for _ in range(n_special if t_len else 0):
            flat = inputs[rng.integers(len(inputs))].reshape(-1)
            flat[rng.integers(flat.size)] = specials[rng.integers(6)]
        with np.errstate(invalid="ignore"):
            got = _decode_on("compiled", trellis, sys_llrs, parity, a_priori,
                             terminated)
            want = _decode_on("numpy", trellis, sys_llrs, parity, a_priori,
                              terminated)
        for g, w in zip(got, want):
            assert g.tobytes() == w.tobytes()

    @given(st.integers(0, 300), st.booleans(), st.booleans(),
           st.sampled_from([0.0, 0.001, 0.02, 0.2]),
           st.integers(0, 2**32 - 1))
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_recursions_agree_bit_for_bit_on_ties_and_nans(
            self, t_len, terminated, with_apriori, special_rate, seed):
        """Whole decodes on coarse LLRs from {0, -0, +-1, +-2}, whose
        branch and state metrics tie at every step (signed-zero ties, half
        maxima of +-0), with +-inf and NaNs of both signs sprinkled in at
        ``special_rate``: the compiled decode must pick the numpy body's
        ties, NaN payloads and zero signs in every stage."""
        if ckernels.load() is None:
            pytest.skip("compiled kernels unavailable here")
        if not _numpy_reduces_like_the_kernel():
            pytest.skip("numpy's maximum.reduce orders NaN and zero ties "
                        "differently on this CPU")
        rng = np.random.default_rng(seed)
        draws = rng.choice([0.0, -0.0, 1.0, -1.0, 2.0, -2.0],
                           size=(4, t_len))
        mask = rng.random(draws.shape) < special_rate
        draws[mask] = rng.choice([np.inf, -np.inf, _NAN, -_NAN],
                                 size=int(mask.sum()))
        sys_llrs, parity = draws[0], draws[1:3]
        a_priori = draws[3] if with_apriori else None
        with np.errstate(invalid="ignore"):
            got = _decode_on("compiled", BcjrTrellis(RscCode()), sys_llrs,
                             parity, a_priori, terminated)
            want = _decode_on("numpy", BcjrTrellis(RscCode()), sys_llrs,
                              parity, a_priori, terminated)
        for g, w in zip(got, want):
            assert g.tobytes() == w.tobytes()

    @staticmethod
    def _tables():
        trellis = BcjrTrellis(RscCode())
        return {name: getattr(trellis, name) for name in (
            "from_state", "to_state", "input_bit", "in_branches",
            "out_branches", "sys_sign", "par_sign")}

    @staticmethod
    def _fake():
        def reached_c(*args):
            raise AssertionError("a bad call reached the C kernel")

        def from_buffer(kind, a, require_writable=False):
            return a

        ffi = SimpleNamespace(from_buffer=from_buffer, NULL=None,
                              new=lambda kind: SimpleNamespace())
        return SimpleNamespace(ffi=ffi, lib=SimpleNamespace(
            bcjr_decode=reached_c))

    @pytest.mark.parametrize("name, bad", [
        ("from_state", lambda a: a + 8),
        ("from_state", lambda a: a - 1),
        ("from_state", lambda a: a.astype(np.int32)),
        ("from_state", lambda a: a[:-1]),
        ("to_state", lambda a: a + 8),
        ("to_state", lambda a: a.astype(np.float64)),
        ("input_bit", lambda a: a + 1),
        ("input_bit", lambda a: np.zeros_like(a)),
        ("in_branches", lambda a: a + 16),
        ("in_branches", lambda a: a - 1),
        ("in_branches", lambda a: a[:, :-1]),
        ("out_branches", lambda a: a + 16),
        ("out_branches", lambda a: a.astype(np.uint64)),
        ("sys_sign", lambda a: a.astype(np.float32)),
        ("sys_sign", lambda a: a[:-2]),
        ("par_sign", lambda a: a.reshape(-1)),
        ("par_sign", lambda a: a[:-2]),
        ("par_sign", lambda a: a.astype(np.int64)),
        ("par_sign", lambda a: a.tolist()),
    ])
    def test_bad_trellis_tables_raise_before_reaching_c(self, name, bad):
        tables = self._tables()
        tables[name] = bad(tables[name])
        with pytest.raises(ValueError):
            ckernels.BcjrDecoder(self._fake(), lowest=_NEG, **tables)

    @pytest.mark.parametrize("name, bad", [
        ("sys", lambda a: a[:-1]),
        ("sys", lambda a: a.reshape(1, -1)),
        ("sys", lambda a: a.astype(np.float32)),
        ("sys", lambda a: a[::2]),
        ("sys", lambda a: np.zeros(2 * a.size)[::2]),
        ("sys", lambda a: a.tolist()),
        ("parity", lambda a: a[:, :-1]),
        ("parity", lambda a: a[:1]),
        ("parity", lambda a: np.concatenate([a, a])),
        ("parity", lambda a: a.T.copy()),
        ("parity", lambda a: a.reshape(-1)),
        ("parity", lambda a: a.astype(np.float32)),
        ("parity", lambda a: np.asfortranarray(a)),
        ("parity", lambda a: a.tolist()),
        ("apri", lambda a: a[:-1]),
        ("apri", lambda a: np.concatenate([a, a])),
        ("apri", lambda a: a.astype(np.float32)),
        ("apri", lambda a: a[::2]),
        ("apri", lambda a: np.zeros(2 * a.size)[::2]),
        ("apri", lambda a: a.tolist()),
    ])
    def test_bad_calls_raise_before_reaching_c(self, name, bad):
        decoder = ckernels.BcjrDecoder(self._fake(), lowest=_NEG,
                                       **self._tables())
        call = {"sys": np.zeros(6), "parity": np.zeros((2, 6)),
                "apri": np.zeros(6)}
        call[name] = bad(call[name])
        with pytest.raises(ValueError):
            decoder.decode(call["sys"], call["parity"], call["apri"], True)


class TestTurbo:
    def test_rate_one_fifth(self):
        t = TurboCodec(k=300)
        assert t.n_coded == 5 * 300 + 18
        assert 300 / t.n_coded == pytest.approx(0.2, abs=0.005)

    def test_clean_roundtrip(self):
        t = TurboCodec(k=100, interleaver_seed=1)
        msg = random_message(100, 0)
        coded = t.encode(msg)
        llrs = 8.0 * (1.0 - 2.0 * coded.astype(np.float64))
        assert np.array_equal(t.decode(llrs), msg)

    def test_decodes_below_zero_db(self):
        """Rate-1/5 QPSK should decode around -2 dB even at short length."""
        t = TurboCodec(k=200, interleaver_seed=2, iterations=8)
        qpsk = QPSK()
        msg = random_message(200, 1)
        coded = t.encode(msg)
        ch = AWGNChannel(-1, rng=2)
        y = ch.transmit(qpsk.modulate(coded)).values
        llrs = soft_demap(qpsk, y, ch.noise_power)[: t.n_coded]
        assert np.array_equal(t.decode(llrs), msg)

    def test_fails_far_below_threshold(self):
        t = TurboCodec(k=200, interleaver_seed=3, iterations=6)
        qpsk = QPSK()
        msg = random_message(200, 2)
        coded = t.encode(msg)
        ch = AWGNChannel(-9, rng=3)
        y = ch.transmit(qpsk.modulate(coded)).values
        llrs = soft_demap(qpsk, y, ch.noise_power)[: t.n_coded]
        assert not np.array_equal(t.decode(llrs), msg)

    def test_interleaver_shared(self):
        a = TurboCodec(k=50, interleaver_seed=9)
        b = TurboCodec(k=50, interleaver_seed=9)
        assert np.array_equal(a.interleaver, b.interleaver)


class TestStriderCodec:
    def test_power_ladder_normalised(self):
        p = StriderCodec._layer_powers(12, 0.45, 2)
        assert p.sum() == pytest.approx(1.0)
        assert (np.diff(p) < 0).all()  # strongest layer first
        assert p[0] / p[1] == pytest.approx(1.225)

    def test_unit_transmit_power(self):
        codec = StriderCodec(n_bits=480, n_layers=4, max_passes=8)
        layers = codec.encode_layers(random_message(480, 1))
        x = codec.pass_symbols(layers, 0)
        assert np.mean(np.abs(x) ** 2) == pytest.approx(1.0, rel=0.1)

    def test_noiseless_sic_roundtrip(self):
        codec = StriderCodec(n_bits=480, n_layers=4, max_passes=8)
        msg = random_message(480, 2)
        layers = codec.encode_layers(msg)
        passes = [codec.pass_symbols(layers, p) for p in range(4)]
        decoded = codec.decode(passes, noise_power=1e-6)
        assert np.array_equal(decoded, msg)

    def test_partial_pass_decoding(self):
        """A truncated final pass must still be usable (Strider+)."""
        codec = StriderCodec(n_bits=480, n_layers=4, max_passes=8)
        msg = random_message(480, 3)
        layers = codec.encode_layers(msg)
        t = codec.symbols_per_layer
        passes = [codec.pass_symbols(layers, p) for p in range(4)]
        passes.append(codec.pass_symbols(layers, 4, 0, t // 2))
        decoded = codec.decode(passes, noise_power=1e-6)
        assert np.array_equal(decoded, msg)

    def test_layer_count_must_divide(self):
        with pytest.raises(ValueError):
            StriderCodec(n_bits=100, n_layers=3)

    # The coefficients drawn from coeff_seed=7 for eight passes, as
    # (real, imag) float.hex literals compared exactly.  Both ends of a
    # link rebuild them from the seed, so a draw that stops depending on
    # coeff_seed alone (an unseeded or hash()-salted generator) must fail
    # here even when decoding still succeeds.  One layer keeps every
    # ladder power exactly 1: np.power's last bit depends on the CPU
    # features numpy dispatches to, and the literals pin the draw alone.
    _GOLDEN_COEFFS = [
        ("-0x1.69d24a20e7831p-1", "-0x1.6a417a2591104p-1"),
        ("0x1.98e29463baa10p-1", "-0x1.3426a32c70228p-1"),
        ("0x1.4916ef5e86c7ep-3", "-0x1.f958bf16979dfp-1"),
        ("0x1.3dbe8582bad95p-3", "0x1.f9ccde7c1bbd8p-1"),
        ("-0x1.3d7363b36d395p-2", "0x1.e6c67e623c0dcp-1"),
        ("0x1.66bbb34c4fda9p-1", "-0x1.6d50717d8bdbdp-1"),
        ("0x1.ffb84764cd689p-1", "0x1.0ef72e8e5b8dep-5"),
        ("0x1.bb22e7a64bc93p-2", "-0x1.cd9337bb22696p-1"),
    ]

    def test_coefficients_match_golden(self):
        codec = StriderCodec(n_bits=16, n_layers=1, max_passes=8,
                             coeff_seed=7)
        assert codec.coeffs.shape == (8, 1)
        assert [(z.real.hex(), z.imag.hex())
                for z in codec.coeffs[:, 0].tolist()] == self._GOLDEN_COEFFS


def _mmse_segment_per_time(codec, resid, noise, layer, interferers, cover,
                           lo, hi, z_over_s, inv_sinr):
    """The per-time MMSE combiner: one solve per symbol time, the oracle
    of ``StriderCodec._mmse_segment``'s one solve per run."""
    c_all = codec.coeffs[cover]
    c_l = c_all[:, layer]
    interf = c_all[:, interferers]
    cc = interf @ interf.conj().T
    seg = hi - lo
    p = cover.size
    v = np.stack([noise[q][lo:hi] for q in cover])
    b = np.broadcast_to(cc, (seg, p, p)).copy()
    idx = np.arange(p)
    b[:, idx, idx] += v.T
    rhs = np.broadcast_to(c_l[:, None], (seg, p, 1))
    w = np.linalg.solve(b, rhs)[..., 0]
    y = np.stack([resid[q][lo:hi] for q in cover])
    z = np.einsum("tp,pt->t", w.conj(), y)
    sinr = np.maximum(np.einsum("tp,p->t", w.conj(), c_l).real, 1e-12)
    z_over_s[lo:hi] = z / sinr
    inv_sinr[lo:hi] = 1.0 / sinr


def _noise_layout(kind, rng, n_rows, n):
    """Per-pass noise variances, (n_rows, n), in one of the layouts a
    decode meets: AWGN's scalar, CSI's runs of one coherence block (here
    1, 10 or 100 symbols, each pass's runs starting elsewhere), a fresh
    value per symbol, and runs with NaN and signed-zero entries."""
    if kind == "scalar":
        return np.full((n_rows, n), 0.3)
    if kind == "per_symbol":
        return rng.exponential(size=(n_rows, n))
    run = {"runs_1": 1, "runs_10": 10, "runs_100": 100, "special": 10}[kind]
    rows = []
    for _ in range(n_rows):
        shift = int(rng.integers(run))
        blocks = rng.exponential(size=(n + shift) // run + 1)
        rows.append(np.repeat(blocks, run)[shift:shift + n])
    v = np.stack(rows)
    if kind == "special":
        hit = rng.random(v.shape) < 0.05
        v[hit] = rng.choice([np.nan, 0.0, -0.0], size=hit.sum())
        v[:, 40:60] = -0.0
        v[0, 50:55] = 0.0
    return v


class TestGroupedMmse:
    """One MMSE solve per run of equal noise columns gives the per-time
    solve's combiner outputs bit for bit."""

    @pytest.mark.parametrize("kind", ["scalar", "runs_1", "runs_10",
                                      "runs_100", "per_symbol", "special"])
    @pytest.mark.parametrize("seed", range(3))
    def test_matches_one_solve_per_time(self, kind, seed):
        rng = np.random.default_rng(seed)
        codec = StriderCodec(n_bits=480, n_layers=8, max_passes=8,
                             coeff_seed=seed)
        n_passes, t = 5, codec.symbols_per_layer
        resid = [rng.normal(size=t) + 1j * rng.normal(size=t)
                 for _ in range(n_passes)]
        noise = list(_noise_layout(kind, rng, n_passes, t))
        layer, interferers = 2, np.array([0, 4, 5, 6, 7])
        for cover, lo, hi in ((np.arange(n_passes), 0, t),
                              (np.array([1, 3, 4]), 7, t - 5),
                              (np.array([2]), 0, 1)):
            got, want = ([np.zeros(t, dtype=np.complex128),
                          np.full(t, 1e12)] for _ in range(2))
            with np.errstate(all="ignore"):
                codec._mmse_segment(resid, noise, layer, interferers, cover,
                                    lo, hi, *got)
                _mmse_segment_per_time(codec, resid, noise, layer,
                                       interferers, cover, lo, hi, *want)
            for have, ref in zip(got, want):
                assert (have.view(np.uint64).tolist()
                        == ref.view(np.uint64).tolist())

    @pytest.mark.parametrize("p", [1, 2, 3, 5, 8])
    def test_lapack_solves_each_matrix_of_a_batch_on_its_own(self, p):
        """The premise of the grouped solve: a matrix solved alone gives
        the bits of its slot in a batch.  A BLAS that breaks it fails
        here rather than moving stores."""
        rng = np.random.default_rng(p)
        b = (rng.normal(size=(9, p, p))
             + 1j * rng.normal(size=(9, p, p))) + 2.0 * np.eye(p)
        rhs = rng.normal(size=(p, 1)) + 1j * rng.normal(size=(p, 1))
        batch = np.linalg.solve(b, np.broadcast_to(rhs, (9, p, 1)))
        for i in range(9):
            alone = np.linalg.solve(b[i], rhs)
            single = np.linalg.solve(b[i:i + 1], rhs[None])[0]
            for got in (alone, single):
                assert (got.view(np.uint64).tolist()
                        == batch[i].view(np.uint64).tolist())


class TestStriderScheme:
    def test_high_snr_hits_two_pass_ceiling(self):
        scheme = StriderScheme(n_bits=960, n_layers=6, max_passes=16)
        m = measure_scheme(
            scheme, lambda rng: AWGNChannel(18, rng=rng), 18,
            n_messages=2, seed=0,
        )
        ceiling = 0.4 * 6 / 2
        assert m.rate == pytest.approx(ceiling, rel=0.1)

    def test_plus_beats_plain_between_steps(self):
        """Puncturing should never do worse than whole-pass granularity."""
        plain = measure_scheme(
            StriderScheme(n_bits=960, n_layers=6, max_passes=16),
            lambda rng: AWGNChannel(9, rng=rng), 9, n_messages=2, seed=1,
        )
        plus = measure_scheme(
            StriderScheme(n_bits=960, n_layers=6, subpasses_per_pass=4,
                          max_passes=16),
            lambda rng: AWGNChannel(9, rng=rng), 9, n_messages=2, seed=1,
        )
        assert plus.rate >= plain.rate * 0.95

    def test_rate_tracks_snr(self):
        lo = measure_scheme(
            StriderScheme(n_bits=960, n_layers=6, max_passes=24),
            lambda rng: AWGNChannel(2, rng=rng), 2, n_messages=2, seed=2,
        )
        hi = measure_scheme(
            StriderScheme(n_bits=960, n_layers=6, max_passes=24),
            lambda rng: AWGNChannel(16, rng=rng), 16, n_messages=2, seed=2,
        )
        assert hi.rate > lo.rate
