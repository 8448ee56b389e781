"""The decode kernels: golden vectors, bit-identity, store invariance.

The contract under test (see :mod:`repro.backend`): the compiled C kernels
of :mod:`repro.backend.ckernels` and the numpy bodies they fall back on
produce bit-identical output — hash words, float64 branch costs, and
therefore whole ``DecodeResult``s (equal to the reference search of
``tests/reference_decoder.py``) and store bytes.  Every test runs on both
paths: compiled, and the numpy bodies with ``ckernels.load`` patched to
``None``, which are the oracle.
"""

import os
import tempfile
from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.backend import branch_costs_batch, ckernels, get_backend, hash_kernel
from repro.channels import AWGNChannel, BSCChannel
from repro.core.decoder import BatchBubbleDecoder
from repro.core.encoder import BatchSpinalEncoder
from repro.core.hashes import (
    _rotl32,
    available_hashes,
    get_hash,
    reference_hashes,
)
from repro.core.params import DecoderParams, SpinalParams
from repro.core.symbols import BatchReceivedSymbols, ReceivedSymbols
from repro.experiments.orchestrator import run_experiment
from repro.experiments.spec import (
    ChannelSpec,
    ExperimentSpec,
    PointSpec,
    SchemeSpec,
)
from repro.experiments.store import ResultStore
from repro.utils.bitops import random_message

from deadline import deadline
from reference_decoder import reference_decode


def _paths():
    """Where the kernels can run here: the numpy bodies always, the
    compiled kernels when they build."""
    return ("numpy", "compiled") if ckernels.load() is not None else ("numpy",)


@contextmanager
def _on_path(path):
    """Run the kernels on ``path`` inside the block.

    ``numpy`` hides the compiled kernels, as when they fail to build;
    ``compiled`` requires them.  Yields a list that collects one entry per
    compiled hash or branch-cost call made inside the block.
    """
    calls = []
    if path == "numpy":
        with mock.patch.object(ckernels, "load", lambda: None):
            yield calls
        return
    assert ckernels.load() is not None

    def counted(fn):
        def wrapper(*args, **kwargs):
            calls.append(fn.__name__)
            return fn(*args, **kwargs)
        return wrapper

    with mock.patch.object(ckernels, "spine_hash",
                           counted(ckernels.spine_hash)), \
            mock.patch.object(ckernels, "branch_costs",
                              counted(ckernels.branch_costs)):
        yield calls


# ---------------------------------------------------------------------------
# golden hash vectors (instant red/green for kernel authors)
# ---------------------------------------------------------------------------

#: (state, data) -> digest, computed from the reference implementations.
GOLDEN_VECTORS = {
    "one_at_a_time": [
        (0x00000000, 0x00000000, 0x00000000),
        (0x00000001, 0x00000002, 0xA8B86EFF),
        (0xDEADBEEF, 0x00001234, 0xFCFED454),
        (0xFFFFFFFF, 0xFFFFFFFF, 0x39229C66),
        (0x12345678, 0x9ABCDEF0, 0x1AA2D8D9),
        (0x12345678, 0x00000007, 0x1F7A91A7),
    ],
    "lookup3": [
        (0x00000000, 0x00000000, 0x58C184BF),
        (0x00000001, 0x00000002, 0x8B4C7979),
        (0xDEADBEEF, 0x00001234, 0xFC210BE8),
        (0xFFFFFFFF, 0xFFFFFFFF, 0x52648E85),
        (0x12345678, 0x9ABCDEF0, 0x74C82AB8),
        (0x12345678, 0x00000007, 0x944D011D),
    ],
    "salsa20": [
        (0x00000000, 0x00000000, 0x4084DB01),
        (0x00000001, 0x00000002, 0x51595E9D),
        (0xDEADBEEF, 0x00001234, 0x7102621A),
        (0xFFFFFFFF, 0xFFFFFFFF, 0x26FFD7DA),
        (0x12345678, 0x9ABCDEF0, 0x70C12A13),
        (0x12345678, 0x00000007, 0x23232BFA),
    ],
}


class TestGoldenVectors:
    @pytest.mark.parametrize("hash_name", sorted(GOLDEN_VECTORS))
    def test_reference_implementation(self, hash_name):
        fn = reference_hashes()[hash_name]
        states, datas, digests = map(
            np.uint32, zip(*GOLDEN_VECTORS[hash_name]))
        assert np.array_equal(fn(states, datas), digests)

    @pytest.mark.parametrize("hash_name", sorted(GOLDEN_VECTORS))
    def test_default_backend_on_both_paths(self, hash_name):
        """The hash kernels, compiled and on the numpy fallback."""
        fn = hash_kernel(hash_name)
        states, datas, digests = map(
            np.uint32, zip(*GOLDEN_VECTORS[hash_name]))
        for path in _paths():
            with _on_path(path) as calls:
                assert np.array_equal(fn(states, datas), digests), path
            assert bool(calls) == (path == "compiled")

    def test_vectors_cover_every_registered_hash(self):
        assert set(GOLDEN_VECTORS) == set(available_hashes())

    def test_broadcasting_preserved(self):
        """The hash kernels keep the reference broadcast semantics."""
        ref = reference_hashes()["one_at_a_time"]
        alt = hash_kernel("one_at_a_time")
        states = np.arange(6, dtype=np.uint32).reshape(2, 3, 1)
        datas = np.arange(4, dtype=np.uint32)
        s = np.uint32(7)
        for path in _paths():
            with _on_path(path):
                a, b = ref(states, datas), alt(states, datas)
                assert a.shape == b.shape == (2, 3, 4)
                assert np.array_equal(a, b)
                # 0-d in, 0-d out
                assert alt(s, s).shape == ()
                assert alt(s, s) == ref(s, s)

    @pytest.mark.parametrize("hash_name", sorted(GOLDEN_VECTORS))
    def test_compiled_broadcasting_matches_reference(self, hash_name):
        """The compiled hash broadcasts like the reference, for the
        decoder's two layouts and for the odd ones: scalars, Python ints,
        empty, strided and unaligned operands."""
        ref = reference_hashes()[hash_name]
        fn = hash_kernel(hash_name)
        rng = np.random.default_rng(3)

        def words(*shape):
            return rng.integers(0, 2**32, size=shape, dtype=np.uint32)

        unaligned = np.frombuffer(
            words(9).tobytes() + b"\0", dtype=np.uint8)[1:].view(np.uint32)
        cases = [
            (words(2, 5, 3, 1), np.arange(16, dtype=np.uint32)),  # expansion
            (words(1, 2, 40), words(7, 1, 1)),                   # branch cost
            (words(6), words(6)), (words(4, 1), words(3)),
            (words(3, 1, 2), words(1, 4, 1)), (words(5, 1), words(1)),
            (np.uint32(7), np.uint32(9)), (123456789, words(4)),
            (words(0, 1), words(5)), (words(3, 1), words(0)),
            (words(8, 6)[::2, ::3], words(2, 4).T[:, :1]),
            (unaligned, unaligned[::-1]),
        ]
        for state, data in cases:
            want = ref(state, data)
            for path in _paths():
                with _on_path(path):
                    got = fn(state, data)
                assert got.dtype == np.uint32 and got.shape == want.shape
                assert np.array_equal(got, want), (path, np.shape(state),
                                                   np.shape(data))


# ---------------------------------------------------------------------------
# the uint32 rotate behind lookup3 and salsa20
# ---------------------------------------------------------------------------

def _python_rotl32(x, k):
    return np.uint32([
        ((int(v) << k) | (int(v) >> (32 - k))) & 0xFFFFFFFF for v in x])


class TestRotl32:
    def test_matches_python_reference(self):
        rng = np.random.default_rng(0)
        x = rng.integers(0, 2**32, size=64, dtype=np.uint32)
        out = np.empty_like(x)
        scratch = np.empty_like(x)
        for k in (1, 7, 13, 18, 31):
            assert _rotl32(x, k, out, scratch) is out
            assert np.array_equal(out, _python_rotl32(x, k))

    def test_scratch_may_alias_x(self):
        """Callers done with x may pass scratch=x (documented legality)."""
        rng = np.random.default_rng(2)
        x = rng.integers(0, 2**32, size=17, dtype=np.uint32)
        expect = _python_rotl32(x, 9)
        out = np.empty_like(x)
        assert np.array_equal(_rotl32(x, 9, out, x), expect)


# ---------------------------------------------------------------------------
# branch-cost kernel bit-identity (compiled vs numpy reference)
# ---------------------------------------------------------------------------

class TestBranchCostBitIdentity:
    """The one branch-cost kernel, compiled vs the numpy reference.

    Every case runs a one-message (M=1) input and a cohort input.
    """

    LEVELS = np.linspace(-1.5, 1.5, 8)

    def _check(self, states, slots, values, csi, **kwargs):
        got = {}
        for path in _paths():
            with _on_path(path) as calls:
                got[path] = branch_costs_batch(states, slots, values, csi,
                                               **kwargs)
            assert calls == (["branch_costs"] if path == "compiled" else [])
        want = got["numpy"]
        assert want.shape == states.shape
        for name, out in got.items():
            assert out.dtype == np.float64
            assert np.array_equal(_bits(out), _bits(want)), name  # bitwise

    def _awgn(self, seed, M, n_states, hash_name, with_csi):
        rng = np.random.default_rng(seed)
        states = rng.integers(0, 2**32, size=(M, n_states), dtype=np.uint32)
        slots = rng.integers(0, 100, size=5, dtype=np.uint32)
        values = rng.normal(size=(M, 5)) + 1j * rng.normal(size=(M, 5))
        csi = (rng.normal(size=(M, 5)) + 1j * rng.normal(size=(M, 5))
               if with_csi else None)
        self._check(states, slots, values, csi, hash_name=hash_name,
                    levels=self.LEVELS, c=3, is_bsc=False)

    @pytest.mark.parametrize("hash_name", sorted(GOLDEN_VECTORS))
    @pytest.mark.parametrize("with_csi", [False, True],
                             ids=["awgn", "fading-csi"])
    def test_scalar(self, hash_name, with_csi):
        """One message: a one-row cohort."""
        self._awgn(3, 1, 37, hash_name, with_csi)

    @pytest.mark.parametrize("hash_name", sorted(GOLDEN_VECTORS))
    @pytest.mark.parametrize("with_csi", [False, True],
                             ids=["awgn", "fading-csi"])
    def test_batch(self, hash_name, with_csi):
        self._awgn(4, 4, 21, hash_name, with_csi)

    @pytest.mark.parametrize("hash_name", sorted(GOLDEN_VECTORS))
    def test_bsc(self, hash_name):
        rng = np.random.default_rng(5)
        states = rng.integers(0, 2**32, size=37, dtype=np.uint32)
        slots = rng.integers(0, 100, size=6, dtype=np.uint32)
        kwargs = dict(hash_name=hash_name, levels=self.LEVELS,
                      c=1, is_bsc=True)
        for M in (1, 3):
            values = rng.integers(0, 2, size=(M, 6)).astype(np.float64)
            self._check(np.tile(states, (M, 1)), slots, values, None,
                        **kwargs)

    def test_empty_slots(self):
        """Punctured spine positions cost zero on both paths."""
        states = np.arange(5, dtype=np.uint32)
        slots = np.empty(0, dtype=np.uint32)
        kwargs = dict(hash_name="one_at_a_time", levels=self.LEVELS,
                      c=3, is_bsc=False)
        for path in _paths():
            for M in (1, 2):
                with _on_path(path):
                    out = branch_costs_batch(
                        np.tile(states, (M, 1)), slots,
                        np.empty((M, 0), dtype=np.complex128), None,
                        **kwargs)
                assert np.array_equal(out, np.zeros((M, 5)))


# ---------------------------------------------------------------------------
# the non-CSI AWGN metric against the gather formulation it replaced
# ---------------------------------------------------------------------------

def _gather_awgn_oracle(words, y, levels, c):
    """Reference oracle: look each word's levels up, then subtract and square.

    This is the direct formulation the numpy kernels used before they read
    per-slot distance tables.  ``words`` is ``(n_slots, [M,] n_states)``
    and ``y`` has one received value per leading ``(slot[, message])``.
    """
    c_mask = np.uint32((1 << c) - 1)
    x_i = levels[(words & c_mask).astype(np.intp)]
    x_q = levels[((words >> np.uint32(c)) & c_mask).astype(np.intp)]
    d_r = y.real[..., None] - x_i
    d_q = y.imag[..., None] - x_q
    return (d_r * d_r + d_q * d_q).sum(axis=0)


def _bits(x):
    """float64 bit patterns, so NaN positions and payloads must match."""
    return np.ascontiguousarray(x, dtype=np.float64).view(np.uint64)


_SPECIAL = np.array([np.inf, -np.inf, np.nan, 0.0, -0.0, 1e300])


def _received(rng, shape, n_special):
    """Complex received values, some components replaced by inf/NaN/etc.

    Built component-wise: ``re + 1j * im`` would turn an infinite ``im``
    into a NaN real part.
    """
    values = np.empty(shape, dtype=np.complex128)
    for part in (values.real, values.imag):
        flat = rng.normal(scale=2.0, size=part.size)
        hit = rng.choice(part.size, size=min(n_special, part.size),
                         replace=False) if part.size else []
        flat[hit] = rng.choice(_SPECIAL, size=len(hit))
        part[...] = flat.reshape(shape)
    return values


def _check_against_oracle(seed, n_slots, n_msgs, n_states, c, n_special):
    rng = np.random.default_rng(seed)
    levels = np.sort(rng.normal(size=1 << c))
    states = rng.integers(0, 2**32, size=(n_msgs, n_states), dtype=np.uint32)
    # Slots span the full word so every data byte of the hash is exercised.
    slots = rng.integers(0, 2**32, size=n_slots, dtype=np.uint32)
    values = _received(rng, (n_msgs, n_slots), n_special)
    kwargs = dict(hash_name="one_at_a_time", levels=levels, c=c,
                  is_bsc=False)
    ref_hash = reference_hashes()["one_at_a_time"]
    # inf - inf and 1e300 squared are meant to happen here
    with np.errstate(all="ignore"):
        words = ref_hash(states[None, :, :], slots[:, None, None])
        expect = _gather_awgn_oracle(words, values.T, levels, c)
        for path in _paths():
            with _on_path(path) as calls:
                batch = branch_costs_batch(states, slots, values, None,
                                           **kwargs)
            assert batch.shape == expect.shape == (n_msgs, n_states)
            assert np.array_equal(_bits(batch), _bits(expect)), path
            # the compiled kernel runs unless there is nothing to sum or
            # the input is a lone column (numpy sums those pairwise)
            assert bool(calls) == (path == "compiled" and n_slots > 0
                                   and n_msgs * n_states > 1)

            # Each message alone, as a one-row input.
            for m in range(n_msgs):
                with _on_path(path):
                    one = branch_costs_batch(
                        states[m:m + 1], slots, values[m:m + 1], None,
                        **kwargs)
                words = ref_hash(states[None, m:m + 1, :],
                                 slots[:, None, None])
                expect_one = _gather_awgn_oracle(
                    words, values[m:m + 1].T, levels, c)
                assert np.array_equal(_bits(one), _bits(expect_one)), path


class TestAwgnMetricOracle:
    """The branch costs reproduce the gather oracle bit for bit, on a
    cohort and on each of its messages as a one-row input, on the compiled
    kernel and on the numpy fallback."""

    @given(seed=st.integers(0, 2**32 - 1), n_slots=st.integers(0, 40),
           n_msgs=st.integers(1, 4), n_states=st.integers(1, 24),
           c=st.integers(2, 8), n_special=st.integers(0, 6))
    @settings(max_examples=150, deadline=None)
    def test_matches_gather_oracle(self, seed, n_slots, n_msgs, n_states,
                                   c, n_special):
        _check_against_oracle(seed, n_slots, n_msgs, n_states, c,
                              n_special)

    def test_c16(self):
        """The widest constellation: 2^16-entry tables per slot."""
        _check_against_oracle(7, n_slots=3, n_msgs=2, n_states=9, c=16,
                              n_special=2)

    def test_several_state_blocks(self):
        """More states than the compiled kernel scores per block (256)."""
        _check_against_oracle(13, n_slots=5, n_msgs=2, n_states=600, c=6,
                              n_special=2)

    def test_position_without_symbols(self):
        """A punctured spine position costs exactly zero, as in the oracle."""
        _check_against_oracle(11, n_slots=0, n_msgs=3, n_states=5, c=6,
                              n_special=0)


class TestCompiledSpecialValues:
    """The compiled CSI and BSC metrics match the numpy bodies bit for bit
    with inf, NaN, signed zeros and 1e300 among the received values and
    channel gains, for every hash.

    Up to the choice between two different NaNs: ``inf - inf`` makes a
    negative NaN beside the positive received ones, and numpy's own float64
    add returns the first operand's NaN in whole SIMD chunks but the second
    operand's in a loop tail (numpy 2.4.6 on AVX-512: ``np.add`` of 9
    elements takes the first operand's NaN for 8 and the second's for the
    last), so its pick depends on the element's position.  Costs agree on
    which entries are NaN; every other entry is compared bit for bit.
    """

    @given(seed=st.integers(0, 2**32 - 1), n_slots=st.integers(1, 20),
           n_msgs=st.integers(1, 3), n_states=st.integers(2, 300),
           c=st.integers(1, 8), n_special=st.integers(0, 6),
           hash_name=st.sampled_from(sorted(GOLDEN_VECTORS)),
           metric=st.sampled_from(["csi", "bsc"]))
    @settings(max_examples=80, deadline=None)
    def test_matches_numpy(self, seed, n_slots, n_msgs, n_states, c,
                           n_special, hash_name, metric):
        if ckernels.load() is None:
            pytest.skip("compiled kernels unavailable here")
        rng = np.random.default_rng(seed)
        states = rng.integers(0, 2**32, size=(n_msgs, n_states),
                              dtype=np.uint32)
        slots = rng.integers(0, 2**32, size=n_slots, dtype=np.uint32)
        shape = (n_msgs, n_slots)
        if metric == "bsc":
            values = _received(rng, shape, n_special).real.copy()
            csi, c, levels = None, 1, np.array([-1.0, 1.0])
        else:
            values = _received(rng, shape, n_special)
            csi = _received(rng, shape, n_special)
            levels = np.sort(rng.normal(size=1 << c))
        kwargs = dict(hash_name=hash_name, levels=levels, c=c,
                      is_bsc=metric == "bsc")
        with np.errstate(all="ignore"):
            outs = {}
            for path in ("numpy", "compiled"):
                with _on_path(path):
                    outs[path] = branch_costs_batch(
                        states, slots, values, csi, **kwargs)
        got, want = (np.where(np.isnan(outs[p]), np.nan, outs[p])
                     for p in ("compiled", "numpy"))
        assert np.array_equal(_bits(got), _bits(want))


# ---------------------------------------------------------------------------
# the one backend: its name and get_hash
# ---------------------------------------------------------------------------

class TestBackendSelection:
    """There is one kernel set; what remains of selecting it is its name
    in metrics and the hash kernels :func:`get_hash` hands out."""

    def test_default_is_numpy(self):
        assert get_backend().name == "numpy"
        assert get_backend() is get_backend()

    def test_get_hash_numpy_identity_preserved(self):
        """get_hash returns the hash kernels (compiled, with the references
        as fallback), which give the references' words."""
        rng = np.random.default_rng(4)
        states = rng.integers(0, 2**32, size=(3, 1), dtype=np.uint32)
        data = np.arange(5, dtype=np.uint32)
        for name, fn in reference_hashes().items():
            assert get_hash(name) is hash_kernel(name)
            assert np.array_equal(get_hash(name)(states, data),
                                  fn(states, data))

    def test_get_hash_unknown_name_still_rejected(self):
        with pytest.raises(ValueError, match="unknown hash"):
            get_hash("md5")


# ---------------------------------------------------------------------------
# decode equivalence matrix on both paths
# ---------------------------------------------------------------------------

def _cohort_stores(params, n_bits, x, M=3, seed=17, csi_phases=False,
                   n_subpasses=3):
    """A cohort's batch view plus one single-message store per row."""
    rng = np.random.default_rng(seed)
    messages = np.stack([random_message(n_bits, rng) for _ in range(M)])
    encoder = BatchSpinalEncoder(params, messages)
    block = encoder.generate_batch(0, n_subpasses)
    received = np.stack([
        (BSCChannel(x, rng=np.random.default_rng(seed + 1 + m))
         if params.is_bsc
         else AWGNChannel(x, rng=np.random.default_rng(seed + 1 + m)))
        .transmit(block.values[m]).values
        for m in range(M)
    ])
    store = BatchReceivedSymbols(encoder.n_spine, M,
                                 complex_valued=not params.is_bsc)
    csi = None
    if csi_phases:
        csi = np.exp(2j * np.pi * rng.random(received.shape))
    store.add_block(block.spine_indices, block.slots, received, csi=csi)
    rows = []
    for m in range(M):
        one = ReceivedSymbols(encoder.n_spine,
                              complex_valued=not params.is_bsc)
        one.add_block(block.spine_indices, block.slots, received[m],
                      csi=None if csi is None else csi[m])
        rows.append(one)
    return store.prefix(np.arange(M), store.checkpoint()), rows


def _decode_configs(hashes):
    configs = []
    for hash_name in hashes:
        configs.extend([
            pytest.param(SpinalParams(hash_name=hash_name), 8.0, False,
                         id=f"awgn-{hash_name}"),
            pytest.param(SpinalParams(hash_name=hash_name), 10.0, True,
                         id=f"fading-csi-{hash_name}"),
            pytest.param(SpinalParams.bsc(hash_name=hash_name), 0.05, False,
                         id=f"bsc-{hash_name}"),
        ])
    return configs


class TestCrossBackendDecode:
    """Each message decodes, alone and in a cohort, to the reference
    search's ``DecodeResult`` on the compiled kernels and on the numpy
    fallback, for every hash."""

    N_BITS = 32
    DEC = DecoderParams(B=4, d=1)

    def _assert_equal_results(self, a, b):
        assert np.array_equal(a.message_bits, b.message_bits)
        assert a.path_cost == b.path_cost  # bitwise
        assert a.n_symbols_used == b.n_symbols_used

    @pytest.mark.parametrize("params,x,csi",
                             _decode_configs(available_hashes()))
    def test_scalar_and_batch_decode_identical(self, params, x, csi):
        view, rows = _cohort_stores(params, self.N_BITS, x, csi_phases=csi)
        refs = [reference_decode(params, self.DEC, self.N_BITS, one)
                for one in rows]
        for path in _paths():
            with _on_path(path) as calls:
                dec = BatchBubbleDecoder(params, self.DEC, self.N_BITS)
                cohort = dec.decode_batch(view)
                assert len(cohort) == len(refs)
                for ref, one, row in zip(refs, rows, cohort):
                    self._assert_equal_results(ref, row)
                    self._assert_equal_results(ref, dec.decode(one))
            assert bool(calls) == (path == "compiled")


# ---------------------------------------------------------------------------
# end-to-end: store bytes do not depend on the path or the worker count
# ---------------------------------------------------------------------------

def _store_files(root):
    found = {}
    for dirpath, _, filenames in os.walk(root):
        for name in filenames:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as f:
                found[os.path.relpath(path, root)] = f.read()
    return found


@st.composite
def _spinal_specs(draw):
    """A two-point spinal sweep over a generated code, decoder, channel
    and seed, small enough to run in well under a second."""
    k = draw(st.integers(1, 4))
    kind = draw(st.sampled_from(["awgn", "bsc", "rayleigh"]))
    params = {"k": k, "hash_name": draw(st.sampled_from(available_hashes()))}
    options = {}
    if kind == "bsc":
        params.update(c=1, mapping_name="bsc")
        x = draw(st.sampled_from([0.01, 0.05, 0.1, 0.2]))
        xs = (x, x / 2)
    else:
        params["c"] = draw(st.integers(1, 10))
        x = float(draw(st.integers(-5, 30)))
        xs = (x, x + 5.0)
        if kind == "rayleigh":
            options["give_csi"] = "full"
    scheme = SchemeSpec("spinal", {
        "n_bits": 12, "params": params, **options,
        "decoder": {"B": draw(st.sampled_from([1, 2, 4, 8])),
                    "max_passes": 6}})
    channel = ChannelSpec(kind, {"coherence_time": 5}
                          if kind == "rayleigh" else {})
    seed = draw(st.integers(0, 2**16))
    points = tuple(
        PointSpec(series="generated", x=x, seed=seed + i, scheme=scheme,
                  channel=channel, n_messages=2, batch_size=2,
                  capacity_reference=kind)
        for i, x in enumerate(xs))
    return ExperimentSpec("generated", "generated spinal spec", "quick",
                          points)


class TestStoreBackendInvariance:
    @given(spec=_spinal_specs())
    @settings(max_examples=6, derandomize=True, deadline=None)
    def test_generated_store_bytes_invariant(self, spec):
        """A generated spinal spec writes identical store bytes on the
        compiled kernels and on the numpy fallback, both with one worker,
        and with one worker and with two on the compiled kernels."""
        stores = {}
        with deadline(60), tempfile.TemporaryDirectory() as root:
            runs = [(path, 1) for path in _paths()]
            runs.append((runs[-1][0], 2))
            for path, n_workers in runs:
                store = os.path.join(root, f"{path}-{n_workers}")
                with _on_path(path) as calls:
                    run_experiment(spec, store=ResultStore(store),
                                   n_workers=n_workers)
                # one worker runs inline, where the calls are counted
                assert bool(calls) == (path == "compiled" and n_workers == 1)
                stores[path, n_workers] = _store_files(store)
        (first, a), *rest = stores.items()
        assert a
        for other, b in rest:
            assert a == b, f"store bytes differ: {first} vs {other}"

    def test_metrics_payload_carries_backend(self, tmp_path):
        from repro.experiments.cli import main

        assert main(["run", "smoke",
                     "--store", str(tmp_path / "store"),
                     "--results-dir", str(tmp_path),
                     "--workers", "2", "--no-report", "--metrics"]) == 0
        import json

        with open(tmp_path / "smoke.metrics.json", encoding="utf-8") as f:
            payload = json.load(f)
        assert payload["backend"] == "numpy"
