"""The decode kernels: golden vectors, bit-identity, store invariance.

The contract under test (see :mod:`repro.backend`): the compiled C kernels
of :mod:`repro.backend.ckernels` and the numpy bodies they fall back on
produce bit-identical output — hash words, float64 branch costs, and
therefore whole ``DecodeResult``s (equal to the reference search of
``tests/reference_decoder.py``) and store bytes.  Every test runs on both
paths: compiled, and the numpy bodies with ``ckernels.load`` patched to
``None``, which are the oracle.
"""

import gc
import os
import tempfile
import weakref
from contextlib import ExitStack, contextmanager
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.backend import (
    _NumpyPasses,
    _distances,
    ckernels,
    get_backend,
    hash_kernel,
)
from repro.channels import AWGNChannel, BSCChannel
from repro.core.decoder import BatchBubbleDecoder, BubbleDecoder
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
    AdaptivePolicy,
    ChannelSpec,
    ExperimentSpec,
    PointSpec,
    SchemeSpec,
)
from repro.experiments.store import ResultStore
from repro.utils.bitops import pack_chunks, random_message

from deadline import deadline
from hand_steps import bind, set_leaves, step
from reference_decoder import reference_decode


#: Where the compiled kernels are entered: ``ckernels`` functions and
#: classes, and the passes of a bubble search by ``Class.method``.
_COMPILED_ENTRY_POINTS = ("spine_hash", "spine_chain", "SpinalPasses._run",
                          "SpinalPasses._backtrack", "BcjrDecoder.decode",
                          "BpPasses", "lt_draw", "choice_draw")


def _owner(name):
    """The object holding a :data:`_COMPILED_ENTRY_POINTS` entry, and the
    entry's attribute name there."""
    *parents, attr = name.split(".")
    owner = ckernels
    for part in parents:
        owner = getattr(owner, part)
    return owner, attr


def _paths():
    """Where the kernels can run here: the numpy bodies always, the
    compiled kernels when they build."""
    return ("numpy", "compiled") if ckernels.load() is not None else ("numpy",)


@contextmanager
def _on_path(path):
    """Run the kernels on ``path`` inside the block.

    ``numpy`` hides the compiled kernels, as when they fail to build;
    ``compiled`` requires them.  Yields a list that collects one entry per
    call of a compiled entry point (hash, spine, search pass, BCJR, BP,
    LT or precode draw) made inside the block.
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

    with ExitStack() as patches:
        for name in _COMPILED_ENTRY_POINTS:
            owner, attr = _owner(name)
            patches.enter_context(mock.patch.object(
                owner, attr, counted(getattr(owner, attr))))
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
# the passes' branch costs against the gather oracle, compiled and numpy
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


def _nan_free(x):
    """``x`` with every NaN made the same NaN, where only the NaN's
    position is specified."""
    return np.where(np.isnan(x), np.nan, x)


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


def _oracle_totals(hash_name, metric, leaves, parents, slots, values, csi,
                   levels, c, k):
    """The children and path costs one scored step must produce: each of
    the ``(M, n)`` ``leaves`` hashed against every edge, and ``parents +
    bc``, the branch costs ``bc`` of those children over the position's
    ``slots`` by the gather oracle (AWGN) or the numpy reference
    :func:`repro.backend._distances` (CSI, BSC), zero without slots."""
    ref = reference_hashes()[hash_name]
    n_msgs, n_leaves = leaves.shape
    K = 1 << k
    children = ref(leaves[..., None], np.arange(K, dtype=np.uint32))
    children = children.reshape(n_msgs, -1)
    if slots.size == 0:
        bc = np.zeros(children.shape)
    else:
        words = ref(children[None], slots[:, None, None])
        bc = (_gather_awgn_oracle(words, values.T, levels, c)
              if metric == "awgn" else
              _distances(words, values, csi, levels, c, metric == "bsc"))
    totals = parents[..., None] + bc.reshape(n_msgs, n_leaves, K)
    return children, totals.reshape(n_msgs, -1)


def _score(path, view, leaves, parents, *, hash_name, metric, levels, c, k):
    """Children and path costs ``(M, n << k)`` of one step on ``path``'s
    passes: with ``view`` bound, the ``(M, n)`` ``leaves`` and their
    ``parents`` costs are set as the step's leaves, then the expand and
    score passes run over spine position 0 of ``view``."""
    n_msgs, n_leaves = leaves.shape
    search = dict(levels=levels, c=c, is_bsc=metric == "bsc",
                  has_csi=metric == "csi", k=k, n_msgs=n_msgs,
                  beam=n_leaves, group=1, n_steps=1, s0=0)
    passes = (ckernels.SpinalPasses(ckernels.load(), hash_name, **search)
              if path == "compiled" else _NumpyPasses(hash_name, **search))
    bind(passes, view)
    set_leaves(passes, n_leaves)
    passes.states[:leaves.size] = leaves.ravel()
    passes.costs[:leaves.size] = parents.ravel()
    step(passes, "expand", 0)
    step(passes, "score", 0)
    n = leaves.size << k
    return (passes.children[:n].reshape(n_msgs, -1),
            passes.totals[:n].reshape(n_msgs, -1))


def _panel(rng, metric, n_msgs, n_slots, n_special):
    """A store of ``n_msgs`` messages with ``n_slots`` random slots at spine
    position 0 (inf, NaN, signed zeros and 1e300 among the received
    values, and among the channel gains with CSI), and its view of every
    row."""
    store = BatchReceivedSymbols(1, n_msgs, complex_valued=metric != "bsc")
    values = _received(rng, (n_msgs, n_slots), n_special)
    if metric == "bsc":
        values = values.real.copy()
    csi = (_received(rng, (n_msgs, n_slots), n_special) if metric == "csi"
           else None)
    store.add_block(np.zeros(n_slots, dtype=np.intp),
                    rng.integers(0, 2**32, size=n_slots, dtype=np.uint32),
                    values, csi=csi)
    return store, store.prefix(np.arange(n_msgs), store.checkpoint())


def _check_score(seed, metric, hash_name, *, n_msgs, n_leaves, n_slots, c,
                 k=1, n_special=0, alone=False):
    """One scored step over a generated panel, on every path, against
    :func:`_oracle_totals`: the children byte for byte, the path costs bit
    for bit (with CSI up to which NaN a NaN entry holds, where numpy's own
    choice between two NaNs depends on the element's position).  With
    ``alone``, each message also scores alone, as a one-row view of the
    store, exactly as it does in the cohort."""
    rng = np.random.default_rng(seed)
    store, view = _panel(rng, metric, n_msgs, n_slots, n_special)
    if metric == "bsc":
        c, levels = 1, np.array([-1.0, 1.0])
    else:
        levels = np.sort(rng.normal(size=1 << c))
    leaves = rng.integers(0, 2**32, size=(n_msgs, n_leaves), dtype=np.uint32)
    parents = _special_costs(rng, leaves.size, n_special).reshape(
        leaves.shape)
    metric_args = dict(hash_name=hash_name, metric=metric, levels=levels,
                       c=c, k=k)
    same = ((lambda a, b: _bits(_nan_free(a)) == _bits(_nan_free(b)))
            if metric == "csi" else lambda a, b: _bits(a) == _bits(b))
    # inf - inf and 1e300 squared are meant to happen here
    with np.errstate(all="ignore"):
        want = _oracle_totals(hash_name, metric, leaves, parents,
                              *view.for_spine(0), levels, c, k)
        for path in _paths():
            children, totals = _score(path, view, leaves, parents,
                                      **metric_args)
            assert children.tobytes() == want[0].tobytes(), path
            assert same(totals, want[1]).all(), path
            for m in range(n_msgs if alone else 0):
                one = store.prefix(np.array([m]), store.checkpoint())
                _, alone_totals = _score(path, one, leaves[m:m + 1],
                                         parents[m:m + 1], **metric_args)
                assert same(alone_totals, totals[m:m + 1]).all(), path


class TestBranchCostBitIdentity:
    """The passes' ``score``, compiled and numpy, equals ``parents +
    oracle(children)`` bit for bit for every hash and metric, on one
    message (M=1) and on a cohort; the leaves' children counts are not
    multiples of the vector width, so the loops' tails run too."""

    @pytest.mark.parametrize("hash_name", sorted(GOLDEN_VECTORS))
    @pytest.mark.parametrize("with_csi", [False, True],
                             ids=["awgn", "fading-csi"])
    def test_scalar(self, hash_name, with_csi):
        """One message: a one-row cohort."""
        _check_score(3, "csi" if with_csi else "awgn", hash_name, n_msgs=1,
                     n_leaves=37, n_slots=5, c=3)

    @pytest.mark.parametrize("hash_name", sorted(GOLDEN_VECTORS))
    @pytest.mark.parametrize("with_csi", [False, True],
                             ids=["awgn", "fading-csi"])
    def test_batch(self, hash_name, with_csi):
        _check_score(4, "csi" if with_csi else "awgn", hash_name, n_msgs=4,
                     n_leaves=21, n_slots=5, c=3, k=2, alone=True)

    @pytest.mark.parametrize("hash_name", sorted(GOLDEN_VECTORS))
    def test_bsc(self, hash_name):
        for n_msgs in (1, 3):
            _check_score(5, "bsc", hash_name, n_msgs=n_msgs, n_leaves=37,
                         n_slots=6, c=1, alone=True)

    def test_empty_slots(self):
        """A punctured spine position adds ``+ 0.0`` to each parent's cost
        (which turns a ``-0.0`` parent into ``0.0``) on both paths."""
        for metric in ("awgn", "csi", "bsc"):
            for n_msgs in (1, 2):
                _check_score(6, metric, "one_at_a_time", n_msgs=n_msgs,
                             n_leaves=5, n_slots=0, c=3, n_special=4)


class TestAwgnMetricOracle:
    """The passes' AWGN scores reproduce the gather oracle bit for bit,
    with inf, NaN, signed zeros and 1e300 among the received values, on a
    cohort and on each of its messages as a one-row view, on the compiled
    passes and on the numpy ones."""

    @given(seed=st.integers(0, 2**32 - 1), n_slots=st.integers(0, 40),
           n_msgs=st.integers(1, 4), n_leaves=st.integers(1, 12),
           c=st.integers(2, 8), n_special=st.integers(0, 6))
    @settings(max_examples=150, deadline=None)
    def test_matches_gather_oracle(self, seed, n_slots, n_msgs, n_leaves,
                                   c, n_special):
        _check_score(seed, "awgn", "one_at_a_time", n_msgs=n_msgs,
                     n_leaves=n_leaves, n_slots=n_slots, c=c,
                     n_special=n_special, alone=True)

    def test_c16(self):
        """The widest constellation: 2^16-entry tables per slot."""
        _check_score(7, "awgn", "one_at_a_time", n_msgs=2, n_leaves=9,
                     n_slots=3, c=16, n_special=2, alone=True)

    def test_several_state_blocks(self):
        """More children per message than the compiled loop scores per
        block (256)."""
        _check_score(13, "awgn", "one_at_a_time", n_msgs=2, n_leaves=75,
                     n_slots=5, c=6, k=3, alone=True)

    def test_position_without_symbols(self):
        """A punctured spine position adds exactly zero branch cost, as in
        the oracle."""
        _check_score(11, "awgn", "one_at_a_time", n_msgs=3, n_leaves=5,
                     n_slots=0, c=6, alone=True)


class TestCompiledSpecialValues:
    """The CSI and BSC scores of the compiled and the numpy passes match
    the oracle's bit for bit with inf, NaN, signed zeros and 1e300 among
    the received values, channel gains and parent costs, for every hash.

    With CSI, up to the choice between two different NaNs: ``inf - inf``
    makes a negative NaN beside the positive received ones, and numpy's own
    float64 add returns the first operand's NaN in whole SIMD chunks but
    the second operand's in a loop tail (numpy 2.4.6 on AVX-512: ``np.add``
    of 9 elements takes the first operand's NaN for 8 and the second's for
    the last), so its pick depends on the element's position.  Costs agree
    on which entries are NaN; every other entry is compared bit for bit.
    """

    @given(seed=st.integers(0, 2**32 - 1), n_slots=st.integers(1, 20),
           n_msgs=st.integers(1, 3), n_leaves=st.integers(1, 150),
           c=st.integers(1, 8), n_special=st.integers(0, 6),
           hash_name=st.sampled_from(sorted(GOLDEN_VECTORS)),
           metric=st.sampled_from(["csi", "bsc"]))
    @settings(max_examples=80, deadline=None)
    def test_matches_numpy(self, seed, n_slots, n_msgs, n_leaves, c,
                           n_special, hash_name, metric):
        _check_score(seed, metric, hash_name, n_msgs=n_msgs,
                     n_leaves=n_leaves, n_slots=n_slots, c=c,
                     n_special=n_special)


# ---------------------------------------------------------------------------
# the compiled bubble-search step against the numpy step
# ---------------------------------------------------------------------------

def _special_costs(rng, size, n_special):
    """Parent path costs, some replaced by inf, NaN, signed zeros or 1e300."""
    costs = rng.exponential(scale=5.0, size=size)
    hit = rng.choice(size, size=min(n_special, size), replace=False)
    costs[hit] = rng.choice(_SPECIAL, size=hit.size)
    return costs


def _search_store(rng, metric, n_spine, n_rows, n_blocks, n_special,
                  punctured=()):
    """A store of ``n_rows`` messages over ``n_spine`` positions, filled by
    ``n_blocks`` blocks of random slots and received values (with inf,
    NaN, signed zeros and 1e300 among them, and the channel gains with
    CSI); the ``punctured`` positions get no symbol.  Returns the store and
    its checkpoint after each block."""
    store = BatchReceivedSymbols(n_spine, n_rows,
                                 complex_valued=metric != "bsc")
    checkpoints = [store.checkpoint()]
    open_positions = np.setdiff1d(np.arange(n_spine), punctured)
    for _ in range(n_blocks):
        n = int(rng.integers(0, 2 * n_spine + 1)) if open_positions.size else 0
        spine = np.sort(rng.choice(open_positions, size=n))
        slots = rng.integers(0, 2**32, size=n, dtype=np.uint32)
        values = _received(rng, (n_rows, n), n_special)
        if metric == "bsc":
            values = values.real.copy()
        csi = (_received(rng, (n_rows, n), n_special) if metric == "csi"
               else None)
        store.add_block(spine, slots, values, csi=csi)
        checkpoints.append(store.checkpoint())
    return store, checkpoints


class TestCompiledStep:
    """The compiled passes of a bubble search (:class:`ckernels.
    SpinalPasses`) equal the numpy search they replace: the expand pass
    the tree-expansion hash ``hash_fn(leaves[..., None], edges)``, the
    score pass the oracle branch costs of those children
    (:func:`_oracle_totals`) added to ``leaf``, and a whole ``search``,
    its survivors' gathers, leaf costs and bits included, byte for
    byte.

    The cases cover every hash and metric, 1 to 3 messages, depth 1 and 2
    (``W = 2^k`` leaves per subtree), punctured positions without slots,
    received views read in place (rows forming one run, at the store's
    capacity stride) and copied (any other row set), and inf, NaN, signed
    zeros and 1e300 among the received values, the channel gains and the
    parent costs.  With CSI the costs are compared bit for bit except for
    which NaN a NaN entry holds: there numpy's own choice between two NaNs
    depends on the element's position (see
    :class:`TestCompiledSpecialValues`).
    """

    @given(seed=st.integers(0, 2**32 - 1),
           hash_name=st.sampled_from(sorted(GOLDEN_VECTORS)),
           metric=st.sampled_from(["awgn", "csi", "bsc"]),
           n_msgs=st.integers(1, 3), k=st.integers(1, 4),
           d=st.integers(1, 2), n_slots=st.integers(0, 6),
           spare=st.integers(0, 3), c=st.integers(1, 8),
           n_special=st.integers(0, 6))
    @settings(max_examples=150, deadline=None)
    def test_matches_numpy_step(self, seed, hash_name, metric, n_msgs, k, d,
                                n_slots, spare, c, n_special):
        """One step at spine position 1, through the kernel module's
        ``spinal_expand`` and ``spinal_score``, whose ``n_slots`` symbols
        sit in a store of ``n_slots + spare`` columns, ahead of further
        rows, so the view is read at the store's strides.  The leaves are
        set after the view is bound (one per message) or are the children
        of an unpruned step (``2^k`` per message at d = 2), and the parent
        costs are set before the score pass."""
        if ckernels.load() is None:
            pytest.skip("compiled kernels unavailable here")
        rng = np.random.default_rng(seed)
        K = 1 << k
        store = BatchReceivedSymbols(2, n_msgs + 1,
                                     complex_valued=metric != "bsc")
        n_stored = n_slots + spare
        values = _received(rng, (n_msgs + 1, n_stored), n_special)
        if metric == "bsc":
            values = values.real.copy()
        csi = (_received(rng, (n_msgs + 1, n_stored), n_special)
               if metric == "csi" else None)
        store.add_block(np.ones(n_stored, dtype=np.intp),
                        rng.integers(0, 2**32, size=n_stored,
                                     dtype=np.uint32), values, csi=csi)
        view = store.prefix(np.arange(n_msgs), np.array([0, n_slots]))
        slots, values, csi = view.for_spine(1)
        if metric == "bsc":
            c, levels = 1, np.array([-1.0, 1.0])
        else:
            levels = np.sort(rng.normal(size=1 << c))
        n_leaves = K ** (d - 1)
        with np.errstate(all="ignore"):
            passes = ckernels.SpinalPasses(
                ckernels.load(), hash_name, levels=levels, c=c,
                is_bsc=metric == "bsc", has_csi=csi is not None, k=k,
                n_msgs=n_msgs, beam=1, group=n_leaves, n_steps=1,
                s0=int(rng.integers(0, 2**32)))
            bind(passes, view)
            passes.states[:n_msgs] = rng.integers(
                0, 2**32, size=n_msgs, dtype=np.uint32)
            step(passes, "expand", 0)
            if d == 2:
                step(passes, "score", 0)
                step(passes, "expand", 1)
            leaves = passes.states[:n_msgs * n_leaves].copy()
            parents = _special_costs(rng, n_msgs * n_leaves, n_special)
            passes.costs[:parents.size] = parents
            step(passes, "score", 1)
            want_children, want_totals = _oracle_totals(
                hash_name, metric, leaves.reshape(n_msgs, n_leaves),
                parents.reshape(n_msgs, n_leaves), slots, values, csi,
                levels, c, k)
        n = n_msgs * n_leaves * K
        children, totals = passes.children[:n], passes.totals[:n]
        assert children.tobytes() == want_children.tobytes()
        want = want_totals.ravel()
        if metric == "csi":
            totals, want = _nan_free(totals), _nan_free(want)
        assert np.array_equal(_bits(totals), _bits(want))

    @given(seed=st.integers(0, 2**32 - 1),
           hash_name=st.sampled_from(sorted(GOLDEN_VECTORS)),
           metric=st.sampled_from(["awgn", "csi", "bsc"]),
           n_msgs=st.integers(1, 3), k=st.integers(1, 3),
           d=st.integers(1, 2), n_beam=st.integers(1, 6),
           n_spine=st.integers(2, 5), n_blocks=st.integers(1, 4),
           punctured=st.sets(st.integers(0, 4), max_size=2),
           rows=st.sampled_from(["run", "gathered"]),
           c=st.integers(1, 6), n_special=st.integers(0, 4))
    @settings(max_examples=150, deadline=None)
    def test_gather_and_expand_match_numpy_passes(
            self, seed, hash_name, metric, n_msgs, k, d, n_beam, n_spine,
            n_blocks, punctured, rows, c, n_special):
        """A whole ``search(view, d, n_beam)`` on the compiled passes and
        on ``_NumpyPasses``, from the same sentinel buffers, over a view
        of ``n_msgs`` rows of a store of ``n_msgs + 2``: one run of rows,
        read in place, or a scattered set, copied once.  Afterwards the
        states, children, history and kept counts agree byte for byte
        over the whole buffers, so nothing is written outside a message's
        rows, and the leaf costs and totals bit for bit except for which
        NaN a NaN entry holds (a NaN parent cost meets NaN branch costs,
        where numpy's own ``leaf + bc`` picks a NaN by position); both
        return the same bits and best costs.  Both also equal the numpy
        passes stepped by hand, where every pruning step keeps exactly
        ``argpartition``'s choice along each message's row of subtree
        minima (every subtree, in order, when they fit)."""
        if ckernels.load() is None:
            pytest.skip("compiled kernels unavailable here")
        rng = np.random.default_rng(seed)
        K, W = 1 << k, (1 << k) ** (d - 1)
        store, checkpoints = _search_store(
            rng, metric, n_spine, n_msgs + 2, n_blocks, n_special,
            punctured=sorted(p for p in punctured if p < n_spine))
        if rows == "run":
            picked = np.arange(n_msgs) + int(rng.integers(0, 3))
        else:
            picked = rng.choice(n_msgs + 2, size=n_msgs, replace=False)
            if n_msgs > 1 and (np.diff(picked) == 1).all():
                picked = picked[::-1].copy()
        view = store.prefix(
            picked, checkpoints[int(rng.integers(0, len(checkpoints)))])
        if metric == "bsc":
            c, levels = 1, np.array([-1.0, 1.0])
        else:
            levels = np.sort(rng.normal(size=1 << c))
        n_steps = n_spine - d + 1
        search = dict(levels=levels, c=c, is_bsc=metric == "bsc",
                      has_csi=metric == "csi", k=k, n_msgs=n_msgs,
                      beam=min(n_beam, K ** n_steps), group=W,
                      n_steps=n_steps, s0=int(rng.integers(0, 2**32)))
        both = (ckernels.SpinalPasses(ckernels.load(), hash_name, **search),
                _NumpyPasses(hash_name, **search))
        stepped = _NumpyPasses(hash_name, **search)
        for p in (*both, stepped):
            # the buffers start equal, so a stray write shows as a
            # difference
            p.states[:] = 7
            p.costs[:] = -3.0
            p.children[:] = 9
            p.totals[:] = -4.0
            p.history[:] = -5
            p.kept[:] = -6

        def same(a, b, nan_free=False):
            if nan_free:
                a, b = _nan_free(a), _nan_free(b)
            assert a.dtype == b.dtype and a.shape == b.shape
            assert a.tobytes() == b.tobytes()

        chosen = []
        with np.errstate(all="ignore"):
            bind(stepped, view)
            n_leaves = 1
            for position in range(n_spine):
                step(stepped, "expand", position)
                step(stepped, "score", position)
                if position < d - 1:
                    n_leaves *= K
                    continue
                n_groups = n_leaves * K // W
                group_costs = stepped.totals[:n_msgs * n_leaves * K]
                group_costs = group_costs.reshape(-1, W).min(axis=1)
                n_keep = min(n_beam, n_groups)
                sel = (group_costs.reshape(n_msgs, n_groups).argpartition(
                    n_keep - 1, axis=1)[:, :n_keep] if n_keep < n_groups
                    else np.broadcast_to(np.arange(n_groups),
                                         (n_msgs, n_groups)))
                chosen.append(sel + np.arange(n_msgs)[:, None] * n_groups)
                stepped._select(n_beam)
                n_leaves = sel.shape[1] * W
            step(stepped, "gather")
            stepped._unbind()
            with deadline(30):
                found = [p.search(view, d, n_beam) for p in both]
        for p in both:
            for name in ("states", "children", "history", "kept", "costs",
                         "totals"):
                same(getattr(p, name), getattr(stepped, name),
                     nan_free=name in ("costs", "totals"))
            kept = [p.history[row, :, :n_keep] for row, n_keep in
                    enumerate(p.kept[:len(chosen)].tolist())]
            assert [a.tolist() for a in kept] == [a.tolist() for a in chosen]
        (bits, costs), (numpy_bits, numpy_costs) = found
        assert bits.shape == (n_msgs, n_spine * k)
        assert bits.tobytes() == numpy_bits.tobytes()
        same(costs, numpy_costs, nan_free=True)
        leaf_costs = stepped.costs[:n_msgs * n_leaves].reshape(n_msgs, -1)
        same(costs, leaf_costs[np.arange(n_msgs),
                               np.argmin(leaf_costs, axis=1)], nan_free=True)


def _loop_backtrack(leaf_costs, kept_hist, k, d):
    """The decoder's backtrack as a Python loop over the history rows,
    before it became one pass of the search (``backtrack``), kept as an
    oracle: each message's best leaf by ``np.argmin``, then one
    ``divmod`` per history row, then the leaf's ``d - 1`` digits in its
    subtree, packed by ``pack_chunks``.  Returns (bits, cost) a message."""
    K, W = 1 << k, (1 << k) ** (d - 1)
    flat_best = np.argmin(leaf_costs, axis=1)
    out = []
    for m in range(leaf_costs.shape[0]):
        leaf = m * leaf_costs[0].size + int(flat_best[m])
        best_cost = float(leaf_costs.flat[leaf])
        b, w = divmod(leaf, W)
        rev_chunks = []
        for kept in reversed(kept_hist):
            b, edge = divmod(int(kept.flat[b]), K)
            rev_chunks.append(edge)
        chunks = list(reversed(rev_chunks))
        digits = []
        for _ in range(d - 1):
            digits.append(w % K)
            w //= K
        chunks.extend(reversed(digits))
        out.append((pack_chunks(np.asarray(chunks, dtype=np.uint32), k),
                    best_cost))
    return out


def _same_cost(a, b):
    return a == b or (np.isnan(a) and np.isnan(b))


class TestBacktrack:
    """The backtrack that ends a ``search``, one C call on the compiled
    passes, equals ``_NumpyPasses``' loop and the decoder's former Python
    loop (:func:`_loop_backtrack`) over the leaf costs and history of
    whole searches, and the decoder returns those bits and costs on both
    paths."""

    @given(seed=st.integers(0, 2**32 - 1),
           hash_name=st.sampled_from(sorted(GOLDEN_VECTORS)),
           bsc=st.booleans(), n_msgs=st.integers(1, 4),
           k=st.sampled_from([1, 2, 4]), d=st.integers(1, 3),
           n_beam=st.integers(1, 6), n_spine=st.integers(1, 5),
           costs=st.sampled_from(["tied", "random", "nan"]))
    @settings(max_examples=120, deadline=None, derandomize=True)
    def test_matches_loop_on_both_paths(self, seed, hash_name, bsc, n_msgs,
                                        k, d, n_beam, n_spine, costs):
        """Searches of 1 to 5 spine positions, including fewer than
        ``d`` (the decoder clamps ``d`` to the tree height), over received
        values that make many leaf costs tie (every value on a
        constellation level or bit), ordinary ones, or ones with NaN and
        inf among them, so ``argmin`` picks a first minimum or a first
        NaN."""
        rng = np.random.default_rng(seed)
        params = (SpinalParams.bsc(k=k, hash_name=hash_name) if bsc else
                  SpinalParams(k=k, c=1 if costs == "tied" else 3,
                               hash_name=hash_name))
        levels = params.make_mapping().levels
        store = BatchReceivedSymbols(n_spine, n_msgs, complex_valued=not bsc)
        n = int(rng.integers(0, 2 * n_spine + 1))
        spine = np.sort(rng.integers(0, n_spine, size=n))
        slots = rng.integers(0, 2**32, size=n, dtype=np.uint32)
        if costs == "tied":
            values = (rng.integers(0, 2, size=(n_msgs, n)).astype(float)
                      if bsc else rng.choice(levels, (n_msgs, n))
                      + 1j * rng.choice(levels, (n_msgs, n)))
        else:
            values = _received(rng, (n_msgs, n),
                               2 * n_msgs if costs == "nan" else 0)
            values = values.real.copy() if bsc else values
        store.add_block(spine, slots, values)
        view = store.prefix(np.arange(n_msgs), store.checkpoint())

        d_eff = min(d, n_spine)
        n_steps = n_spine - d_eff + 1
        search = dict(levels=np.ascontiguousarray(levels), c=params.c,
                      is_bsc=bsc, has_csi=False, k=k, n_msgs=n_msgs,
                      beam=min(n_beam, (1 << k) ** min(n_steps, 32)),
                      group=(1 << k) ** (d_eff - 1), n_steps=n_steps,
                      s0=params.s0)
        both = [_NumpyPasses(hash_name, **search)]
        if ckernels.load() is not None:
            both.append(ckernels.SpinalPasses(ckernels.load(), hash_name,
                                              **search))
        decoded = []
        with deadline(60), np.errstate(all="ignore"):
            for passes in both:
                bits, costs = passes.search(view, d_eff, n_beam)
                kept_hist = [passes.history[row, :, :n_keep]
                             for row, n_keep in enumerate(
                                 passes.kept[:n_steps].tolist())]
                n_leaves = kept_hist[-1].shape[1] * search["group"]
                want = _loop_backtrack(
                    passes.costs[:n_msgs * n_leaves].reshape(n_msgs, -1),
                    kept_hist, k, d_eff)
                assert bits.shape == (n_msgs, n_spine * k)
                for row, cost, (want_bits, want_cost) in zip(bits, costs,
                                                             want):
                    assert row.tobytes() == want_bits.tobytes()
                    assert _same_cost(cost, want_cost)
                decoded.append(want)
            for path in _paths():
                with _on_path(path) as calls:
                    results = BatchBubbleDecoder(
                        params, DecoderParams(B=n_beam, d=d),
                        n_spine * k).decode_batch(view)
                assert ("_backtrack" in calls) == (path == "compiled")
                for got, (want_bits, want_cost) in zip(results, decoded[0]):
                    assert got.message_bits.tobytes() == want_bits.tobytes()
                    assert _same_cost(got.path_cost, want_cost)
        for (a_bits, a_cost), (b_bits, b_cost) in zip(*decoded):
            assert a_bits.tobytes() == b_bits.tobytes()
            assert _same_cost(a_cost, b_cost)


def _run_case(path, *, d=1, n_beam=3, n_msgs=2, k=2, n_spine=6, seed=31):
    """Passes on ``path`` (``numpy`` or ``compiled``) for an AWGN search of
    ``n_msgs`` messages over ``n_spine`` positions, and a view of a store
    with a punctured position and values on the constellation levels, so
    rows of subtree costs tie."""
    rng = np.random.default_rng(seed)
    params = SpinalParams(k=k, c=1)
    levels = params.make_mapping().levels
    store = BatchReceivedSymbols(n_spine, n_msgs)
    spine = np.repeat(np.arange(1, n_spine), 2)
    values = (rng.choice(levels, (n_msgs, spine.size))
              + 1j * rng.choice(levels, (n_msgs, spine.size)))
    store.add_block(spine, rng.integers(0, 2**32, size=spine.size,
                                        dtype=np.uint32), values)
    search = dict(levels=np.ascontiguousarray(levels), c=params.c,
                  is_bsc=False, has_csi=False, k=k, n_msgs=n_msgs,
                  beam=n_beam, group=(1 << k) ** (d - 1),
                  n_steps=n_spine - d + 1, s0=params.s0)
    passes = (ckernels.SpinalPasses(ckernels.load(), params.hash_name,
                                    **search)
              if path == "compiled" else
              _NumpyPasses(params.hash_name, **search))
    return passes, store.prefix(np.arange(n_msgs), store.checkpoint())


def _run_result(passes, view, d, n_beam):
    """Bits, best costs, and the history rows and kept counts written by
    one ``search``."""
    bits, costs = passes.search(view, d, n_beam)
    kept = passes.kept.tolist()
    return (bits.tobytes(), costs.tobytes(), kept,
            [passes.history[row, :, :n].tolist()
             for row, n in enumerate(kept)])


#: The refused searches, as (refusal, path): those ``search`` refuses on
#: both paths, and on the compiled one the searches ``spinal_run`` refuses
#: because no fresh search is bound, which ``search`` never hands it.
_REFUSALS = [(refusal, path) for refusal in (
    "d 0", "d past the spine", "no beam", "unpruned past one subtree")
    for path in ("numpy", "compiled")] + [
        (refusal, "compiled") for refusal in (
            "no start", "twice", "after a step")]


class TestRun:
    """``search``, the whole search in one call: one C call on
    :class:`ckernels.SpinalPasses`, the Python step loop on
    ``_NumpyPasses``.  Both refuse the same searches, flush the same
    kernel timers, and the compiled one holds no selection past a call."""

    @pytest.mark.parametrize("refusal, path", _REFUSALS,
                             ids=[f"{r}-{p}" for r, p in _REFUSALS])
    def test_refused_run_raises_and_serves_the_next_start(self, path,
                                                          refusal):
        """A refused ``search`` raises ``ValueError`` and unbinds the
        view; the passes then serve the next ``search`` with the search a
        fresh passes runs.  ``spinal_run`` itself refuses, writing
        nothing, to run without a bound view, a second time over one
        binding, or after a step was taken by hand."""
        if path not in _paths():
            pytest.skip("compiled kernels unavailable here")
        d, n_beam = 2, 3
        passes, view = _run_case(path, d=d, n_beam=n_beam)
        fresh, _ = _run_case(path, d=d, n_beam=n_beam)
        with deadline(30), np.errstate(all="ignore"):
            want = _run_result(fresh, view, d, n_beam)
            bad = {"d 0": (0, n_beam), "d past the spine": (7, n_beam),
                   "no beam": (d, 0),
                   "unpruned past one subtree": (3, n_beam)}
            if refusal in bad:
                with pytest.raises(ValueError):
                    passes.search(view, *bad[refusal])
            else:
                run = ckernels.load().lib.spinal_run
                if refusal != "no start":
                    bind(passes, view)
                if refusal == "twice":
                    assert run(passes._ctx, d, n_beam) == 0
                elif refusal == "after a step":
                    step(passes, "expand", 0)
                    step(passes, "score", 0)
                    step(passes, "expand", 1)
                history = passes.history.copy()
                assert run(passes._ctx, d, n_beam) == -1
                assert passes.history.tobytes() == history.tobytes()
                passes._unbind()
            assert passes._view is None
            assert _run_result(passes, view, d, n_beam) == want

    @pytest.mark.parametrize("d", [1, 2])
    def test_run_flushes_the_kernel_timers_once_a_search(self, d):
        """With ``repro.obs`` on, each search adds its passes' time to
        ``kernel.hash``, ``kernel.branch_cost`` and ``kernel.select``,
        counted per spine position and per pruning step, on both paths."""
        from repro.obs import OBS

        for path in _paths():
            passes, view = _run_case(path, d=d, n_spine=6)
            OBS.disable()
            OBS.reset()
            OBS.enable()
            try:
                with deadline(30):
                    for _ in range(3):
                        passes.search(view, d, 3)
                timers = OBS.snapshot()["timers"]
            finally:
                OBS.disable()
                OBS.reset()
            for name, n in (("kernel.hash", 6), ("kernel.branch_cost", 6),
                            ("kernel.select", 7 - d)):
                assert timers[name]["n"] == 3 * n, (path, name)
                assert timers[name]["total_s"] > 0.0, (path, name)

    @pytest.mark.parametrize("d", [1, 2])
    def test_two_thousand_runs_leak_no_selections(self, d):
        """Every selection ``spinal_run`` makes is an ndarray (with the
        array objects wrapping the passes' buffers around it); all of them
        are released inside the call, so 2,000 ``search`` calls leave the
        traced memory where it was."""
        if ckernels.load() is None:
            pytest.skip("compiled kernels unavailable here")
        import tracemalloc

        passes, view = _run_case("compiled", d=d, n_spine=8, n_beam=2)
        with deadline(120), np.errstate(all="ignore"):
            for _ in range(50):
                passes.search(view, d, 2)
            gc.collect()
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                for _ in range(2000):
                    passes.search(view, d, 2)
                gc.collect()
                grown = tracemalloc.get_traced_memory()[0] - before
            finally:
                tracemalloc.stop()
        # one kept selection a search would be over 100 bytes each
        assert grown < 20_000, grown


#: One compiled ``search`` against ``_NumpyPasses.search`` (the Python step
#: loop, whose selections are ``ndarray.argpartition`` calls) over searches
#: with tied subtree costs, in a fresh interpreter: numpy picks its SIMD
#: loops at import, so ``baseline`` runs with every dispatch target this
#: CPU supports disabled.  argv: the dispatch level, the kernel cache.
_RUN_DISPATCH = """
import sys
import numpy as np
from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
from repro.backend import _NumpyPasses, ckernels
from repro.core.params import SpinalParams
from repro.core.symbols import BatchReceivedSymbols
if sys.argv[1] == "baseline":
    on = [k for k in __cpu_dispatch__ if __cpu_features__.get(k)]
    assert not on, on
ckernels.CACHE_ROOT = sys.argv[2]
module = ckernels.load()
assert module is not None
rng = np.random.default_rng(3)
for case in range(24):
    k, d, n_msgs = 1 + case % 4, 1 + case % 2, 1 + case % 3
    bsc = case % 3 == 2
    n_spine, n_beam = 12, (4, 16, 64)[case % 3]
    params = SpinalParams.bsc(k=k) if bsc else SpinalParams(k=k, c=1)
    levels = np.ascontiguousarray(params.make_mapping().levels)
    store = BatchReceivedSymbols(n_spine, n_msgs, complex_valued=not bsc)
    spine = np.sort(rng.integers(0, n_spine, size=2 * n_spine))
    spine = spine[spine % 5 != 3]
    values = (rng.integers(0, 2, size=(n_msgs, spine.size)).astype(float)
              if bsc else rng.choice(levels, (n_msgs, spine.size))
              + 1j * rng.choice(levels, (n_msgs, spine.size)))
    store.add_block(spine, rng.integers(0, 2**32, size=spine.size,
                                        dtype=np.uint32), values)
    view = store.prefix(np.arange(n_msgs), store.checkpoint())
    n_steps = n_spine - d + 1
    search = dict(levels=levels, c=params.c, is_bsc=bsc, has_csi=False,
                  k=k, n_msgs=n_msgs,
                  beam=min(n_beam, (1 << k) ** n_steps),
                  group=(1 << k) ** (d - 1), n_steps=n_steps, s0=params.s0)
    got = []
    for passes in (ckernels.SpinalPasses(module, params.hash_name, **search),
                   _NumpyPasses(params.hash_name, **search)):
        bits, costs = passes.search(view, d, n_beam)
        kept = passes.kept.tolist()
        n_leaves = n_msgs * kept[-1] * search["group"]
        got.append((kept, [passes.history[row, :, :n].tolist()
                           for row, n in enumerate(kept)],
                    passes.costs[:n_leaves].tobytes(), costs.tobytes(),
                    bits.tobytes()))
    assert got[0] == got[1], case
print("ok")
"""


@pytest.mark.parametrize("dispatch", ["native", "baseline"])
def test_run_selects_as_ndarray_argpartition_at_each_dispatch(dispatch):
    """``spinal_run`` selects by numpy's own argpartition through numpy's C
    API, so at every CPU dispatch level its selections are those of the
    Python loop calling ``ndarray.argpartition`` in that interpreter, tied
    costs included (which differ between levels)."""
    if ckernels.load() is None:
        pytest.skip("compiled kernels unavailable here")
    import subprocess
    import sys

    from numpy._core._multiarray_umath import (
        __cpu_dispatch__, __cpu_features__)
    import repro

    env = {k: v for k, v in os.environ.items()
           if k != "NPY_DISABLE_CPU_FEATURES"}
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(repro.__file__))
    if dispatch == "baseline":
        env["NPY_DISABLE_CPU_FEATURES"] = " ".join(
            k for k in __cpu_dispatch__ if __cpu_features__.get(k))
    with deadline(150):
        proc = subprocess.run(
            [sys.executable, "-c", _RUN_DISPATCH, dispatch,
             ckernels.CACHE_ROOT], env=env, capture_output=True, text=True,
            timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ok"


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
            # the whole search and the backtrack ran compiled, and none on
            # numpy
            if path == "compiled":
                assert {"_run", "_backtrack"} <= set(calls)
            else:
                assert calls == []

    def test_store_grown_between_searches(self):
        """The passes bind a store's planes for one search only.  Decode
        with one decoder, grow the same store past its capacity (which
        makes ``add_block`` reallocate its planes), decode again with that
        decoder: the result equals a fresh decoder's, the old planes are
        freed as soon as the store drops them, and after each search the
        passes hold no pointer into the store."""
        params = SpinalParams()
        rng = np.random.default_rng(23)
        encoder = BatchSpinalEncoder(
            params, random_message(self.N_BITS, rng)[None])
        channel = AWGNChannel(4.0, rng=rng)

        def send():
            """Transmit the next subpass into the store."""
            block = encoder.generate_batch(len(sent))
            sent.append(block)
            store.add_block(block.spine_indices, block.slots,
                            channel.transmit(block.values[0]).values)

        def unbound(passes):
            assert passes._view is None
            if isinstance(passes, ckernels.SpinalPasses):
                ctx, null = passes._ctx, passes._ffi.NULL
                assert ctx.n_spine == 0
                assert all(getattr(ctx, f) == null for f in (
                    "counts", "slots", "values", "csi", "sel"))

        for path in _paths():
            sent, store = [], ReceivedSymbols(encoder.n_spine)
            send()
            with _on_path(path):
                dec = BubbleDecoder(params, self.DEC, self.N_BITS)
                dec.decode(store)
                unbound(dec._passes[1])
                capacity, planes = store._capacity, weakref.ref(store._values)
                while store._capacity == capacity:
                    send()
                gc.collect()
                assert planes() is None
                again = dec.decode(store)
                unbound(dec._passes[1])
                fresh = BubbleDecoder(params, self.DEC, self.N_BITS)
                self._assert_equal_results(fresh.decode(store), again)


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
def _spinal_specs(draw, adaptive=False):
    """A two-point spinal sweep over a generated code, decoder, channel
    and seed, small enough to run in well under a second.  With
    ``adaptive``, both points sample sequentially under one generated
    policy: either interval, a small message budget."""
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
    policy = None
    if adaptive:
        initial = draw(st.integers(2, 4))
        policy = AdaptivePolicy(
            target_half_width=draw(st.sampled_from([0.05, 0.5])),
            initial_messages=initial,
            growth=draw(st.sampled_from([1.5, 2.0])),
            max_messages=draw(st.integers(initial, 8)),
            interval=draw(st.sampled_from(["mean", "ratio"])))
    points = tuple(
        PointSpec(series="generated", x=x, seed=seed + i, scheme=scheme,
                  channel=channel, n_messages=2, batch_size=2,
                  capacity_reference=kind, adaptive=policy)
        for i, x in enumerate(xs))
    return ExperimentSpec("generated", "generated spinal spec", "quick",
                          points)


@st.composite
def _baseline_specs(draw, bsc=False):
    """A two-point Raptor or Strider sweep over a generated code, AWGN or
    Rayleigh channel (or, with ``bsc``, a BSC), SNR (flip probability) and
    seed, small enough to run in well under a second.  On Rayleigh, Raptor
    demaps with the channel's CSI and Strider equalises with it, so the
    demapper sees per-symbol noise powers."""
    rayleigh = not bsc and draw(st.booleans())
    if draw(st.booleans()):
        scheme = SchemeSpec("raptor", {
            "k": draw(st.sampled_from([80, 128, 192, 256])),
            "constellation": draw(st.sampled_from(
                ["qam-16", "qam-64", "qam-256"]))})
    else:
        n_layers = draw(st.integers(1, 3))
        scheme = SchemeSpec("strider", {
            "n_bits": n_layers * draw(st.sampled_from([8, 16, 24, 48])),
            "n_layers": n_layers,
            "subpasses_per_pass": draw(st.integers(1, 4)),
            "max_passes": 10,
            **({"give_csi": "full"} if rayleigh else {})})
    if bsc:
        channel = ChannelSpec("bsc")
        x = draw(st.sampled_from([0.01, 0.05, 0.1]))
        xs = (x, x / 2)
    else:
        channel = (ChannelSpec("rayleigh", {"coherence_time": 5})
                   if rayleigh else ChannelSpec("awgn"))
        x = float(draw(st.integers(0, 25)))
        xs = (x, x + 5.0)
    seed = draw(st.integers(0, 2**16))
    points = tuple(
        PointSpec(series="generated", x=snr, seed=seed + i, scheme=scheme,
                  channel=channel, n_messages=2, batch_size=2)
        for i, snr in enumerate(xs))
    return ExperimentSpec("generated", f"generated {scheme.kind} spec",
                          "quick", points)


@st.composite
def _symbol_cdf_specs(draw):
    """A two-point ``symbol_cdf`` sweep (Figure 8-11's per-message symbol
    counts, one rateless cohort a point) over a generated spinal code,
    decoder, channel, probe growth and seed."""
    k = draw(st.integers(1, 4))
    kind = draw(st.sampled_from(["awgn", "bsc", "rayleigh"]))
    params = {"k": k, "hash_name": draw(st.sampled_from(available_hashes()))}
    if kind == "bsc":
        params.update(c=1, mapping_name="bsc")
        x = draw(st.sampled_from([0.01, 0.05, 0.1]))
        xs = (x, x / 2)
    else:
        params["c"] = draw(st.integers(1, 10))
        x = float(draw(st.integers(0, 30)))
        xs = (x, x + 5.0)
    channel = ChannelSpec(kind, {"coherence_time": 5}
                          if kind == "rayleigh" else {})
    options = {"n_bits": 12, "params": params,
               "decoder": {"B": draw(st.sampled_from([1, 2, 4, 8])),
                           "max_passes": 6},
               "probe_growth": draw(st.sampled_from([1.0, 1.5]))}
    seed = draw(st.integers(0, 2**16))
    points = tuple(
        PointSpec(series="generated", x=x, seed=seed + i, kind="symbol_cdf",
                  channel=channel, n_messages=draw(st.integers(1, 3)),
                  options=options)
        for i, x in enumerate(xs))
    return ExperimentSpec("generated", "generated symbol_cdf spec", "quick",
                          points)


@st.composite
def _papr_specs(draw):
    """Two ``papr`` points (Table 8.1's rows) over generated
    constellations, OFDM symbol counts and seeds."""
    names = st.sampled_from(["qam-4", "qam-64", "qam-2^20", "gaussian"])
    seed = draw(st.integers(0, 2**16))
    points = tuple(
        PointSpec(series="generated", x=float(i), seed=seed + i, kind="papr",
                  options={"constellation": draw(names),
                           "n_ofdm_symbols": draw(st.integers(1, 300))})
        for i in range(2))
    return ExperimentSpec("generated", "generated papr spec", "quick",
                          points)


@st.composite
def _ldpc_envelope_specs(draw):
    """Two ``ldpc_envelope`` points (Figure 8-1's fixed-rate LDPC envelope,
    BP over every operating point) over generated SNRs, block counts,
    iteration caps and seeds."""
    seed = draw(st.integers(0, 2**16))
    points = tuple(
        PointSpec(series="generated", x=float(draw(st.integers(-5, 30))),
                  seed=seed + i, kind="ldpc_envelope",
                  options={"n_blocks": draw(st.integers(1, 3)),
                           "iterations": draw(st.integers(1, 25))})
        for i in range(2))
    return ExperimentSpec("generated", "generated ldpc_envelope spec",
                          "quick", points)


class TestStoreBackendInvariance:
    @given(spec=_spinal_specs())
    @settings(max_examples=6, derandomize=True, deadline=None)
    def test_generated_store_bytes_invariant(self, spec):
        """A generated spinal spec writes identical store bytes on the
        compiled kernels and on the numpy fallback, both with one worker,
        and with one worker and with two on the compiled kernels."""
        self._assert_store_invariant(spec)

    @given(spec=_spinal_specs(adaptive=True))
    @settings(max_examples=6, derandomize=True, deadline=None)
    def test_generated_adaptive_store_bytes_invariant(self, spec):
        """The same for a generated adaptive spinal spec over AWGN, BSC
        or Rayleigh fading: the cohorts, the stopping point and the
        pooled record do not depend on the path or the worker count."""
        self._assert_store_invariant(spec)

    @given(spec=_baseline_specs())
    @settings(max_examples=6, derandomize=True, deadline=None)
    def test_generated_baseline_store_bytes_invariant(self, spec):
        """The same for a generated Raptor or Strider spec (BP, the LT
        and precode draws, BCJR); the two-worker Raptor runs also demap
        inside pool workers."""
        self._assert_store_invariant(spec)

    @given(spec=_baseline_specs(bsc=True))
    @settings(max_examples=6, derandomize=True, deadline=None)
    def test_generated_bsc_baseline_specs_are_refused(self, spec):
        """Raptor and Strider send complex constellation symbols, which a
        BSC cannot carry: a generated Raptor or Strider spec on BSC raises
        ``ValueError`` on the compiled kernels and on the numpy fallback,
        with one worker and with two, and stores nothing."""
        with deadline(60), tempfile.TemporaryDirectory() as root:
            for path, n_workers in self._runs():
                store = os.path.join(root, f"{path}-{n_workers}")
                with _on_path(path), pytest.raises(ValueError, match="BSC"):
                    run_experiment(spec, store=ResultStore(store),
                                   n_workers=n_workers)
                assert _store_files(store) == {}

    @given(spec=_symbol_cdf_specs())
    @settings(max_examples=6, derandomize=True, deadline=None)
    def test_generated_symbol_cdf_store_bytes_invariant(self, spec):
        """The same for a generated ``symbol_cdf`` spec."""
        self._assert_store_invariant(spec)

    @given(spec=_ldpc_envelope_specs())
    @settings(max_examples=6, derandomize=True, deadline=None)
    def test_generated_ldpc_envelope_store_bytes_invariant(self, spec):
        """The same for a generated ``ldpc_envelope`` spec (BP's passes)."""
        self._assert_store_invariant(spec)

    @given(spec=_papr_specs())
    @settings(max_examples=6, derandomize=True, deadline=None)
    def test_generated_papr_store_bytes_invariant(self, spec):
        """The same for a generated ``papr`` spec, which enters no
        compiled kernel."""
        self._assert_store_invariant(spec, compiled=False)

    @staticmethod
    def _runs():
        """Every path with one worker, and the last path with two."""
        runs = [(path, 1) for path in _paths()]
        return runs + [(runs[-1][0], 2)]

    def _assert_store_invariant(self, spec, compiled=True):
        """Run ``spec`` on every run of :meth:`_runs` and compare the
        store files; ``compiled`` says whether the inline runs enter the
        compiled kernels."""
        stores = {}
        with deadline(60), tempfile.TemporaryDirectory() as root:
            for path, n_workers in self._runs():
                store = os.path.join(root, f"{path}-{n_workers}")
                with _on_path(path) as calls:
                    run_experiment(spec, store=ResultStore(store),
                                   n_workers=n_workers)
                # one worker runs inline, where the calls are counted
                assert bool(calls) == (compiled and path == "compiled"
                                       and n_workers == 1)
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
