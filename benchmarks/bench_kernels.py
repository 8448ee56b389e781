"""Per-kernel microbenchmarks for the decode hot path, compiled and numpy.

The bubble decoder spends its time in three kernels — the spine hash, the
branch-cost evaluation, and beam selection — and ``repro.obs`` now reports
their live shares per run (``--metrics``).  This suite tracks the hash and
the branch costs in isolation, and whole searches, with pytest-benchmark
so a regression is attributable to one kernel, not just "decode got
slower":

- ``hash``: every registered spine hash (:func:`repro.core.hashes.
  available_hashes`) over beam-sized and cohort-sized uint32 state arrays,
  the element counts the tree expansion hashes each step, and at the
  branch-cost broadcast ``(n_slots, 1) x (1, n_states)``;
- ``branch_cost``: the score pass of a bubble search — the fused hash
  and distance arithmetic over all received symbols of one spine
  position, plus each parent's cost — over ``B=256`` leaves of ``2^4``
  children a message, on a one-message view of a store for the paper's
  AWGN code, the rate-1/3 BSC code and a fading store with per-symbol
  CSI, and on the ``spinal_awgn`` cohort shape of three messages: the
  kernel module's ``spinal_score`` on the compiled path, the private
  score pass of ``repro.backend._NumpyPasses`` on the numpy one;
- ``search``: one whole bubble search through ``BatchBubbleDecoder.
  decode_batch`` at ``link_arq``'s shape (one 512-bit message, ``B=64``)
  and at ``spinal_awgn``'s cohort shape (two 1024-bit messages,
  ``B=256``), ``k=4``: the passes' ``search`` (every step, selection
  included, and the last gather, one C call on the compiled path, then
  the ``argmin`` and the backtrack);
- ``spine``: the encoder's spine chain,
  :func:`repro.core.spine.spine_states_batch`, at ``n=512`` with one
  message and ``n=1024`` with three (one C call on the compiled path);
- ``encode``: a fresh encoder's symbol stream, ``ENCODE_PASSES`` passes
  of 8-way subpasses: ``SpinalEncoder.generate`` a subpass at a time at
  ``link_arq``'s shape (one 512-bit message), and ``BatchSpinalEncoder.
  generate_batch`` at ``spinal_awgn``'s cohort shape (three 1024-bit
  messages, the later half for one straggler row);
- ``bp``: one 40-iteration sum-product decode of a fixed Raptor graph
  (:meth:`repro.ldpc.bp.BeliefPropagation.posteriors`), on the compiled
  passes and on the numpy loop, at about 50k edges and at the mean (about
  115k) and largest (about 313k) graphs of fig8_1's -5 dB Raptor point;
- ``bcjr``: one :func:`repro.strider.bcjr.max_log_bcjr` decode at
  Strider's layer shape (k = 160 bits, T = 163 trellis steps, with a
  priori LLRs), one C call on the compiled path and the numpy body on the
  other.

Every benchmark runs on both paths of :mod:`repro.backend`: ``numpy``,
with the compiled kernels hidden so the numpy bodies run, always;
``compiled``, on the C kernels of :mod:`repro.backend.ckernels`, when they
build.  numpy records keep their historical names; compiled ones get an
``@compiled`` name suffix, and every record a ``backend`` field.

Run with ``pytest benchmarks/bench_kernels.py``; a session teardown writes
``bench_results/BENCH_kernels.json`` (mean/stddev/rounds per kernel), then
fails if the compiled BP decode's speedup over the numpy loop is below
:data:`MIN_BP_SPEEDUP`.
Not collected by the tier-1 suite (``testpaths = ["tests"]``).
"""

import os
from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest

from repro.backend import _NumpyPasses, ckernels
from repro.channels import AWGNChannel, BSCChannel
from repro.core.decoder import BatchBubbleDecoder
from repro.core.encoder import BatchSpinalEncoder, SpinalEncoder
from repro.core.hashes import available_hashes, get_hash
from repro.core.params import DecoderParams, SpinalParams
from repro.core.spine import spine_states_batch
from repro.core.symbols import BatchReceivedSymbols, ReceivedSymbols
from repro.fountain.raptor import RaptorCodec
from repro.modulation import soft_demap
from repro.strider.bcjr import BcjrTrellis, max_log_bcjr
from repro.strider.rsc import RscCode
from repro.utils.bitops import random_message
from repro.utils.results import write_canonical_json

# Array sizes matching what one tree-expansion step hashes: a full beam of
# B=256 subtrees x 2^k children, and a 16-message batch cohort of the same.
BEAM = 256 * 16
COHORT = 16 * BEAM

#: ``branch_cost`` configurations: (code params, message bits, SNR-ish x).
CONFIGS = {
    "awgn_k4_c6": (SpinalParams(), 32, 8.0),
    "bsc_k4": (SpinalParams.bsc(), 32, 0.05),
}

#: ``bp`` graphs of the k=2048, QAM-256 Raptor code by record name:
#: (channel symbols received, SNR in dB).
BP_GRAPHS = {
    "raptor": (1150, 10.0),        # about 50k edges
    "raptor_115k": (2910, -5.0),   # fig8_1's -5 dB point: its mean graph
    "raptor_313k": (8240, -5.0),   # and its largest
}

#: The compiled BP passes over the numpy loop on ``bp.raptor``; the
#: session teardown fails below it.  About 40% of the 1.72x measured on a
#: 2-core KVM guest (AVX-512, numpy 2.4.6): numpy's tanh, log, exp and
#: arctanh, which both paths run, are most of a compiled decode, so the
#: ratio is small and a loaded host moves it a lot.
MIN_BP_SPEEDUP = 0.7

BACKENDS = ("numpy", "compiled")

RESULTS_DIR = os.path.abspath(
    os.path.join(os.path.dirname(__file__), "..", "bench_results"))


@contextmanager
def _active(backend):
    """Run the kernels on one path of :data:`BACKENDS` inside the block."""
    if backend == "compiled":
        if ckernels.load() is None:
            pytest.skip("compiled kernels unavailable here")
        yield
    else:
        with mock.patch.object(ckernels, "load", lambda: None):
            yield


@pytest.fixture(scope="session")
def kernel_records():
    """Collects one record per benchmark; written to JSON at teardown."""
    records = []
    yield records
    path = write_canonical_json(
        os.path.join(RESULTS_DIR, "BENCH_kernels.json"),
        {"suite": "kernels",
         "records": sorted(records, key=lambda r: (r["group"], r["name"]))})
    print(f"[json] {path}")
    bp = {r["backend"]: r["mean_s"] for r in records
          if r["group"] == "bp" and r["graph"] == "raptor" and "mean_s" in r}
    if {"numpy", "compiled"} <= bp.keys():
        speedup = bp["numpy"] / bp["compiled"]
        assert speedup >= MIN_BP_SPEEDUP, (
            f"compiled BP speedup {speedup:.2f}x is below "
            f"{MIN_BP_SPEEDUP}x")


def _record(kernel_records, benchmark, group, name, **meta):
    stats = getattr(getattr(benchmark, "stats", None), "stats", None)
    record = {"group": group, "name": name, **meta}
    if stats is not None:
        record.update(
            mean_s=float(stats.mean),
            stddev_s=float(stats.stddev),
            rounds=int(stats.rounds),
        )
    kernel_records.append(record)


def _suffix(backend):
    """numpy keeps the historical metric names; compiled is suffixed."""
    return "" if backend == "numpy" else f"@{backend}"


# ---------------------------------------------------------------------------
# hash kernels
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("n_states", [BEAM, COHORT], ids=["beam", "cohort"])
@pytest.mark.parametrize("hash_name", available_hashes())
def test_hash_kernel(benchmark, kernel_records, hash_name, n_states, backend):
    rng = np.random.default_rng(7)
    states = rng.integers(0, 2**32, size=n_states, dtype=np.uint32)
    data = rng.integers(0, 2**16, size=n_states, dtype=np.uint32)
    with _active(backend):
        hash_fn = get_hash(hash_name)
        out = benchmark(hash_fn, states, data)
    assert out.shape == states.shape and out.dtype == np.uint32
    _record(kernel_records, benchmark, "hash",
            f"{hash_name}/{n_states}{_suffix(backend)}",
            hash=hash_name, n_states=n_states, backend=backend)


#: The decoder's branch-cost broadcast: ``h(states[None, :], slots[:, None])``
#: over one spine position's received slots (8 passes) and a full beam.
OUTER_SLOTS = 8


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("hash_name", available_hashes())
def test_hash_kernel_outer(benchmark, kernel_records, hash_name, backend):
    """The decoder's real layout: ``(n_slots, 1) x (1, n_states)``.

    The flat equal-shape cases above cannot see work that depends on the
    layout, such as one_at_a_time absorbing the state at its own shape.
    """
    rng = np.random.default_rng(8)
    states = rng.integers(0, 2**32, size=(1, BEAM), dtype=np.uint32)
    slots = np.arange(OUTER_SLOTS, dtype=np.uint32)[:, None]
    with _active(backend):
        hash_fn = get_hash(hash_name)
        out = benchmark(hash_fn, states, slots)
    assert out.shape == (OUTER_SLOTS, BEAM) and out.dtype == np.uint32
    _record(kernel_records, benchmark, "hash",
            f"{hash_name}/{OUTER_SLOTS}x{BEAM}{_suffix(backend)}",
            hash=hash_name, n_states=BEAM, n_slots=OUTER_SLOTS,
            backend=backend)


# ---------------------------------------------------------------------------
# branch-cost kernel: the passes' score
# ---------------------------------------------------------------------------

#: Subtrees a message keeps, as the paper's AWGN decoder does: with k=4 a
#: message scores ``BEAM`` children a step.
N_BEAM = 256


def _bench_score(benchmark, params, view):
    """Time the score pass at spine position 1 of ``view`` over ``B=256``
    random leaves a message at cost 0, their ``2^k`` children hashed:
    ``spinal_score`` on the compiled passes' struct, or
    ``_NumpyPasses._score``.  Returns the scored path costs, ``(n_rows,
    BEAM)``."""
    search = dict(levels=params.make_mapping().levels, c=params.c,
                  is_bsc=params.is_bsc, has_csi=view.has_csi, k=params.k,
                  n_msgs=view.n_rows, beam=N_BEAM, group=1, n_steps=2,
                  s0=params.s0)
    kernels = ckernels.load()
    passes = (_NumpyPasses(params.hash_name, **search) if kernels is None
              else ckernels.SpinalPasses(kernels, params.hash_name,
                                         **search))
    passes._bind(*ckernels._check_planes(view, view.n_rows, params.is_bsc,
                                         view.has_csi))
    n = view.n_rows * N_BEAM
    passes.states[:n] = np.random.default_rng(15).integers(
        0, 2**32, size=n, dtype=np.uint32)
    passes.costs[:n] = 0.0
    if kernels is None:
        passes._n_leaves = N_BEAM
        passes._expand(0)
        benchmark(passes._score, 1)
    else:
        passes._ctx.n_leaves = N_BEAM
        assert kernels.lib.spinal_expand(passes._ctx, 0) == 0
        benchmark(kernels.lib.spinal_score, passes._ctx, 1)
    return passes.totals[:view.n_rows * BEAM].reshape(view.n_rows, BEAM)


def _filled_store(params, n_bits, x, n_subpasses=4, seed=99):
    """A received-symbol store holding ``n_subpasses`` noisy subpasses."""
    rng = np.random.default_rng(seed)
    encoder = SpinalEncoder(params, random_message(n_bits, rng))
    if params.is_bsc:
        channel = BSCChannel(x, rng=rng)
    else:
        channel = AWGNChannel(x, rng=rng)
    store = ReceivedSymbols(encoder.n_spine, complex_valued=not params.is_bsc)
    block = encoder.generate(0, n_subpasses)
    store.add_block(block.spine_indices, block.slots,
                    channel.transmit(block.values).values)
    return store


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("config", sorted(CONFIGS), ids=sorted(CONFIGS))
def test_branch_cost_kernel(benchmark, kernel_records, config, backend):
    params, n_bits, x = CONFIGS[config]
    store = _filled_store(params, n_bits, x)
    with _active(backend):
        costs = _bench_score(benchmark, params,
                             store.prefix(store.checkpoint()))
    assert costs.shape == (1, BEAM) and np.all(costs >= 0.0)
    _record(kernel_records, benchmark, "branch_cost",
            f"{config}{_suffix(backend)}",
            config=config, n_states=BEAM, backend=backend)


@pytest.mark.parametrize("backend", BACKENDS)
def test_branch_cost_kernel_fading_csi(benchmark, kernel_records, backend):
    """Fading branch costs: the CSI multiply is extra work worth tracking."""
    params = SpinalParams()
    store = _filled_store(params, 32, 8.0)
    # Rebuild the same symbols with unit-magnitude per-symbol CSI attached.
    csi_store = ReceivedSymbols(store.n_spine, complex_valued=True)
    rng = np.random.default_rng(11)
    for i in range(store.n_spine):
        slots, values, _ = store.for_spine(i)
        if slots.size == 0:
            continue
        phases = np.exp(2j * np.pi * rng.random(slots.size))
        csi_store.add_block(np.full(slots.size, i), slots, values, csi=phases)
    with _active(backend):
        costs = _bench_score(benchmark, params,
                             csi_store.prefix(csi_store.checkpoint()))
    assert costs.shape == (1, BEAM) and np.all(costs >= 0.0)
    _record(kernel_records, benchmark, "branch_cost",
            f"awgn_k4_c6_csi{_suffix(backend)}",
            config="awgn_k4_c6_csi", n_states=BEAM, backend=backend)


@pytest.mark.parametrize("backend", BACKENDS)
def test_branch_cost_kernel_cohort(benchmark, kernel_records, backend):
    """AWGN branch costs at the spinal_awgn cohort shape.

    fig8_1's ``spinal n=256`` series decodes 3 messages per cohort with
    B=256 and k=4, so each spine position scores ``(3, 4096)`` children
    against every received slot (here 8 passes).
    """
    params = SpinalParams()
    n_msgs = 3
    rng = np.random.default_rng(12)
    store = BatchReceivedSymbols(2, n_msgs)
    store.add_block(np.ones(OUTER_SLOTS, dtype=np.intp),
                    np.arange(OUTER_SLOTS, dtype=np.uint32),
                    rng.normal(size=(n_msgs, OUTER_SLOTS))
                    + 1j * rng.normal(size=(n_msgs, OUTER_SLOTS)))
    with _active(backend):
        costs = _bench_score(benchmark, params, store.prefix(
            np.arange(n_msgs), store.checkpoint()))
    assert costs.shape == (n_msgs, BEAM) and np.all(costs >= 0.0)
    _record(kernel_records, benchmark, "branch_cost",
            f"awgn_k4_c6_cohort{n_msgs}{_suffix(backend)}",
            config="awgn_k4_c6", n_states=BEAM, n_msgs=n_msgs,
            n_slots=OUTER_SLOTS, backend=backend)


# ---------------------------------------------------------------------------
# one whole bubble search, at link_arq's and spinal_awgn's shapes
# ---------------------------------------------------------------------------

#: (message bits, B, messages) of the searches timed: perfbench
#: ``link_arq``'s decoder (one 512-bit message, B=64) and ``spinal_awgn``'s
#: cohorts (fig8_1's ``spinal n=1024`` series, B=256), both k=4 and d=1.
SEARCH_SHAPES = {"link_arq": (512, 64, 1), "spinal_awgn": (1024, 256, 2)}


def _filled_cohort(params, n_bits, n_msgs, x, n_subpasses=4, seed=99):
    """A view of ``n_msgs`` messages' received symbols, each over its own
    AWGN channel, from ``n_subpasses`` subpasses."""
    rng = np.random.default_rng(seed)
    encoder = BatchSpinalEncoder(params, np.stack(
        [random_message(n_bits, rng) for _ in range(n_msgs)]))
    block = encoder.generate_batch(0, n_subpasses)
    store = BatchReceivedSymbols(encoder.n_spine, n_msgs)
    store.add_block(block.spine_indices, block.slots, np.stack([
        AWGNChannel(x, rng=rng).transmit(row).values
        for row in block.values]))
    return store.prefix(np.arange(n_msgs), store.checkpoint())


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("shape", sorted(SEARCH_SHAPES))
def test_whole_search(benchmark, kernel_records, shape, backend):
    """One ``BatchBubbleDecoder.decode_batch`` from 4 noisy subpasses at 8
    dB, as the workload ``shape`` runs one decode attempt: the passes'
    ``search`` (one C call for the search on the compiled path, the
    Python step loop on the numpy one, then the ``argmin`` and the
    backtrack)."""
    params = SpinalParams()
    n_bits, n_beam, n_msgs = SEARCH_SHAPES[shape]
    view = _filled_cohort(params, n_bits, n_msgs, 8.0)
    with _active(backend):
        decoder = BatchBubbleDecoder(params, DecoderParams(B=n_beam), n_bits)
        results = benchmark(decoder.decode_batch, view)
    assert [r.message_bits.shape for r in results] == [(n_bits,)] * n_msgs
    _record(kernel_records, benchmark, "search",
            f"awgn_k4_B{n_beam}_n{n_bits}_M{n_msgs}{_suffix(backend)}",
            config="awgn_k4_c6", n_bits=n_bits, n_beam=n_beam,
            n_msgs=n_msgs, workload=shape, backend=backend)


# ---------------------------------------------------------------------------
# the spine chain (encoder side)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("n_bits, n_msgs", [(512, 1), (1024, 3)],
                         ids=["n512_M1", "n1024_M3"])
def test_spine(benchmark, kernel_records, n_bits, n_msgs, backend):
    """The spines of ``n_msgs`` messages of ``n_bits`` at the paper's code
    (one-at-a-time, k=4): one C call on the compiled path, one hash call
    a spine position on the numpy one.  ``link_arq`` builds one 512-bit
    spine an encoder, fig8_1's ``spinal n=1024`` series three a cohort."""
    params = SpinalParams()
    messages = np.random.default_rng(14).integers(
        0, 2, size=(n_msgs, n_bits), dtype=np.uint8)
    with _active(backend):
        spines = benchmark(spine_states_batch, params.hash_fn, params.k,
                           messages, params.s0)
    assert spines.shape == (n_msgs, n_bits // params.k)
    _record(kernel_records, benchmark, "spine",
            f"n{n_bits}_M{n_msgs}{_suffix(backend)}",
            hash=params.hash_name, n_bits=n_bits, n_msgs=n_msgs,
            backend=backend)


# ---------------------------------------------------------------------------
# the encoder's symbol stream
# ---------------------------------------------------------------------------

#: Passes of 8-way subpasses an ``encode`` benchmark draws.
ENCODE_PASSES = 4


def _bench_stream(benchmark, make_encoder, draw):
    """Time ``draw(encoder)`` on a fresh encoder each round (the encoder
    keeps the passes it computed, so a reused one would time only the
    takes).  Returns the blocks of the last round."""
    return benchmark.pedantic(draw, setup=lambda: ((make_encoder(),), {}),
                              rounds=40)


@pytest.mark.parametrize("backend", BACKENDS)
def test_encode_link_stream(benchmark, kernel_records, backend):
    """``SpinalEncoder.generate`` one 8-way subpass at a time over
    ``ENCODE_PASSES`` passes of a 512-bit message, as ``link_arq``'s
    sender asks for them: each pass encoded on its first subpass."""
    params = SpinalParams()
    message = random_message(512, 16)
    n_subpasses = ENCODE_PASSES * 8
    with _active(backend):
        blocks = _bench_stream(
            benchmark, lambda: SpinalEncoder(params, message),
            lambda enc: [enc.generate(g) for g in range(n_subpasses)])
    assert sum(len(b) for b in blocks) == ENCODE_PASSES * (
        512 // params.k - 1 + params.tail_symbols)
    _record(kernel_records, benchmark, "encode",
            f"generate/n512_M1_{ENCODE_PASSES}passes{_suffix(backend)}",
            n_bits=512, n_msgs=1, n_subpasses=n_subpasses, backend=backend)


@pytest.mark.parametrize("backend", BACKENDS)
def test_encode_cohort_stream(benchmark, kernel_records, backend):
    """``BatchSpinalEncoder.generate_batch`` at ``spinal_awgn``'s cohort
    shape (three 1024-bit messages): ``ENCODE_PASSES`` passes of 8-way
    subpasses, the first half for every row and the rest for one
    straggler row, as the engine asks once the others have decoded."""
    params = SpinalParams()
    messages = np.random.default_rng(17).integers(
        0, 2, size=(3, 1024), dtype=np.uint8)
    n_subpasses = ENCODE_PASSES * 8
    straggler = np.array([2])

    def draw(encoder):
        return [encoder.generate_batch(
            g, rows=None if g < n_subpasses // 2 else straggler)
            for g in range(n_subpasses)]

    with _active(backend):
        blocks = _bench_stream(
            benchmark, lambda: BatchSpinalEncoder(params, messages), draw)
    assert blocks[0].values.shape[0] == 3 and blocks[-1].values.shape[0] == 1
    _record(kernel_records, benchmark, "encode",
            f"generate_batch/n1024_M3_straggler{_suffix(backend)}",
            n_bits=1024, n_msgs=3, n_subpasses=n_subpasses,
            backend=backend)


# ---------------------------------------------------------------------------
# BP decode (numpy loop vs compiled passes)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("graph", sorted(BP_GRAPHS))
@pytest.mark.parametrize("backend", BACKENDS)
def test_bp_decode(benchmark, kernel_records, backend, graph):
    """40 sum-product iterations on one Raptor graph of
    :data:`BP_GRAPHS`."""
    n_symbols, snr_db = BP_GRAPHS[graph]
    codec = RaptorCodec(2048, "qam-256", lt_seed=5, precode_seed=9)
    rng = np.random.default_rng(3)
    intermediate = codec.encode_intermediate(
        rng.integers(0, 2, size=2048, dtype=np.uint8))
    channel = AWGNChannel(snr_db, rng=rng)
    received = channel.transmit(codec.symbols(intermediate, 0, n_symbols))
    llrs = soft_demap(codec.constellation, received.values,
                      channel.noise_power)
    bp = codec._graph(llrs.size)
    obs = np.concatenate([np.full(codec.precode.n_parity, np.inf), llrs])
    chan = np.zeros(codec.precode.n_intermediate)
    with _active(backend):
        posterior, _ = benchmark(bp.posteriors, chan, 40, obs, False)
    assert posterior.shape == chan.shape
    _record(kernel_records, benchmark, "bp", f"{graph}{_suffix(backend)}",
            graph=graph, n_edges=bp.n_edges, n_symbols=n_symbols,
            snr_db=snr_db, iterations=40, backend=backend)


# ---------------------------------------------------------------------------
# max-log BCJR decode (numpy body vs one compiled call)
# ---------------------------------------------------------------------------

#: Strider's layer shape: k = 160 information bits plus the 3-bit tail.
BCJR_STEPS = 163


@pytest.mark.parametrize("backend", BACKENDS)
def test_bcjr_decode(benchmark, kernel_records, backend):
    """One max-log BCJR decode of the 8-state RSC over ``BCJR_STEPS``
    steps with a priori LLRs, as each turbo iteration runs it twice."""
    trellis = BcjrTrellis(RscCode())
    rng = np.random.default_rng(14)
    sys_llrs = rng.normal(size=BCJR_STEPS)
    parity = rng.normal(size=(2, BCJR_STEPS))
    a_priori = rng.normal(size=BCJR_STEPS)
    with _active(backend):
        llr, ext = benchmark(max_log_bcjr, trellis, sys_llrs, parity,
                             a_priori)
    assert llr.shape == ext.shape == (BCJR_STEPS,)
    _record(kernel_records, benchmark, "bcjr",
            f"strider_T{BCJR_STEPS}{_suffix(backend)}", t_len=BCJR_STEPS,
            n_states=trellis.n_states, backend=backend)
