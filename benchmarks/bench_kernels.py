"""Per-kernel microbenchmarks for the decode hot path, compiled and numpy.

The bubble decoder spends its time in three kernels — the spine hash, the
branch-cost evaluation, and beam selection — and ``repro.obs`` now reports
their live shares per run (``--metrics``).  This suite tracks each kernel
in isolation with pytest-benchmark so a regression is attributable to one
kernel, not just "decode got slower":

- ``hash``: every registered spine hash (:func:`repro.core.hashes.
  available_hashes`) over beam-sized and cohort-sized uint32 state arrays,
  the element counts the tree expansion hashes each step, and at the
  branch-cost broadcast ``(n_slots, 1) x (1, n_states)``;
- ``branch_cost``: :meth:`BubbleDecoder._branch_costs` — broadcast hash +
  distance arithmetic over all received symbols of one spine position —
  on a one-message (one-row) view, for the paper's AWGN code, the
  rate-1/3 BSC code, and a fading store with per-symbol CSI; plus the
  kernel at the ``spinal_awgn`` cohort shape;
- ``select``: :func:`repro.backend.select_beams` (argpartition
  subtree pruning) on one message's row and on a 16-message cohort;
- ``bp``: one 40-iteration sum-product decode of a fixed ~50k-edge Raptor
  graph (:meth:`repro.ldpc.bp.BeliefPropagation.posteriors`), on the
  compiled passes and on the numpy loop.

The hash, branch-cost and BP benchmarks run on both paths of
:mod:`repro.backend`: ``numpy``, with the compiled kernels hidden so the
numpy bodies run, always; ``compiled``, on the C kernels of
:mod:`repro.backend.ckernels`, when they build.  numpy records keep their
historical names; compiled ones get an ``@compiled`` name suffix, and
every record a ``backend`` field.  Selection has one implementation and
is measured once.

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

from repro.backend import branch_costs_batch, ckernels, select_beams
from repro.channels import AWGNChannel, BSCChannel
from repro.core.decoder import BubbleDecoder
from repro.core.encoder import SpinalEncoder
from repro.core.hashes import available_hashes, get_hash
from repro.core.params import DecoderParams, SpinalParams
from repro.core.symbols import ReceivedSymbols
from repro.fountain.raptor import RaptorCodec
from repro.modulation import soft_demap
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
          if r["group"] == "bp" and "mean_s" in r}
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
# branch-cost kernel
# ---------------------------------------------------------------------------

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
    states = np.random.default_rng(3).integers(
        0, 2**32, size=(1, BEAM), dtype=np.uint32)
    view = store.prefix(store.checkpoint())
    with _active(backend):
        decoder = BubbleDecoder(params, DecoderParams(B=256), n_bits)
        costs = benchmark(decoder._branch_costs, states, 1, view)
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
    states = np.random.default_rng(3).integers(
        0, 2**32, size=(1, BEAM), dtype=np.uint32)
    view = csi_store.prefix(csi_store.checkpoint())
    with _active(backend):
        decoder = BubbleDecoder(params, DecoderParams(B=256), 32)
        costs = benchmark(decoder._branch_costs, states, 1, view)
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
    states = rng.integers(0, 2**32, size=(n_msgs, BEAM), dtype=np.uint32)
    slots = np.arange(OUTER_SLOTS, dtype=np.uint32)
    values = (rng.normal(size=(n_msgs, OUTER_SLOTS))
              + 1j * rng.normal(size=(n_msgs, OUTER_SLOTS)))
    levels = params.make_mapping().levels
    with _active(backend):
        costs = benchmark(
            branch_costs_batch, states, slots, values, None,
            hash_name=params.hash_name, levels=levels, c=params.c,
            is_bsc=False)
    assert costs.shape == (n_msgs, BEAM) and np.all(costs >= 0.0)
    _record(kernel_records, benchmark, "branch_cost",
            f"awgn_k4_c6_cohort{n_msgs}{_suffix(backend)}",
            config="awgn_k4_c6", n_states=BEAM, n_msgs=n_msgs,
            n_slots=OUTER_SLOTS, backend=backend)


# ---------------------------------------------------------------------------
# selection kernel (one implementation; measured once)
# ---------------------------------------------------------------------------

# The one-message row keeps the record name of the 1-D shape it replaced.
@pytest.mark.parametrize("shape,n_beam,name", [
    ((1, BEAM), 256, f"{BEAM}/B256"),
    ((16, BEAM), 256, f"16x{BEAM}/B256"),
], ids=["scalar", "batch16"])
def test_select_kernel(benchmark, kernel_records, shape, n_beam, name):
    costs = np.random.default_rng(5).random(shape)
    kept = benchmark(select_beams, costs, n_beam)
    assert kept.shape == (shape[0], n_beam)
    _record(kernel_records, benchmark, "select", name,
            shape=list(shape), n_beam=n_beam)


# ---------------------------------------------------------------------------
# BP decode (numpy loop vs compiled passes)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("backend", BACKENDS)
def test_bp_decode(benchmark, kernel_records, backend):
    """40 sum-product iterations on a fixed Raptor graph: k=2048, QAM-256,
    1150 symbols at 10 dB, about 50k edges."""
    codec = RaptorCodec(2048, "qam-256", lt_seed=5, precode_seed=9)
    rng = np.random.default_rng(3)
    intermediate = codec.encode_intermediate(
        rng.integers(0, 2, size=2048, dtype=np.uint8))
    channel = AWGNChannel(10.0, rng=rng)
    received = channel.transmit(codec.symbols(intermediate, 0, 1150))
    llrs = soft_demap(codec.constellation, received.values,
                      channel.noise_power)
    bp = codec._graph(llrs.size)
    obs = np.concatenate([np.full(codec.precode.n_parity, np.inf), llrs])
    chan = np.zeros(codec.precode.n_intermediate)
    with _active(backend):
        posterior, _ = benchmark(bp.posteriors, chan, 40, obs, False)
    assert posterior.shape == chan.shape
    _record(kernel_records, benchmark, "bp", f"raptor{_suffix(backend)}",
            n_edges=bp.n_edges, iterations=40, backend=backend)
