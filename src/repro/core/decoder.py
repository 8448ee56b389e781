"""The bubble decoder: approximate-ML tree search (paper §4).

Decoding is breadth-first search over the tree of message prefixes.  Each
tree node at depth ``i`` is a candidate spine state; the edge to a child
carries k message bits and costs the squared distance (AWGN) or Hamming
distance (BSC) between the received symbols for spine position ``i`` and
the symbols the candidate state would have produced.  The *bubble* decoder
(§4.3) prunes with two knobs:

- beam width ``B``: how many subtrees survive each step;
- depth ``d``: pruning granularity — candidates are depth-d subtrees scored
  by their best leaf, so larger ``d`` buys cheaper pruning (fewer, coarser
  selections) at some throughput cost (Figure 8-7).

``d = 1`` is the classical M-algorithm / beam search; ``d = n/k`` recovers
exact ML decoding.

There is one search, and it runs over a cohort of M messages at once: the
beam is an ``(M, n_beam, W)`` array of uint32 leaf states with
``W = 2^(k(d-1))`` leaves per surviving subtree.  One step hashes all
``M * n_beam * W * 2^k`` children at once, folds in branch costs over every
received symbol of that spine position (all passes and tail symbols in a
single broadcast hash), takes subtree minima, and selects each message's
best ``B`` subtrees with its own ``argpartition`` row.  Backtracking
records the surviving subtrees per step (one compact ``(M, B)`` index
array); missing spine positions (puncturing) simply contribute zero branch
cost, which matches §5 exactly.

Messages never mix: branch costs keep the slot axis leading (the same
reduction order for every row), and selection and the final argmin work
on contiguous per-message rows.  A message therefore decodes to the same
bits and the same float64 path cost whatever cohort it sits in, and
:meth:`BubbleDecoder.decode` is the search run on a one-row cohort.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.backend import branch_costs_batch, select_beams
from repro.core.hashes import get_hash
from repro.core.params import DecoderParams, SpinalParams
from repro.core.symbols import BatchReceivedView, ReceivedSymbols
from repro.obs import OBS, clock
from repro.utils.bitops import pack_chunks

__all__ = ["BubbleDecoder", "BatchBubbleDecoder", "DecodeResult"]


@dataclass
class DecodeResult:
    """Outcome of one decode attempt."""

    message_bits: np.ndarray
    path_cost: float
    n_symbols_used: int

    def matches(self, true_bits: np.ndarray) -> bool:
        return bool(np.array_equal(self.message_bits, np.asarray(true_bits, np.uint8)))


class BubbleDecoder:
    """Bubble decoder for a fixed message length.

    Parameters
    ----------
    params: code parameters (must match the encoder's).
    decoder_params: beam width B, pruning depth d.
    n_bits: message length in bits (divisible by k).
    """

    def __init__(
        self,
        params: SpinalParams,
        decoder_params: DecoderParams,
        n_bits: int,
    ):
        self.params = params
        self.dec = decoder_params
        self.n_bits = n_bits
        self.n_spine = params.n_spine(n_bits)
        self.k = params.k
        self._mapping = params.make_mapping()
        self._levels = self._mapping.levels
        self._hash_fn = get_hash(params.hash_name)
        # Depth cannot exceed the tree height; clamping keeps tiny-n cases
        # (and the full-ML limit) working through the same code path.
        self.d = min(decoder_params.d, self.n_spine)
        self._W = (1 << self.k) ** (self.d - 1)

    def decode(self, received: ReceivedSymbols | BatchReceivedView) -> DecodeResult:
        """Decode one message: a whole store, or a one-row view of one."""
        if isinstance(received, ReceivedSymbols):
            received = received.prefix(received.checkpoint())
        if received.n_rows != 1:
            raise ValueError("decode takes one message; use decode_batch")
        return self._search(received)[0]

    def _branch_costs(
        self, states: np.ndarray, spine_idx: int, received: BatchReceivedView
    ) -> np.ndarray:
        """Cost of the edge *into* each candidate state at a spine position.

        ``states`` is ``(M, n_states)``, one row per message of the view.
        The arithmetic lives in :func:`repro.backend.branch_costs_batch`
        (which owns its ``repro.obs`` kernel timing); this method only
        slices the received store for the spine position.
        """
        slots, values, csi = received.for_spine(spine_idx)
        return branch_costs_batch(
            states, slots, values, csi,
            hash_name=self.params.hash_name,
            levels=self._levels,
            c=self.params.c,
            is_bsc=self.params.is_bsc,
        )

    def _search(self, received: BatchReceivedView) -> list[DecodeResult]:
        """The bubble search over every message of ``received``."""
        if received.n_spine != self.n_spine:
            raise ValueError("received-symbol store has mismatched spine length")
        k, K, d, W = self.k, 1 << self.k, self.d, self._W
        M = received.n_rows
        edges = np.arange(K, dtype=np.uint32)
        hash_fn = self._hash_fn
        # Kernel timing accumulates in locals and flushes once at the end
        # (repro.obs hot-loop discipline: disabled cost is one branch per
        # step, no allocations).
        _on = OBS.enabled
        t_hash = t_sel = 0.0
        n_hash = n_sel = 0

        # Unpruned expansion of the first d-1 levels (builds the initial
        # partial tree of Figure 4-1(a)).
        leaf_states = np.full((M, 1, 1), self.params.s0, dtype=np.uint32)
        leaf_costs = np.zeros((M, 1, 1), dtype=np.float64)
        for step in range(d - 1):
            if _on:
                t0 = clock()
            children = hash_fn(leaf_states[:, :, :, None], edges)
            if _on:
                t_hash += clock() - t0
                n_hash += 1
            bc = self._branch_costs(children.reshape(M, -1), step, received)
            leaf_costs = (leaf_costs[:, :, :, None]
                          + bc.reshape(children.shape)).reshape(M, 1, -1)
            leaf_states = children.reshape(M, 1, -1)

        # Main loop: one spine position per iteration; prune to B subtrees.
        kept_hist: list[np.ndarray] = []
        for step in range(d - 1, self.n_spine):
            n_beam = leaf_states.shape[1]
            if _on:
                t0 = clock()
            children = hash_fn(leaf_states[:, :, :, None], edges)
            if _on:
                t_hash += clock() - t0
                n_hash += 1
            bc = self._branch_costs(children.reshape(M, -1), step, received)
            totals = leaf_costs[:, :, :, None] + bc.reshape(M, n_beam, W, K)
            # Flat child index w*K+e spells the d base-2^k path digits with
            # the first edge most significant, so a row-major reshape to
            # (K, W) groups children by first edge = candidate subtree.
            # Subtree j = parent*K + edge of message m is row
            # m*n_beam*K + j of the flattened arrays, so one take gathers
            # the survivors of every message.
            totals = totals.reshape(M * n_beam * K, W)
            if _on:
                t0 = clock()
            group_costs = totals.min(axis=1).reshape(M, n_beam * K)
            sel = select_beams(group_costs, self.dec.B)
            kept = sel + np.arange(0, M * n_beam * K, n_beam * K)[:, None]
            leaf_states = children.reshape(M * n_beam * K, W).take(kept, axis=0)
            leaf_costs = totals.take(kept, axis=0)
            if _on:
                t_sel += clock() - t0
                n_sel += 1
            kept_hist.append(kept)
        if _on:
            OBS.add_time("kernel.hash", t_hash, n_hash)
            OBS.add_time("kernel.select", t_sel, n_sel)

        # Best leaf and backtrack, per message.  Beams are numbered across
        # the cohort (beam b of message m is m*n_beam + b), so kept row
        # m*n_beam*K + parent*K + edge divides by K into the previous
        # step's flat beam index and the edge taken.
        flat_best = np.argmin(leaf_costs.reshape(M, -1), axis=1)
        results: list[DecodeResult] = []
        for m in range(M):
            leaf = m * leaf_costs[0].size + int(flat_best[m])
            best_cost = float(leaf_costs.flat[leaf])
            b, w = divmod(leaf, W)
            rev_chunks: list[int] = []
            for kept in reversed(kept_hist):
                b, edge = divmod(int(kept.flat[b]), K)
                rev_chunks.append(edge)
            chunks = list(reversed(rev_chunks))
            # Within-subtree path: the d-1 base-2^k digits of w, MSB first.
            digits = []
            for _ in range(d - 1):
                digits.append(w % K)
                w //= K
            chunks.extend(reversed(digits))
            message = pack_chunks(np.asarray(chunks, dtype=np.uint32), k)
            results.append(DecodeResult(message, best_cost, received.n_symbols))
        return results


class BatchBubbleDecoder(BubbleDecoder):
    """Bubble decoder over a batch axis: M independent messages at once.

    Amortising the fixed cost of each numpy call over M messages is what
    makes Monte-Carlo sweeps fast — the per-step arithmetic is the one
    search :meth:`BubbleDecoder.decode` runs, so every row's result equals
    a one-message decode of that row, bit for bit (including fading
    cohorts decoded with full or phase-only CSI).
    """

    def decode_batch(self, received: BatchReceivedView) -> list[DecodeResult]:
        """Decode every message of a batch view in one vectorised search."""
        return self._search(received)
