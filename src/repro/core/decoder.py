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
single broadcast hash), takes subtree minima (none at ``d = 1``), and
selects each message's best ``B`` subtrees with its own ``argpartition``
row.  Each pruning step records its survivors for backtracking (one
compact ``(M, B)`` history row and its kept count); missing spine
positions (puncturing) simply contribute zero branch cost, which matches
§5 exactly.  numpy's ``argmin`` over each message's leaves (its first
minimum, or its first NaN) then picks the best, and the history leads
back from it to the message bits.  The whole search is one call,
``search(received, d, B)``, of the passes of
:func:`repro.backend.spinal_passes`: compiled C where it builds (one C
call for the search, selections by numpy's own ``argpartition`` through
numpy's C API included, and one for the backtrack of the whole cohort),
a numpy loop over the same steps otherwise.  It checks the received view
once and reads rows forming one run in place from the store (other row
sets are copied once).  The passes' leaf, child, cost and survivor
buffers are allocated once per decoder and cohort size and reused by the
cohort's later attempts.

Messages never mix: branch costs keep the slot axis leading (the same
reduction order for every row), and selection and the final argmin work
on contiguous per-message rows.  A message therefore decodes to the same
bits and the same float64 path cost whatever cohort it sits in, and
:meth:`BubbleDecoder.decode` is the search run on a one-row cohort.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.backend import ckernels, spinal_passes
from repro.core.params import DecoderParams, SpinalParams
from repro.core.symbols import BatchReceivedView, ReceivedSymbols

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
        # Depth cannot exceed the tree height; clamping keeps tiny-n cases
        # (and the full-ML limit) working through the same code path.
        self.d = min(decoder_params.d, self.n_spine)
        self._W = (1 << self.k) ** (self.d - 1)
        self._passes: tuple | None = None

    def decode(self, received: ReceivedSymbols | BatchReceivedView) -> DecodeResult:
        """Decode one message: a whole store, or a one-row view of one."""
        if isinstance(received, ReceivedSymbols):
            received = received.prefix(received.checkpoint())
        if received.n_rows != 1:
            raise ValueError("decode takes one message; use decode_batch")
        return self._search(received)[0]

    def _search_passes(self, M: int, has_csi: bool):
        """The passes, with their leaf, child, cost and survivor buffers,
        for a search over M messages.  Searches reuse them while M, the
        CSI mode and the kernel path repeat, as they do over most of a
        cohort's attempts, so the hash, metric and shape are checked, and
        the buffers' pages faulted in, once rather than at every
        attempt."""
        key = (M, has_csi, ckernels.load() is not None)
        if self._passes is None or self._passes[0] != key:
            K, d = 1 << self.k, self.d
            # The i-th pruning step keeps at most min(B, K^i) subtrees.
            n_pruning = self.n_spine - d + 1
            passes = spinal_passes(
                self.params.hash_name, levels=self._levels, c=self.params.c,
                is_bsc=self.params.is_bsc, has_csi=has_csi, k=self.k,
                n_msgs=M, beam=min(self.dec.B, K ** min(n_pruning, 32)),
                group=self._W, n_steps=n_pruning, s0=self.params.s0)
            self._passes = (key, passes)
        return self._passes[1]

    def _search(self, received: BatchReceivedView) -> list[DecodeResult]:
        """The bubble search over every message of ``received``."""
        if received.n_spine != self.n_spine:
            raise ValueError("received-symbol store has mismatched spine length")
        M = received.n_rows
        bits, costs = self._search_passes(M, received.has_csi).search(
            received, self.d, self.dec.B)
        return [DecodeResult(bits[m], cost, received.n_symbols)
                for m, cost in enumerate(costs.tolist())]


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
