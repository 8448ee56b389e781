"""The decode hot loop's array kernels: compiled C where it builds, numpy
otherwise.

The bubble decoder spends its time in three kernel families: the u32 spine
hashes, the branch costs, and beam selection.  This module holds the one
implementation of each.  The spine hashes run on the compiled C kernels of
:mod:`repro.backend.ckernels` where they build (on the first hash, spine
or search call of a process, never at import or decoder construction),
and on the numpy reference hashes otherwise; a whole spine is one C call
(``ckernels.spine_chain``, which :func:`repro.core.spine.
spine_states_batch` takes for the hashes :func:`hash_kernel` returns).
The bubble search runs on the passes of :func:`spinal_passes`, whose
one call, ``search(received, d, B)``, checks and binds the received view,
runs the whole search (per spine position the gather of the subtrees the
previous step kept, the tree-expansion hash and the fused branch costs
plus each parent's cost, and at every pruning step the selection by
numpy's ``argpartition``), picks each message's best leaf by numpy's
``argmin`` and backtracks to its bits.  Compiled, the search is one C
call, whose selections call numpy's own ``argpartition`` through numpy's
C API, and the backtrack another; in numpy, the search is a Python loop
over the same steps and the backtrack a loop over the history rows.  The
passes are the one way to score, select and backtrack spinal candidates:
compiled as :class:`ckernels.SpinalPasses`, in numpy as
:class:`_NumpyPasses`.

The contract is **bit-identical output**: the compiled passes reproduce
the numpy ones exactly, which are the fallback and the test oracle —
same uint32 hash words as the reference hashes of :mod:`repro.core.hashes`,
same float64 branch costs (same operation order, so the same IEEE
rounding).  The non-CSI AWGN metric reads per-slot distance tables (see
:func:`_awgn_table_costs`), which perform the same IEEE operations as
gathering each word's levels and so give the same costs.
``tests/test_backend.py`` enforces this with golden hash vectors, the
passes' scores against a gather oracle and a decode matrix against a
reference search, on both paths; the experiment store's byte-identical
files on both paths are the end-to-end corollary.

:func:`get_backend` names the kernel set for ``--metrics`` artifacts and
``BENCH_*`` payloads.  The name is ``numpy`` because the results are the
numpy reference's bit for bit, whichever path ran.

Observability follows the decode hot-loop discipline (see ``repro.obs``).
A search times its tree expansions, survivor gathers included, as
``kernel.hash``, its branch costs, whose fused loop cannot time its
hashing apart, as ``kernel.branch_cost``, and its selections (the
subtree minima and ``argpartition``) as ``kernel.select``, on both paths
(the compiled search times its passes in C), and flushes them once per
search.  The ``argmin`` and the backtrack after it are not kernel time:
they stay in the decoder's own (``BubbleDecoder.decode``'s or
``decode_batch``'s) time, as does the encoder's spine chain in the
encoder's.

:mod:`repro.core.hashes` imports this package, so the reference hashes
it defines are bound lazily, on first use.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from typing import Callable

import numpy as np

from repro.backend import ckernels
from repro.obs import OBS, clock
from repro.utils.bitops import pack_chunks

__all__ = [
    "Backend",
    "BackendFallbackWarning",
    "HashFn",
    "get_backend",
    "hash_kernel",
    "spinal_passes",
]

_U32 = np.uint32

#: ``h(state, data) -> word``: broadcasting uint32 ndarray hash.
HashFn = Callable[[np.ndarray, np.ndarray], np.ndarray]


class BackendFallbackWarning(RuntimeWarning):
    """The compiled kernels failed to build and the numpy loops run instead.

    Emitted once per process by :func:`repro.backend.ckernels.load`, so
    batch sweeps don't drown in repeats.
    """


@dataclass(frozen=True)
class Backend:
    """The kernel set's name, recorded in ``--metrics`` artifacts and
    ``BENCH_*`` payloads.  Whether the compiled kernels built is not in the
    name: the results are the same either way."""

    name: str


@cache
def get_backend() -> Backend:
    """The one kernel set (its ``name`` is ``numpy``)."""
    return Backend(name="numpy")


@cache
def _reference_hash(name: str) -> HashFn:
    from repro.core.hashes import reference_hashes

    return reference_hashes()[name]


@cache
def hash_kernel(name: str) -> HashFn:
    """``h(state, data)`` for a registered hash on the compiled kernel, or
    the numpy reference when the kernels are unavailable.

    One function object per name, carrying the name as ``hash_name``, by
    which :func:`repro.core.spine.spine_states_batch` builds a whole spine
    in one C call.  The kernels are looked up at call time, so getting the
    function never builds them.
    """
    reference = _reference_hash(name)

    def h(state: np.ndarray, data: np.ndarray) -> np.ndarray:
        kernels = ckernels.load()
        if kernels is None:
            return reference(state, data)
        return ckernels.spine_hash(kernels, name, state, data)

    h.hash_name = name
    return h


class _NumpyPasses(ckernels._Passes):
    """The numpy bubble search that :class:`ckernels.SpinalPasses`
    reproduces bit for bit, with the same interface and checks, and the
    fallback when the kernels do not build.  The search is a Python loop
    over the steps: per spine position :meth:`_expand` (the survivors'
    gathers by ``take``, then the tree-expansion hash) and :meth:`_score`
    (the numpy branch costs of :func:`_distances` and ``leaf + bc``, read
    from the planes :meth:`_bind` bound), at every pruning step
    :meth:`_select`, then the last :meth:`_gather`; the backtrack is a
    Python loop over the history rows.  Between the steps the search's
    state is ``_n_leaves`` leaves a message, the next history row
    ``_row`` and the pending selection ``_sel``."""

    def __init__(self, hash_name: str, *, levels: np.ndarray, c: int,
                 is_bsc: bool, has_csi: bool, k: int, n_msgs: int,
                 beam: int, group: int, n_steps: int, s0: int):
        super().__init__(is_bsc=is_bsc, has_csi=has_csi, k=k, n_msgs=n_msgs,
                         beam=beam, group=group, n_steps=n_steps, s0=s0)
        self._hash = _reference_hash(hash_name)
        self._levels, self._c = levels, c
        self._edges = np.arange(1 << self._k, dtype=_U32)
        # _select's plans by leaf count and beam
        self._plans: dict[tuple[int, int], tuple] = {}
        self._n_leaves, self._row = 1, 0
        self._sel: np.ndarray | None = None

    def _bind(self, slots: np.ndarray, values: np.ndarray,
              csi: np.ndarray | None, counts: np.ndarray) -> None:
        self._view = (slots, values, csi, counts)
        self._n_leaves, self._row, self._sel = 1, 0, None

    def _unbind(self) -> None:
        self._view = self._sel = None

    def _run(self, n_spine: int, d: int, n_beam: int) -> tuple[int, int]:
        # Kernel timing accumulates in locals and flushes once at the end
        # (repro.obs hot-loop discipline: disabled cost is one branch per
        # step, no allocations).
        _on = OBS.enabled
        t_hash = t_bc = t_sel = 0.0
        # The first d-1 steps expand the tree unpruned (the initial
        # partial tree of Figure 4-1(a)); every later step prunes to
        # n_beam subtrees, which the next expansion gathers.
        for step in range(n_spine):
            if _on:
                t0 = clock()
            self._expand(step)
            if _on:
                t1 = clock()
            self._score(step)
            if _on:
                t2 = clock()
                t_hash += t1 - t0
                t_bc += t2 - t1
            if step >= d - 1:
                self._select(n_beam)
                if _on:
                    t_sel += clock() - t2
        if _on:
            t0 = clock()
        self._gather()
        if _on:
            ckernels._flush_search_times(t_hash + clock() - t0, t_bc, t_sel,
                                         n_spine, d)
        return self._n_leaves, self._row

    def _check_step(self, step: int) -> None:
        if self._view is None or not 0 <= step < self._view[3].size:
            raise ValueError(f"spine position {step} lies outside the bound "
                             "view")

    def _expand(self, step: int) -> None:
        """Pass 1 at spine position ``step``: gather the new leaves, then
        hash their children into ``children``.  The new leaves are the
        survivors of the pending selection; without one, every child of
        the last step, while those fit in one subtree (the unpruned first
        ``d - 1`` steps); at step 0 the leaves :meth:`search` set."""
        self._check_step(step)
        if self._sel is not None:
            self._gather()
        elif step > 0:
            if self._n_leaves << self._k > self._group:
                raise ValueError("unpruned children past one subtree")
            n = self._n_msgs * self._n_leaves << self._k
            self.states[:n] = self.children[:n]
            self.costs[:n] = self.totals[:n]
            self._n_leaves <<= self._k
        leaves = self.states[:self._n_msgs * self._n_leaves]
        self.children[:leaves.size << self._k] = self._hash(
            leaves[:, None], self._edges).ravel()

    def _score(self, step: int) -> None:
        """Pass 2 at spine position ``step``: the children's path costs
        into ``totals``."""
        self._check_step(step)
        slots, values, csi, counts = self._view
        n_slots = counts[step]
        n = self._n_msgs * self._n_leaves
        K = 1 << self._k
        if n_slots == 0:
            bc = np.zeros(n * K)
        else:
            words = self._hash(
                self.children[:n * K].reshape(1, self._n_msgs, -1),
                slots[step, :n_slots, None, None])
            bc = _distances(
                words, values[step, :, :n_slots],
                None if csi is None else csi[step, :, :n_slots],
                self._levels, self._c, self._is_bsc)
        parents = self.costs[:n, None]
        totals = self.totals[:n * K].reshape(n, K)
        np.add(parents, bc.reshape(n, K), out=totals)
        # numpy picks between a NaN parent and a NaN branch cost by
        # position; the compiled score always keeps the parent's
        np.copyto(totals, parents, where=np.isnan(parents))

    def _plan(self, n_leaves: int, n_beam: int) -> tuple:
        """What :meth:`_select` needs at ``n_leaves`` leaves a message,
        made and checked once per passes: the kept count, the ``(n_msgs,
        n_groups)`` subtree costs ``argpartition`` ranks (a view of
        ``totals``, or of the minima with their reduction's operands when
        subtrees have several leaves), and the selection of every subtree
        when all of them fit."""
        n_children = n_leaves << self._k
        n_groups = n_children // self._group
        n_keep = min(n_beam, n_groups)
        if not 0 < n_keep <= self._beam:
            raise ValueError(f"cannot keep {n_keep} of {n_groups} subtrees "
                             f"in a beam of {self._beam}")
        size = self._n_msgs * n_groups
        totals = self.totals[:self._n_msgs * n_children]
        if self._minima is None:
            costs, minimum = totals.reshape(self._n_msgs, n_groups), None
        else:
            minima = self._minima[:size]
            costs = minima.reshape(self._n_msgs, n_groups)
            minimum = (totals.reshape(size, self._group), minima)
        every = None if n_keep < n_groups else np.broadcast_to(
            self._all[:n_keep], (self._n_msgs, n_keep))
        plan = self._plans[n_leaves, n_beam] = (n_keep, costs, minimum,
                                                every)
        return plan

    def _select(self, n_beam: int) -> None:
        """Choose the survivors of the step just scored: of each message's
        subtrees of ``group`` consecutive children, scored by their
        cheapest child, the ``min(n_beam, n_subtrees)`` cheapest by
        ``argpartition`` along each message's row (all of them, in order,
        when they fit), for the next :meth:`_gather`.

        The choice depends on numpy's CPU dispatch level: under numpy
        2.4.6 the X86_V4, X86_V3 and baseline ``argpartition`` loops
        return the same index set in different orders, and different sets
        among tied costs.  Survivor order decides which tied candidate
        later steps keep and which leaf the final ``argmin`` picks, so
        where costs tie a decode can differ between hosts (a (cost, index)
        tie-break would make it host-independent, at the price of some
        stored records).  The compiled search makes the same calls."""
        plan = self._plans.get((self._n_leaves, n_beam))
        if plan is None:
            plan = self._plan(self._n_leaves, n_beam)
        n_keep, costs, minimum, every = plan
        if minimum is not None:
            np.minimum.reduce(minimum[0], axis=1, out=minimum[1])
        self._sel = every if every is not None else costs.argpartition(
            n_keep - 1, axis=1)[:, :n_keep]

    def _gather(self) -> None:
        """The pending selection's survivors into ``states`` and
        ``costs``, their group rows into the next ``history`` row and
        their count into ``kept``."""
        # Subtree g of message m is row m * n_groups + g of the
        # (M * n_groups, group) children and totals, so one take gathers
        # the survivors of every message.
        M, group, sel = self._n_msgs, self._group, self._sel
        n_groups = (self._n_leaves << self._k) // group
        if (sel is None or not 0 < sel.shape[1] <= min(self._beam, n_groups)
                or self._row >= len(self.history)):
            raise ValueError("no selection to gather")
        if sel.min() < 0 or sel.max() >= n_groups:
            raise ValueError("a selection names a subtree outside the "
                             "scored step")
        n_keep = sel.shape[1]
        kept = sel + np.arange(0, M * n_groups, n_groups)[:, None]
        n, size = M * n_keep * group, M * n_groups * group
        self.children[:size].reshape(M * n_groups, group).take(
            kept, axis=0, out=self.states[:n].reshape(M, n_keep, group),
            mode="clip")
        self.totals[:size].reshape(M * n_groups, group).take(
            kept, axis=0, out=self.costs[:n].reshape(M, n_keep, group),
            mode="clip")
        self.history[self._row, :, :n_keep] = kept
        self.kept[self._row] = n_keep
        self._n_leaves, self._row = n_keep * group, self._row + 1
        self._sel = None

    def _backtrack(self, best: np.ndarray, bits: np.ndarray) -> None:
        # Beams are numbered across the cohort (beam b of message m is
        # m * n_keep + b), so history entry m * n_groups + parent * K +
        # edge divides by K into the previous row's flat beam index and
        # the edge taken.
        k, K, group = self._k, 1 << self._k, self._group
        n_leaves = self._n_leaves
        rows = [self.history[row, :, :n_keep] for row, n_keep in
                enumerate(self.kept[:self._row].tolist())]
        for m in range(self._n_msgs):
            b, w = divmod(m * n_leaves + int(best[m]), group)
            rev_chunks: list[int] = []
            for row in range(len(rows) - 1, -1, -1):
                n_prev = rows[row - 1].shape[1] if row else 1
                entry = int(rows[row].flat[b])
                if not 0 <= entry < self._n_msgs * n_prev * K:
                    raise ValueError("a history entry names no survivor of "
                                     "the row before it")
                b, edge = divmod(entry, K)
                rev_chunks.append(edge)
            chunks = list(reversed(rev_chunks))
            # Within-subtree path: the d-1 base-2^k digits of w, MSB first.
            digits = []
            for _ in range(self._digits):
                digits.append(w % K)
                w //= K
            chunks.extend(reversed(digits))
            bits[m] = pack_chunks(np.asarray(chunks, dtype=np.uint32), k)


def spinal_passes(hash_name: str, *, levels: np.ndarray, c: int,
                  is_bsc: bool, has_csi: bool, k: int, n_msgs: int,
                  beam: int, group: int, n_steps: int,
                  s0: int) -> "ckernels.SpinalPasses | _NumpyPasses":
    """The passes of a bubble search, made for a search shape:
    :class:`ckernels.SpinalPasses` where the kernels build, its numpy
    equivalent otherwise.  Both own ``states``, ``costs``, ``children``,
    ``totals``, ``history`` and ``kept`` buffers for ``n_msgs`` messages
    of up to ``beam`` subtrees of ``group`` leaves over ``n_steps``
    pruning steps, and both run a search as one call,
    ``search(received, d, B) -> (bits, costs)``, bit for bit alike."""
    levels = np.ascontiguousarray(levels, dtype=np.float64)
    kwargs = dict(levels=levels, c=c, is_bsc=is_bsc, has_csi=has_csi, k=k,
                  n_msgs=n_msgs, beam=beam, group=group, n_steps=n_steps,
                  s0=s0)
    kernels = ckernels.load()
    if kernels is None:
        return _NumpyPasses(hash_name, **kwargs)
    return ckernels.SpinalPasses(kernels, hash_name, **kwargs)


def _awgn_table_costs(
    words: np.ndarray, y: np.ndarray, levels: np.ndarray, c: int
) -> np.ndarray:
    """Non-CSI AWGN branch costs ``sum_slots |y - x(word)|^2``.

    ``words`` is ``(n_slots, [M,] n_states)`` and ``y`` holds one received
    value per leading ``(slot[, message])`` pair.  Each pair gets two
    tables of ``2^c`` entries, ``(y_r - level)^2`` and ``(y_q - level)^2``,
    flattened row after row; a word scores by two ``np.take`` on uint32
    offsets ``row * 2^c + index`` and one ``+``.  A table entry is the
    same IEEE subtract-then-square of the same two operands as the direct
    ``d = y - levels[index]; d * d``, so every summand, the slot-leading
    sum over them and any NaN or inf come out bit for bit as before, at a
    fraction of the element work.
    """
    n_levels = levels.size
    d_r = y.real[..., None] - levels
    d_q = y.imag[..., None] - levels
    tab_r = (d_r * d_r).ravel()
    tab_q = (d_q * d_q).ravel()
    rows = np.arange(y.size, dtype=np.uint32) * _U32(n_levels)
    rows = rows.reshape(y.shape + (1,))
    mask = _U32(n_levels - 1)
    offsets = words & mask
    offsets += rows
    cost = np.take(tab_r, offsets)
    np.right_shift(words, _U32(c), out=offsets)
    offsets &= mask
    offsets += rows
    cost += np.take(tab_q, offsets)
    return cost.sum(axis=0)


def _distances(
    words: np.ndarray,
    values: np.ndarray,
    csi: np.ndarray | None,
    levels: np.ndarray,
    c: int,
    is_bsc: bool,
) -> np.ndarray:
    """The numpy branch costs of the hash words ``(n_slots, M, n_states)``.

    The slot axis leads, so each (message, state) sum accumulates in slot
    order, as the compiled loop's does, and a row's costs do not depend on
    the other rows.  numpy would sum a lone column (``M * n_states == 1``)
    pairwise instead; the passes never score one, since every leaf has
    ``2^k >= 2`` children.
    """
    if is_bsc:
        bits = (words & _U32(1)).astype(np.float64)
        return np.abs(bits - values.T[:, :, None]).sum(axis=0)
    if csi is None:
        return _awgn_table_costs(words, values.T, levels, c)
    # Coherent metric |y - h x|^2 (§8.3) with the complex product h*x
    # spelled as separately-rounded real ufuncs.  numpy's
    # complex-multiply loop may contract into FMAs on hosts that have
    # them, which would make the reference costs machine-dependent in
    # the last ulp — explicit real ops pin one rounding sequence
    # everywhere, and it is the sequence the C kernel reproduces.
    c_mask = _U32((1 << c) - 1)
    x_i = levels[(words & c_mask).astype(np.intp)]
    x_q = levels[((words >> _U32(c)) & c_mask).astype(np.intp)]
    f_r = csi.real.T[:, :, None] * x_i - csi.imag.T[:, :, None] * x_q
    f_q = csi.real.T[:, :, None] * x_q + csi.imag.T[:, :, None] * x_i
    d_r = values.real.T[:, :, None] - f_r
    d_q = values.imag.T[:, :, None] - f_q
    return (d_r * d_r + d_q * d_q).sum(axis=0)
