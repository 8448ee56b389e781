"""The default backend: compiled C kernels, with the numpy reference as
fallback and oracle.

The numpy bodies here reproduce, bit for bit, what the decoder ran before
the backend seam existed: the vectorised branch-cost body of the bubble
search (one kernel, over an ``(M, n_states)`` cohort; a single message is
``M = 1``) and the ``argpartition`` beam selection, plus the reference
hash implementations of :mod:`repro.core.hashes`.  The non-CSI AWGN metric
reads per-slot distance tables (see :func:`_awgn_table_costs`), which
perform the same IEEE operations as gathering each word's levels and so
give the same costs.  Every other path is judged against these bodies —
same uint32 words, same float64 reduction order (the slot axis leads, so
the sum over received symbols accumulates in slot order), same introselect
selection order.

Where :func:`repro.backend.ckernels.load` builds the C kernels (on the
first hash or branch-cost call of a process, never at import or decoder
construction), the spine hashes and the branch costs run there instead:
one elementwise C hash behind each broadcasting ``hash_fns`` entry, and one
fused loop that hashes each (state, slot) pair and scores it.  Both are
bit-identical to the numpy bodies, which run whenever the kernels are
unavailable.  Beam selection stays numpy.  The backend keeps the name
``numpy``: it is the default and its results are the reference's.

Observability follows the decode hot-loop discipline (see ``repro.obs``).
On the numpy path the hash inside a branch-cost evaluation is timed as
``kernel.hash`` and the distance arithmetic as ``kernel.branch_cost``.  The
fused C kernel cannot split the two, so it charges the whole call to
``kernel.branch_cost``, as the numba backend does; ``kernel.hash`` then
counts only the decoder's tree-expansion hashes.
"""

from __future__ import annotations

import numpy as np

from repro.backend import ckernels
from repro.backend.base import Backend, HashFn
from repro.obs import OBS, clock

__all__ = ["branch_costs_batch", "select_beams", "make_backend"]

_U32 = np.uint32

# Lazily bound reference-hash registry (resolving it at import time would
# close the hashes -> backend -> hashes import cycle the wrong way round).
# Bound once: the decoder calls branch_costs_batch per spine position per
# attempt, so per-call registry rebuilds would be pure overhead.
_HASHES: dict[str, HashFn] | None = None


def _hash_fn(name: str) -> HashFn:
    global _HASHES
    if _HASHES is None:
        from repro.core.hashes import reference_hashes

        _HASHES = reference_hashes()
    return _HASHES[name]


def _compiled_hash(name: str) -> HashFn:
    """``h(state, data)`` on the compiled kernel, or the numpy reference
    when the kernels are unavailable.  The kernels are looked up at call
    time, so building the backend never builds them."""

    def h(state: np.ndarray, data: np.ndarray) -> np.ndarray:
        kernels = ckernels.load()
        if kernels is None:
            return _hash_fn(name)(state, data)
        return ckernels.spine_hash(kernels, name, state, data)

    return h


def select_beams(group_costs: np.ndarray, n_beam: int) -> np.ndarray:
    """Indices of the ``n_beam`` cheapest candidate subtrees of each row.

    ``group_costs`` is ``(M, n_candidates)``; selection runs along axis 1
    with ``argpartition``, introselect order preserved — the surviving
    index sets *and their order* are part of the decode contract, so all
    backends share this implementation.
    """
    n_keep = min(n_beam, group_costs.shape[1])
    if n_keep < group_costs.shape[1]:
        return np.argpartition(group_costs, n_keep - 1, axis=1)[:, :n_keep]
    return np.broadcast_to(np.arange(group_costs.shape[1]), group_costs.shape)


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


def branch_costs_batch(
    states: np.ndarray,
    slots: np.ndarray,
    values: np.ndarray,
    csi: np.ndarray | None,
    *,
    hash_name: str,
    levels: np.ndarray,
    c: int,
    is_bsc: bool,
) -> np.ndarray:
    """Branch costs of M messages: ``states (M, n)`` -> ``costs (M, n)``.

    Sums over every received symbol of one spine position: all passes
    plus tail symbols arrive as distinct slots, evaluated in one broadcast
    hash of shape ``(n_slots, M, n_states)``.  The slot axis leads, so
    each (message, state) sum accumulates in slot order and a row's costs
    do not depend on the other rows.  (numpy sums a lone column pairwise
    instead, so that holds for ``M * n_states > 1``; the decoder always
    scores at least ``2^k`` states.)  The compiled kernel reproduces the
    slot-ordered sum, so it runs for every input but that lone column.
    """
    states = np.asarray(states, dtype=np.uint32)
    n_msgs, n_states = states.shape
    if slots.size == 0:
        return np.zeros((n_msgs, n_states), dtype=np.float64)
    _on = OBS.enabled
    if _on:
        t0 = clock()
    kernels = ckernels.load() if n_msgs * n_states > 1 else None
    if kernels is not None:
        out = ckernels.branch_costs(
            kernels, np.ascontiguousarray(states),
            np.ascontiguousarray(slots, dtype=np.uint32),
            np.ascontiguousarray(
                values, dtype=np.float64 if is_bsc else np.complex128),
            None if csi is None else np.ascontiguousarray(
                csi, dtype=np.complex128),
            hash_name=hash_name,
            levels=np.ascontiguousarray(levels, dtype=np.float64), c=c,
            is_bsc=is_bsc)
        if _on:
            OBS.add_time("kernel.branch_cost", clock() - t0)
        return out
    hash_fn = _hash_fn(hash_name)
    words = hash_fn(states[None, :, :],
                    np.asarray(slots, np.uint32)[:, None, None])
    if _on:
        t1 = clock()
        OBS.add_time("kernel.hash", t1 - t0)
    if is_bsc:
        bits = (words & _U32(1)).astype(np.float64)
        out = np.abs(bits - values.T[:, :, None]).sum(axis=0)
    elif csi is None:
        out = _awgn_table_costs(words, values.T, levels, c)
    else:
        # Coherent metric |y - h x|^2 (§8.3) with the complex product h*x
        # spelled as separately-rounded real ufuncs.  numpy's
        # complex-multiply loop may contract into FMAs on hosts that have
        # them, which would make the reference costs machine-dependent in
        # the last ulp — explicit real ops pin one rounding sequence
        # everywhere, and it is the sequence a scalar kernel (numba)
        # reproduces exactly.
        c_mask = _U32((1 << c) - 1)
        x_i = levels[(words & c_mask).astype(np.intp)]
        x_q = levels[((words >> _U32(c)) & c_mask).astype(np.intp)]
        f_r = csi.real.T[:, :, None] * x_i - csi.imag.T[:, :, None] * x_q
        f_q = csi.real.T[:, :, None] * x_q + csi.imag.T[:, :, None] * x_i
        d_r = values.real.T[:, :, None] - f_r
        d_q = values.imag.T[:, :, None] - f_q
        out = (d_r * d_r + d_q * d_q).sum(axis=0)
    if _on:
        OBS.add_time("kernel.branch_cost", clock() - t1)
    return out


_BACKEND: Backend | None = None


def make_backend() -> Backend:
    """The (cached) default backend: compiled kernels, numpy fallback."""
    global _BACKEND
    if _BACKEND is None:
        from repro.core.hashes import available_hashes

        _BACKEND = Backend(
            name="numpy",
            hash_fns={name: _compiled_hash(name)
                      for name in available_hashes()},
            branch_costs_batch=branch_costs_batch,
            select_beams=select_beams,
        )
    return _BACKEND
