"""The one-message bubble search, kept as a test oracle.

This is the decoder the library ran for a single message before that path
became a one-row view of the cohort search: the same tree search written
for one message, with branch costs computed by gathering each candidate
word's constellation levels (the direct formulation of the metric) and
beams selected by a 1-D ``argpartition``.  Tests decode with the library
and compare each message against :func:`reference_decode`, bit for bit.
"""

import numpy as np

from repro.core.decoder import DecodeResult
from repro.core.hashes import reference_hashes
from repro.utils.bitops import pack_chunks

_U32 = np.uint32


def _branch_costs(params, levels, states, slots, values, csi):
    """Edge costs of 1-D ``states`` at one spine position, slot axis leading."""
    if slots.size == 0:
        return np.zeros(states.size, dtype=np.float64)
    hash_fn = reference_hashes()[params.hash_name]
    words = hash_fn(states[None, :], np.asarray(slots, np.uint32)[:, None])
    if params.is_bsc:
        bits = (words & _U32(1)).astype(np.float64)
        return np.abs(bits - values[:, None]).sum(axis=0)
    c = params.c
    c_mask = _U32((1 << c) - 1)
    x_i = levels[(words & c_mask).astype(np.intp)]
    x_q = levels[((words >> _U32(c)) & c_mask).astype(np.intp)]
    if csi is not None:
        # |y - h x|^2 with h*x spelled as separately-rounded real products.
        x_i, x_q = (csi.real[:, None] * x_i - csi.imag[:, None] * x_q,
                    csi.real[:, None] * x_q + csi.imag[:, None] * x_i)
    d_r = values.real[:, None] - x_i
    d_q = values.imag[:, None] - x_q
    return (d_r * d_r + d_q * d_q).sum(axis=0)


def _select_subtrees(group_costs, n_beam):
    n_keep = min(n_beam, group_costs.size)
    if n_keep < group_costs.size:
        return np.argpartition(group_costs, n_keep - 1)[:n_keep]
    return np.arange(group_costs.size)


def reference_decode(params, decoder_params, n_bits, received):
    """Bubble-decode one message from a store with 1-D ``for_spine`` rows."""
    n_spine = params.n_spine(n_bits)
    if received.n_spine != n_spine:
        raise ValueError("received-symbol store has mismatched spine length")
    k, K = params.k, 1 << params.k
    d = min(decoder_params.d, n_spine)
    W = K ** (d - 1)
    levels = params.make_mapping().levels
    edges = np.arange(K, dtype=np.uint32)
    hash_fn = reference_hashes()[params.hash_name]

    def branch_costs(states, spine_idx):
        slots, values, csi = received.for_spine(spine_idx)
        return _branch_costs(params, levels, states, slots, values, csi)

    # Unpruned expansion of the first d-1 levels.
    leaf_states = np.full((1, 1), params.s0, dtype=np.uint32)
    leaf_costs = np.zeros((1, 1), dtype=np.float64)
    for step in range(d - 1):
        children = hash_fn(leaf_states[:, :, None], edges)
        bc = branch_costs(children.ravel(), step)
        leaf_costs = (leaf_costs[:, :, None]
                      + bc.reshape(children.shape)).reshape(1, -1)
        leaf_states = children.reshape(1, -1)

    # Main loop: one spine position per iteration; prune to B subtrees.
    parent_hist = []
    edge_hist = []
    for step in range(d - 1, n_spine):
        n_beam = leaf_states.shape[0]
        children = hash_fn(leaf_states[:, :, None], edges)  # (n_beam, W, K)
        bc = branch_costs(children.ravel(), step)
        totals = leaf_costs[:, :, None] + bc.reshape(n_beam, W, K)
        # Flat child index w*K+e spells the d base-2^k path digits with the
        # first edge most significant, so a row-major reshape to (K, W)
        # groups children by first edge = candidate subtree.
        totals = totals.reshape(n_beam, K, W)
        states3 = children.reshape(n_beam, K, W)
        group_costs = totals.min(axis=2).ravel()
        sel = _select_subtrees(group_costs, decoder_params.B)
        parents = sel // K
        sel_edges = sel % K
        leaf_states = states3[parents, sel_edges, :]
        leaf_costs = totals[parents, sel_edges, :]
        parent_hist.append(parents)
        edge_hist.append(sel_edges)

    # Best leaf overall, then backtrack.
    flat_best = int(np.argmin(leaf_costs))
    b_star, w_star = divmod(flat_best, W)
    best_cost = float(leaf_costs[b_star, w_star])

    rev_chunks = []
    b = b_star
    for parents, sel_edges in zip(reversed(parent_hist), reversed(edge_hist)):
        rev_chunks.append(int(sel_edges[b]))
        b = int(parents[b])
    chunks = list(reversed(rev_chunks))
    # Within-subtree path: the d-1 base-2^k digits of w_star, MSB first.
    digits = []
    w = w_star
    for _ in range(d - 1):
        digits.append(w % K)
        w //= K
    chunks.extend(reversed(digits))

    message = pack_chunks(np.asarray(chunks, dtype=np.uint32), k)
    return DecodeResult(message, best_cost, received.n_symbols)
