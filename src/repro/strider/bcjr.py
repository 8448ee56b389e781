"""Max-log-MAP (BCJR) decoding of one RSC constituent code.

Max-log (max instead of log-sum-exp) costs ~0.1 dB versus exact log-MAP
and is what high-throughput turbo implementations use.

The forward (alpha) and backward (beta) recursions are sequential in time
but independent of each other, so one time loop runs both: step
``t`` advances a stacked row ``[alpha[t] | beta[T - t]]`` of ``2 * S``
state metrics to ``[alpha[t + 1] | beta[T - t - 1]]``.  Every RSC state
has exactly two incoming and two outgoing branches (:class:`BcjrTrellis`
checks this), so each new metric is the larger of two candidates
``metric[state] + gamma[branch]``.  A step is therefore one ``take``
through a fixed ``(2, 2 * S)`` gather index, one add of a precomputed
``(2, 2 * S)`` branch-metric slab, a pairwise ``np.maximum`` of the two
candidate rows, a floor at ``_NEG`` and a per-half max normalisation.

The fused step is bit-identical to the textbook form that scatters every
branch with ``np.maximum.at`` into a ``_NEG``-filled array.  That form
computes ``max(max(_NEG, c0), c1)`` with the candidates in branch order;
``max`` is exact, so ``max(max(c0, c1), _NEG)`` yields the same value,
and the candidate rows keep branch order so ties resolve alike.  Without
the floor the two would differ whenever both candidates fall below
``_NEG``, which branch metrics of the size of ``_NEG`` make visible in
the LLRs.  The per-half normalisation subtracts each recursion's own
maximum, exactly as the separate recursions did.  The final LLR
extraction is vectorised over time.

On the compiled kernels a whole decode is one C call,
:meth:`repro.backend.ckernels.BcjrDecoder.decode`: the branch metrics, the
fused recursion (reading each step's branch metrics straight from
``gamma``, with no slab) and the posterior, with the numpy body's
operations in its order and its NaN and tie choices, so the outputs are
bit-identical.  A trellis's tables are checked and bound once, on its
first compiled decode; each call checks only the LLR arrays.  Where the
kernels cannot be built the numpy body below runs; it is also the
kernel's test oracle.  Where numpy's own choice between two NaNs or two
tied zeros depends on an array's length or layout, the body spells one
out: ``sys + a_priori`` keeps the systematic LLR's NaN (a 1-D add takes
the second operand's NaN in its scalar tail), the parity sum adds each
row's term in front of the running sum (the later row's NaN wins, as in
``np.einsum("pt,bp->tb")`` for T >= 2), and each input bit's best branch
folds ``np.maximum`` in branch order (numpy's reduce over the
column-major ``metric[:, mask]`` does this for T >= 2 and makes a leading
NaN canonical for T = 1).

LLR convention matches the rest of the library: positive favours bit 0.
"""

from __future__ import annotations

from functools import reduce
from types import ModuleType

import numpy as np

from repro.backend import ckernels
from repro.strider.rsc import RscCode

__all__ = ["max_log_bcjr", "BcjrTrellis"]

_NEG = -1e30


def _two_per_state(states: np.ndarray, n_states: int, what: str) -> np.ndarray:
    """(2, n_states) branch indices per state, in branch order."""
    counts = np.bincount(states, minlength=n_states)
    if counts.size != n_states or (counts != 2).any():
        raise ValueError(
            f"BCJR needs exactly two {what} branches per state, got counts "
            f"{counts.tolist()}"
        )
    return np.ascontiguousarray(
        np.argsort(states, kind="stable").reshape(n_states, 2).T)


class BcjrTrellis:
    """Precomputed branch arrays and fused-recursion tables for an RSC trellis.

    Raises ``ValueError`` unless every state has exactly two incoming and
    two outgoing branches.
    """

    def __init__(self, code: RscCode):
        self.code = code
        ns = code.n_states
        branches = []
        for s in range(ns):
            for u in (0, 1):
                branches.append((s, u, int(code.next_state[s, u])))
        self.from_state = np.array([b[0] for b in branches], dtype=np.int64)
        self.input_bit = np.array([b[1] for b in branches], dtype=np.int64)
        self.to_state = np.array([b[2] for b in branches], dtype=np.int64)
        # +1 when the bit hypothesis is 0 (positive LLR favours 0)
        self.sys_sign = 1.0 - 2.0 * self.input_bit
        par = np.array(
            [code.parity_out[b[0], b[1]] for b in branches], dtype=np.float64
        )  # (n_branches, n_parity)
        self.par_sign = 1.0 - 2.0 * par
        self.n_states = ns
        self.n_branches = len(branches)
        #: (2, S) branches into / out of each state, in branch order
        self.in_branches = _two_per_state(self.to_state, ns, "incoming")
        self.out_branches = _two_per_state(self.from_state, ns, "outgoing")
        #: (2, 2S) gather of the stacked [alpha | beta] row: candidate k of
        #: alpha[j] reads the source state of j's k-th incoming branch,
        #: candidate k of beta[i] the target state of i's k-th outgoing one
        self.gather = np.concatenate(
            [self.from_state[self.in_branches],
             ns + self.to_state[self.out_branches]], axis=1)
        self._bound: tuple[ModuleType, ckernels.BcjrDecoder] | None = None

    def decoder(self, module: ModuleType) -> ckernels.BcjrDecoder:
        """This trellis checked and bound for the compiled ``module``, once
        per module."""
        if self._bound is None or self._bound[0] is not module:
            self._bound = module, ckernels.BcjrDecoder(
                module, from_state=self.from_state, to_state=self.to_state,
                input_bit=self.input_bit, in_branches=self.in_branches,
                out_branches=self.out_branches, sys_sign=self.sys_sign,
                par_sign=self.par_sign, lowest=_NEG)
        return self._bound[1]


def _numpy_recursion(slab: np.ndarray, gather: np.ndarray,
                     rows: np.ndarray) -> None:
    """The fused recursion in numpy, filling ``rows[1:]`` from ``rows[0]``.

    This is the reference the recursion of the compiled ``bcjr_decode`` of
    :mod:`repro.backend.ckernels` must match bit for bit, and what runs
    when that kernel cannot be built.
    """
    t_len = slab.shape[0]
    ns = rows.shape[1] // 2
    # Per-step views and out= buffers built once: the loop body is six
    # numpy calls on 2S-element rows, so call overhead is the whole cost.
    row_list = list(rows)
    halves_list = list(rows.reshape(t_len + 1, 2, ns))
    cand = np.empty(gather.shape)
    cand0, cand1 = cand
    floor = np.full(2 * ns, _NEG)
    half_max = np.empty((2, 1))
    take, add, maximum = np.take, np.add, np.maximum
    for t, slab_t in enumerate(slab):
        take(row_list[t], gather, out=cand, mode="clip")
        add(cand, slab_t, out=cand)
        nxt = row_list[t + 1]
        maximum(cand0, cand1, out=nxt)
        maximum(nxt, floor, out=nxt)
        halves = halves_list[t + 1]  # normalise each recursion against drift
        maximum.reduce(halves, axis=1, keepdims=True, out=half_max)
        halves -= half_max


def max_log_bcjr(
    trellis: BcjrTrellis,
    sys_llrs: np.ndarray,
    parity_llrs: np.ndarray,
    a_priori: np.ndarray | None = None,
    terminated: bool = True,
) -> tuple[np.ndarray, np.ndarray]:
    """Decode one constituent code.

    Parameters
    ----------
    trellis: precomputed :class:`BcjrTrellis`.
    sys_llrs: (T,) systematic LLRs (including tail positions).
    parity_llrs: (n_parity, T) parity LLRs.
    a_priori: (T,) extrinsic input from the other decoder (0 if None).
    terminated: trellis ends in state 0 (tail transmitted).

    Returns
    -------
    (posterior_llrs, extrinsic_llrs), both (T,).  The extrinsic output is
    posterior − systematic − a-priori, ready to feed the peer decoder.
    """
    sys_llrs = np.ascontiguousarray(sys_llrs, dtype=np.float64)
    parity_llrs = np.ascontiguousarray(parity_llrs, dtype=np.float64)
    if a_priori is not None:
        a_priori = np.ascontiguousarray(a_priori, dtype=np.float64)
    kernels = ckernels.load()
    if kernels is not None:
        return trellis.decoder(kernels).decode(sys_llrs, parity_llrs,
                                               a_priori, terminated)
    t_len = sys_llrs.size
    if a_priori is None:
        a_priori = np.zeros(t_len)
    ns = trellis.n_states

    # gamma[t, branch]: all branch metrics, vectorised over time upfront
    sys_apri = sys_llrs + a_priori
    np.copyto(sys_apri, sys_llrs, where=np.isnan(sys_llrs))
    sys_term = 0.5 * sys_apri[:, None] * trellis.sys_sign[None, :]
    par_sum = np.zeros((t_len, trellis.n_branches))
    for row, sign in zip(parity_llrs, trellis.par_sign.T):
        par_sum = row[:, None] * sign + par_sum
    gamma = sys_term + 0.5 * par_sum  # (T, n_branches)

    # slab[t]: the branch metrics added to gather(row t), laid out like it;
    # the beta half runs backwards in time
    slab = np.ascontiguousarray(np.concatenate(
        [gamma[:, trellis.in_branches],
         gamma[::-1][:, trellis.out_branches]], axis=2))

    # rows[t] = [alpha[t] | beta[T - t]]
    rows = np.empty((t_len + 1, 2 * ns))
    rows[0] = _NEG
    rows[0, 0] = 0.0  # start in state 0
    if terminated:
        rows[0, ns] = 0.0  # end in state 0
    else:
        rows[0, ns:] = 0.0
    _numpy_recursion(slab, trellis.gather, rows)

    alpha = rows[:, :ns]
    beta = rows[::-1, ns:]

    # posterior LLRs, vectorised over time
    frm, to = trellis.from_state, trellis.to_state
    metric = alpha[:-1][:, frm] + gamma + beta[1:][:, to]  # (T, n_branches)
    # each input bit's best branch: np.maximum folded in branch order
    best0, best1 = (reduce(np.maximum, metric.T[trellis.input_bit == bit])
                    for bit in (0, 1))
    llr = best0 - best1
    extrinsic = llr - sys_llrs - a_priori
    return llr, extrinsic
