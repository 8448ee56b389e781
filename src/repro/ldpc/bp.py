"""Generic belief propagation over parity-style factor graphs.

One engine serves both baselines that need it:

- **LDPC** (§8 "forty full iterations ... floating point"): every check is
  a pure parity constraint.
- **Raptor** (§8.2): LT output nodes are parity checks *with a channel
  observation attached* — the received symbol's LLR enters the check update
  as one extra tanh factor.  Precode checks remain pure parity.

The engine is edge-vectorised: messages live on flat edge arrays ordered by
check, with a cached permutation to variable order, so each iteration is a
handful of ``np.add.reduceat`` calls regardless of graph shape.  Graph
bookkeeping (edge order, segment starts, edgeless nodes) is done once per
graph and the observation terms once per decode; the iteration loop
reuses scratch buffers and keeps the order of every rounding operation.
Sum-product runs everything but its four transcendentals as the C passes
of :class:`repro.backend.ckernels.BpPasses`, bit for bit the numpy loop,
which stays as the fallback and the test oracle.  The passes also settle
the ``exp`` of every log-magnitude below -746, where numpy returns +0.0,
by a compare, so those edges cost the ``exp`` nothing.

LLR convention: positive favours bit value 0.
"""

from __future__ import annotations

import numpy as np

from repro.backend import ckernels

__all__ = ["BeliefPropagation"]

_TANH_CLIP = 1.0 - 1e-12
_TANH_FLOOR = 1e-30  # |tanh| floor: zero-LLR messages must multiply to ~0, not NaN
_LLR_CLIP = 40.0
_SIGNS = np.array([1.0, -1.0])  # indexed by a negative flag


def _is_sorted(check_index: np.ndarray, var_index: np.ndarray) -> bool:
    """True when the edges are already in lexicographic (check, var) order."""
    d_check = np.diff(check_index)
    return bool(((d_check > 0)
                 | ((d_check == 0) & (np.diff(var_index) >= 0))).all())


def _with_edges(starts: np.ndarray, n_edges: int) -> np.ndarray | None:
    """Indices of the segments that own edges, or None when all of them do."""
    has_edges = np.diff(starts, append=n_edges) > 0
    return None if has_edges.all() else np.flatnonzero(has_edges)


def _segment_reduce(
    ufunc: np.ufunc,
    values: np.ndarray,
    starts: np.ndarray,
    with_edges: np.ndarray | None,
    n_segments: int,
) -> np.ndarray:
    """``ufunc.reduceat`` over segments, zero for the edgeless ones.

    ``reduceat`` rejects a start index equal to the array length, which a
    trailing edgeless segment has, so edgeless segments are dropped from
    the call and filled afterwards.  A segment's end is the next start, so
    dropping the empty segments leaves every other segment unchanged.
    """
    if with_edges is None:
        return ufunc.reduceat(values, starts)
    out = np.zeros(n_segments, dtype=values.dtype)
    if with_edges.size:
        out[with_edges] = ufunc.reduceat(values, starts[with_edges])
    return out


class BeliefPropagation:
    """Sum-product decoder on a bipartite (check, variable) graph.

    Parameters
    ----------
    check_index, var_index:
        Edge lists: edge e connects check ``check_index[e]`` to variable
        ``var_index[e]``.
    n_checks, n_vars:
        Graph dimensions (checks/variables with no edges are allowed).
    var_order:
        Optional permutation of the (check, var)-sorted edges into variable
        order; each variable sums its messages in this order.  Defaults to
        the stable one, edge order within a variable.  Raptor passes its
        own, derived from its largest graph.
    """

    def __init__(
        self,
        check_index: np.ndarray,
        var_index: np.ndarray,
        n_checks: int,
        n_vars: int,
        var_order: np.ndarray | None = None,
    ):
        check_index = np.asarray(check_index, dtype=np.int64)
        var_index = np.asarray(var_index, dtype=np.int64)
        if check_index.shape != var_index.shape:
            raise ValueError("edge arrays must align")
        # A stable lexsort of edges already in (check, var) order is the
        # identity, so sorted input (Raptor's graphs) skips it.
        if not _is_sorted(check_index, var_index):
            if var_order is not None:
                raise ValueError("var_order needs edges in (check, var) "
                                 "order")
            order = np.lexsort((var_index, check_index))
            check_index, var_index = check_index[order], var_index[order]
        self.check_index = check_index
        self.var_index = var_index
        self.n_edges = self.check_index.size
        self.n_checks = n_checks
        self.n_vars = n_vars
        # reduceat boundaries for check-ordered sums
        self._check_starts = np.searchsorted(
            self.check_index, np.arange(n_checks)
        )
        self._checks_with_edges = _with_edges(self._check_starts, self.n_edges)
        # permutation into variable order and its boundaries
        self._to_var_order = (np.argsort(self.var_index, kind="stable")
                              if var_order is None else
                              np.asarray(var_order, dtype=np.int64))
        self._var_sorted_vars = self.var_index[self._to_var_order]
        self._var_starts = np.searchsorted(
            self._var_sorted_vars, np.arange(n_vars)
        )
        self._vars_with_edges = _with_edges(self._var_starts, self.n_edges)
        # the same boundaries with the edge count appended, for the C passes
        self._check_bounds = np.append(self._check_starts, self.n_edges)
        self._var_bounds = np.append(self._var_starts, self.n_edges)

    # -- helpers -----------------------------------------------------------

    def _check_reduce(self, ufunc: np.ufunc,
                      edge_values: np.ndarray) -> np.ndarray:
        """Per-check ``ufunc`` reduction of an edge array (check order);
        edgeless checks get zero."""
        return _segment_reduce(ufunc, edge_values, self._check_starts,
                               self._checks_with_edges, self.n_checks)

    def _check_sums(self, edge_values: np.ndarray) -> np.ndarray:
        """Per-check sums of an edge array (check order)."""
        return self._check_reduce(np.add, edge_values)

    def _var_sums(self, edge_values: np.ndarray) -> np.ndarray:
        """Per-variable sums of an edge array (check order in, var totals out)."""
        return _segment_reduce(np.add, edge_values[self._to_var_order],
                               self._var_starts, self._vars_with_edges,
                               self.n_vars)

    # -- main loop ---------------------------------------------------------

    def decode(
        self,
        channel_llrs: np.ndarray,
        iterations: int = 40,
        check_obs_llrs: np.ndarray | None = None,
        early_exit: bool = True,
    ) -> tuple[np.ndarray, bool]:
        """Run BP; returns (hard bits, all-parity-checks-satisfied).

        Takes the arguments of :meth:`posteriors`; the hard bit of a
        variable is 1 where its posterior LLR is negative.
        """
        posterior, ok = self.posteriors(
            channel_llrs, iterations, check_obs_llrs, early_exit)
        return (posterior < 0).astype(np.uint8), ok

    def posteriors(
        self,
        channel_llrs: np.ndarray,
        iterations: int = 40,
        check_obs_llrs: np.ndarray | None = None,
        early_exit: bool = True,
    ) -> tuple[np.ndarray, bool]:
        """Run BP; returns (posterior LLRs, all-parity-checks-satisfied).

        Parameters
        ----------
        channel_llrs: per-variable intrinsic LLRs (0 for unobserved vars).
        iterations: full sum-product iterations (paper: 40).
        check_obs_llrs: optional per-check observation LLRs (Raptor LT
            output nodes); +inf (the default) is a hard parity check.
        early_exit: stop when hard decisions satisfy all pure parity
            checks (only meaningful when every check is pure parity).
        """
        chan = np.clip(np.asarray(channel_llrs, dtype=np.float64),
                       -_LLR_CLIP, _LLR_CLIP)
        if chan.size != self.n_vars:
            raise ValueError("channel_llrs must have one entry per variable")
        ci = self.check_index
        pure_parity = check_obs_llrs is None
        obs_logmag = obs_neg = None
        if not pure_parity:
            obs = np.asarray(check_obs_llrs, dtype=np.float64)
            obs_t = np.tanh(np.clip(obs, -_LLR_CLIP, _LLR_CLIP) / 2.0)
            obs_t = np.clip(obs_t, -_TANH_CLIP, _TANH_CLIP)
            obs_logmag = np.log(np.maximum(np.abs(obs_t), _TANH_FLOOR))
            obs_logmag[~np.isfinite(obs) & (obs > 0)] = 0.0  # hard parity
            obs_neg = obs_t < 0
        stop_early = early_exit and pure_parity
        lib = ckernels.load()
        if lib is not None:
            return self._posteriors_compiled(lib, chan, iterations, obs_logmag,
                                         obs_neg, stop_early)
        if not pure_parity:
            # per-edge observation terms, fixed for the whole decode
            obs_logmag_e = obs_logmag[ci]
            obs_neg_e = obs_neg[ci]
        # Per-edge scratch reused by every iteration.  The arithmetic keeps
        # the textbook order; the one reshaped step is exact: the sign of a
        # product of +-1 factors is the parity of its negative factors.
        t = np.empty(self.n_edges)
        logmag = np.empty(self.n_edges)
        e_mag = np.empty(self.n_edges)
        c2v = np.empty(self.n_edges)

        v2c = chan[self.var_index]
        posterior = chan
        for _ in range(iterations):
            # ---- check update (sign/log-magnitude split) ----
            np.divide(v2c, 2.0, out=t)
            np.tanh(t, out=t)
            np.clip(t, -_TANH_CLIP, _TANH_CLIP, out=t)
            neg = t < 0
            np.abs(t, out=logmag)
            np.maximum(logmag, _TANH_FLOOR, out=logmag)
            np.log(logmag, out=logmag)
            total_logmag = self._check_sums(logmag)
            # sign of the product of the other factors of each check
            e_neg = self._check_reduce(np.logical_xor, neg)[ci]
            e_neg ^= neg
            np.subtract(total_logmag[ci], logmag, out=e_mag)
            if not pure_parity:
                e_neg ^= obs_neg_e
                e_mag += obs_logmag_e
            np.minimum(e_mag, 0.0, out=e_mag)
            np.exp(e_mag, out=e_mag)
            e_mag *= _SIGNS.take(e_neg.view(np.uint8))
            np.clip(e_mag, -_TANH_CLIP, _TANH_CLIP, out=e_mag)
            np.arctanh(e_mag, out=c2v)
            np.multiply(c2v, 2.0, out=c2v)
            np.clip(c2v, -_LLR_CLIP, _LLR_CLIP, out=c2v)

            # ---- variable update ----
            var_total = self._var_sums(c2v)
            posterior = chan + var_total
            v2c = posterior[self.var_index]
            v2c -= c2v
            np.clip(v2c, -_LLR_CLIP, _LLR_CLIP, out=v2c)

            if stop_early and self._hard_ok(posterior):
                return posterior, True
        return posterior, pure_parity and self._hard_ok(posterior)

    def _posteriors_compiled(self, lib, chan: np.ndarray, iterations: int,
                         obs_logmag: np.ndarray | None,
                         obs_neg: np.ndarray | None,
                         stop_early: bool) -> tuple[np.ndarray, bool]:
        """Sum-product on the exact C passes of :class:`ckernels.BpPasses`,
        bit for bit the numpy loop of :meth:`posteriors`: only ``tanh``,
        ``log``, ``exp`` and ``arctanh``, whose bits depend on numpy's
        dispatch level, stay numpy calls between the passes.  ``exp`` sees
        0.0 on the edges whose result is known to be +0.0 (below -746), and
        ``signed_clip`` signs that +0.0 in its place."""
        passes = ckernels.BpPasses(
            lib, self._check_bounds, self._var_bounds, self._to_var_order,
            self.var_index, chan, obs_logmag, obs_neg, tanh_clip=_TANH_CLIP,
            tanh_floor=_TANH_FLOOR, llr_clip=_LLR_CLIP)
        edge, msg, posterior = passes.edge, passes.msg, passes.posterior
        np.divide(chan[self.var_index], 2.0, out=edge)
        for _ in range(iterations):
            np.tanh(edge, out=edge)
            passes.magnitudes()
            np.log(edge, out=edge)
            passes.check_messages()
            np.exp(msg, out=msg)
            passes.signed_clip()
            np.arctanh(msg, out=msg)
            passes.variable_update()
            if stop_early and self._hard_ok(posterior):
                return posterior, True
        return posterior, obs_logmag is None and self._hard_ok(posterior)

    def _hard_ok(self, posterior: np.ndarray) -> bool:
        """Whether the hard decisions on ``posterior`` satisfy every check."""
        return self.syndrome_ok((posterior < 0).astype(np.uint8))

    def syndrome_ok(self, bits: np.ndarray) -> bool:
        """True when every check's variables XOR to zero."""
        parities = self._check_sums(
            bits[self.var_index].astype(np.float64)
        ) % 2
        return not parities.any()
