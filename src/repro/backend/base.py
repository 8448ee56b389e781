"""The array-kernel backend seam: what every backend must provide.

A :class:`Backend` bundles the three hot kernel families of the decode
path — the u32 spine hashes, the branch-cost inner loops, and beam
selection — behind one explicit object, so the decoder binds a backend
once at construction and the rest of the system never cares how the
arithmetic is executed.  The decoder has one search over a cohort of M
messages (a single message is ``M = 1``), so each kernel has one shape
to implement.

The contract is **bit-identical output**: every backend must reproduce
the numpy reference implementation exactly — same uint32 hash words, same
float64 branch costs (same operation order, so the same IEEE rounding),
and the same selected beam indices in the same order (``argpartition``
introselect order is part of the decode contract, which is why backends
share the reference selection kernel rather than approximating it).  The
reference is the numpy bodies of :mod:`repro.backend.numpy_backend` and
:mod:`repro.core.hashes`; the default backend itself runs compiled C
kernels where they build and falls back on those bodies.
``tests/test_backend.py`` enforces this with golden hash vectors and a
cross-backend decode equivalence matrix, on both paths of the default
backend; the experiment store's byte-identical files across backends are
the end-to-end corollary.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

__all__ = ["Backend", "BackendFallbackWarning", "HashFn"]


class BackendFallbackWarning(RuntimeWarning):
    """A requested backend is unavailable and a substitute was returned.

    Emitted exactly once per process (e.g. ``numba`` requested but not
    installed, numpy returned) so batch sweeps don't drown in repeats.
    """

#: ``h(state, data) -> word``: broadcasting uint32 ndarray hash.
HashFn = Callable[[np.ndarray, np.ndarray], np.ndarray]


@dataclass(frozen=True)
class Backend:
    """One array-kernel implementation of the decode hot path.

    Attributes
    ----------
    name:
        Registry name (``"numpy"``, ``"numba"``); recorded in ``--metrics``
        artifacts and ``BENCH_*`` payloads so perf numbers are attributable
        to the backend that produced them.  ``numpy`` runs the compiled
        kernels where they built, so whether they did is not in the name.
    hash_fns:
        The spine hash kernels by registry name (``one_at_a_time``,
        ``lookup3``, ``salsa20``), each with the broadcasting
        ``h(state: u32, data: u32) -> u32`` signature of
        :mod:`repro.core.hashes`.
    branch_costs_batch:
        The branch-cost kernel: ``(states (M, n), slots (s,), values
        (M, s), csi (M, s) | None, *, hash_name, levels, c, is_bsc) ->
        costs (M, n)``, one row per message of a cohort (one message is
        ``M = 1``).  Sums, over the received symbols of one spine
        position, the squared distance (AWGN; coherent ``|y - h x|^2``
        when CSI is present) or Hamming distance (BSC) between each
        candidate state's symbols and the received values.  Owns its
        ``repro.obs`` kernel timing.
    select_beams:
        ``(group_costs (M, n), n_beam) -> indices (M, n_keep)`` beam
        pruning per row; the surviving index *order* is part of the
        decode contract.
    """

    name: str
    hash_fns: Mapping[str, HashFn]
    branch_costs_batch: Callable[..., np.ndarray]
    select_beams: Callable[[np.ndarray, int], np.ndarray]
