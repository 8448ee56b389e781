"""Dense GF(2) linear algebra for code construction.

Small and explicit: matrices are uint8 arrays of 0/1.  Row reduction is
O(m n^2 / 64) in practice thanks to vectorised XOR of whole rows; n = 648
codes reduce in milliseconds, which is plenty for construction-time work
(encoding afterwards is a single matrix product per block).
"""

from __future__ import annotations

import numpy as np

__all__ = ["gf2_rref", "gf2_matmul", "generator_from_parity"]


def gf2_rref(matrix: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """Reduced row-echelon form over GF(2); returns (R, pivot_columns)."""
    a = (np.asarray(matrix, dtype=np.uint8) & 1).copy()
    m, n = a.shape
    pivots: list[int] = []
    row = 0
    for col in range(n):
        if row >= m:
            break
        hits = np.flatnonzero(a[row:, col]) + row
        if hits.size == 0:
            continue
        pivot = hits[0]
        if pivot != row:
            a[[row, pivot]] = a[[pivot, row]]
        # eliminate this column from every other row
        others = np.flatnonzero(a[:, col])
        others = others[others != row]
        a[others] ^= a[row]
        pivots.append(col)
        row += 1
    return a, pivots


def gf2_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix product over GF(2) (uint8 in/out)."""
    a = np.asarray(a, dtype=np.uint8)
    b = np.asarray(b, dtype=np.uint8)
    return (a.astype(np.uint32) @ b.astype(np.uint32) & 1).astype(np.uint8)


def generator_from_parity(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Systematic-style generator for a parity-check matrix.

    Returns ``(G, info_positions)``: ``G`` is (k, n) with ``H G^T = 0`` and
    ``codeword[info_positions] == message`` for every message, so encoding
    is ``message @ G mod 2`` and message recovery from a decoded codeword is
    a gather.  Works for any H (rank deficiency increases k accordingly).
    """
    h = np.asarray(h, dtype=np.uint8) & 1
    m, n = h.shape
    r, pivots = gf2_rref(h)
    rank = len(pivots)
    pivot_set = set(pivots)
    info_positions = np.array(
        [c for c in range(n) if c not in pivot_set], dtype=np.intp
    )
    k = n - rank
    if info_positions.size != k:
        raise AssertionError("free-column bookkeeping failed")
    g = np.zeros((k, n), dtype=np.uint8)
    for idx, col in enumerate(info_positions):
        g[idx, col] = 1
        # Each pivot row of R reads: x[pivot] + sum(free cols in row) = 0.
        for row_idx, pivot_col in enumerate(pivots):
            if r[row_idx, col]:
                g[idx, pivot_col] = 1
    # Validate H G^T = 0 (construction-time cost only).
    if gf2_matmul(h, g.T).any():
        raise AssertionError("generator does not satisfy parity checks")
    return g, info_positions
