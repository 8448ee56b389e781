"""LT code: the rateless inner layer of Raptor (Luby 2002; paper §2, §8).

Each output symbol XORs a random subset of intermediate symbols: a degree
drawn from the RFC 5053 table, then that many distinct neighbours chosen
uniformly.  The neighbour stream is generated deterministically from a
shared seed so the transmitter and receiver construct identical graphs —
the fountain-code analogue of the spinal RNG being shared state (§3.2).
"""

from __future__ import annotations

import numpy as np

from repro.backend import ckernels
from repro.fountain.distributions import (
    _DEGREE_VALUES,
    _THRESHOLDS,
    sample_rfc5053_degree,
)

__all__ = ["LTStream"]


class LTStream:
    """Deterministic, index-addressable stream of LT output equations.

    Neighbour sets are stored sorted, as CSR: output i's are
    ``flat[offsets[i]:offsets[i + 1]]``.

    Parameters
    ----------
    n_intermediate: number of intermediate symbols the LT code covers.
    seed: shared seed; both ends derive the same neighbour sets.
    """

    def __init__(self, n_intermediate: int, seed: int):
        if n_intermediate < 2:
            raise ValueError("need at least 2 intermediate symbols")
        self.n_intermediate = n_intermediate
        self.seed = seed
        self._rng = np.random.default_rng(seed)
        self._offsets = np.zeros(1, dtype=np.int64)
        self._flat = np.empty(0, dtype=np.int64)
        self._floyd = ckernels.floyd_choice(
            n_intermediate, min(int(_DEGREE_VALUES.max()), n_intermediate))

    def _draw(self, count: int) -> tuple[np.ndarray, np.ndarray]:
        """The next ``count`` outputs' neighbour sets as CSR, on the C
        kernel when it is available, else by numpy's own calls."""
        lib = ckernels.load() if self._floyd else None
        if lib is not None:
            return ckernels.lt_draw(lib, self._rng, self.n_intermediate,
                                    count, _THRESHOLDS, _DEGREE_VALUES)
        sets = []
        for _ in range(count):
            degree = int(sample_rfc5053_degree(self._rng)[0])
            degree = min(degree, self.n_intermediate)
            sets.append(np.sort(self._rng.choice(
                self.n_intermediate, size=degree, replace=False)))
        offsets = np.cumsum([0] + [nbrs.size for nbrs in sets])
        return offsets, np.concatenate(sets).astype(np.int64)

    def _extend_to(self, count: int) -> None:
        have = self._offsets.size - 1
        if count > have:
            offsets, flat = self._draw(count - have)
            self._offsets = np.concatenate(
                [self._offsets, self._offsets[-1] + offsets[1:]])
            self._flat = np.concatenate([self._flat, flat])

    def neighbours(self, index: int) -> np.ndarray:
        """Intermediate indices XOR-ed into output symbol ``index``."""
        self._extend_to(index + 1)
        return self._flat[self._offsets[index]:self._offsets[index + 1]]

    def neighbour_range(self, start: int,
                        count: int) -> tuple[np.ndarray, np.ndarray]:
        """Neighbour sets of outputs ``start .. start+count-1`` as CSR
        ``(offsets, flat)``, with ``offsets[0] == 0``."""
        self._extend_to(start + count)
        offsets = self._offsets[start:start + count + 1]
        return offsets - offsets[0], self._flat[offsets[0]:offsets[-1]]

    def encode_range(
        self, intermediate_bits: np.ndarray, start: int, count: int
    ) -> np.ndarray:
        """Output bits for a range of output indices."""
        intermediate_bits = np.asarray(intermediate_bits, dtype=np.uint8)
        if intermediate_bits.size != self.n_intermediate:
            raise ValueError("intermediate block size mismatch")
        if count == 0:
            return np.empty(0, dtype=np.uint8)
        offsets, flat = self.neighbour_range(start, count)
        # every output has degree >= 1, so no XOR segment is empty
        return np.bitwise_xor.reduceat(intermediate_bits[flat],
                                       offsets[:-1]) & 1
