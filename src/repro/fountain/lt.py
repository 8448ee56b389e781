"""LT code: the rateless inner layer of Raptor (Luby 2002; paper §2, §8).

Each output symbol XORs a random subset of intermediate symbols: a degree
drawn from the RFC 5053 table, then that many distinct neighbours chosen
uniformly.  The neighbour stream is generated deterministically from a
shared seed so the transmitter and receiver construct identical graphs —
the fountain-code analogue of the spinal RNG being shared state (§3.2).
"""

from __future__ import annotations

import numpy as np

from repro.fountain.distributions import sample_rfc5053_degree

__all__ = ["LTStream"]


class LTStream:
    """Deterministic, index-addressable stream of LT output equations.

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
        self._neighbours: list[np.ndarray] = []

    def _extend_to(self, count: int) -> None:
        while len(self._neighbours) < count:
            degree = int(sample_rfc5053_degree(self._rng)[0])
            degree = min(degree, self.n_intermediate)
            nbrs = self._rng.choice(self.n_intermediate, size=degree,
                                    replace=False)
            self._neighbours.append(np.sort(nbrs).astype(np.int64))

    def neighbours(self, index: int) -> np.ndarray:
        """Intermediate indices XOR-ed into output symbol ``index``."""
        self._extend_to(index + 1)
        return self._neighbours[index]

    def neighbour_range(self, start: int, count: int) -> list[np.ndarray]:
        """Neighbour sets for outputs ``start .. start+count-1``."""
        self._extend_to(start + count)
        return self._neighbours[start:start + count]

    def encode_range(
        self, intermediate_bits: np.ndarray, start: int, count: int
    ) -> np.ndarray:
        """Output bits for a range of output indices."""
        intermediate_bits = np.asarray(intermediate_bits, dtype=np.uint8)
        if intermediate_bits.size != self.n_intermediate:
            raise ValueError("intermediate block size mismatch")
        if count == 0:
            return np.empty(0, dtype=np.uint8)
        neighbours = self.neighbour_range(start, count)
        # every output has degree >= 1, so no XOR segment is empty
        starts = np.cumsum([0] + [nbrs.size for nbrs in neighbours[:-1]])
        taps = intermediate_bits[np.concatenate(neighbours)]
        return np.bitwise_xor.reduceat(taps, starts) & 1
