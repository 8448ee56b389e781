"""Outer LDPC precode for Raptor (paper §8: "an outer LDPC code as
suggested by Shokrollahi with ... outer code rate 0.95 with a regular left
degree of 4 and a binomial right degree").

Systematic construction: intermediate block = [message | parity].  Each
message bit joins exactly 4 of the ``p`` parity checks chosen uniformly
(so check degrees are binomial), and parity bit j is the XOR of the message
bits on check j — encoding is one sparse accumulation, and each check row
{message bits...} ∪ {parity_j} is a pure parity constraint for BP.
"""

from __future__ import annotations

import numpy as np

from repro.backend import ckernels

__all__ = ["LdpcPrecode"]


class LdpcPrecode:
    """Rate-0.95-style systematic LDPC precode with left degree 4."""

    def __init__(
        self,
        k: int,
        rate: float = 0.95,
        left_degree: int = 4,
        seed: int = 7,
    ):
        if not 0.5 < rate < 1.0:
            raise ValueError("precode rate must be in (0.5, 1)")
        self.k = k
        self.left_degree = left_degree
        self.n_intermediate = int(np.ceil(k / rate))
        self.n_parity = self.n_intermediate - k
        if self.n_parity < left_degree:
            raise ValueError("message too short for this precode rate")
        rng = np.random.default_rng(seed)
        # message bit i participates in checks _assignments[i]
        lib = (ckernels.load()
               if ckernels.floyd_choice(self.n_parity, left_degree) else None)
        if lib is not None:
            self._assignments = ckernels.choice_draw(
                lib, rng, self.n_parity, left_degree, k)
        else:
            self._assignments = np.empty((k, left_degree), dtype=np.int64)
            for i in range(k):
                self._assignments[i] = rng.choice(
                    self.n_parity, size=left_degree, replace=False
                )

    @property
    def rate(self) -> float:
        return self.k / self.n_intermediate

    def encode(self, message_bits: np.ndarray) -> np.ndarray:
        """Message (k bits) -> intermediate block (k + p bits)."""
        message_bits = np.asarray(message_bits, dtype=np.uint8)
        if message_bits.size != self.k:
            raise ValueError(f"message must have {self.k} bits")
        parity = np.zeros(self.n_parity, dtype=np.int64)
        active = np.flatnonzero(message_bits)
        np.add.at(parity, self._assignments[active].ravel(), 1)
        parity &= 1
        return np.concatenate([message_bits, parity.astype(np.uint8)])

    def check_edges(self) -> tuple[np.ndarray, np.ndarray]:
        """(check_index, var_index) edges of the parity constraints.

        Check j covers its assigned message bits plus parity variable
        ``k + j``; variables are indexed over the intermediate block.
        """
        checks = [self._assignments.ravel(),
                  np.arange(self.n_parity, dtype=np.int64)]
        vars_ = [np.repeat(np.arange(self.k, dtype=np.int64), self.left_degree),
                 np.arange(self.k, self.n_intermediate, dtype=np.int64)]
        return np.concatenate(checks), np.concatenate(vars_)

    def satisfied(self, intermediate_bits: np.ndarray) -> bool:
        """True when an intermediate block obeys all parity constraints."""
        intermediate_bits = np.asarray(intermediate_bits, dtype=np.uint8)
        return bool(
            np.array_equal(self.encode(intermediate_bits[: self.k]),
                           intermediate_bits)
        )
