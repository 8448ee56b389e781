"""Recursive systematic convolutional (RSC) constituent code.

An RSC with feedback polynomial ``d`` and feedforward polynomials ``n_j``
(octal, MSB = current input) computes, per input bit, one systematic bit
and one parity bit per feedforward polynomial.  Two of these (d=13,
n={15,17}) glued by an interleaver form the rate-1/5 turbo base code of
our Strider build (CDMA2000-style; see DESIGN.md on the substitution).

The trellis tables built here (next state, parity outputs per state/input)
drive both the encoder and the BCJR decoder.
"""

from __future__ import annotations

import numpy as np

__all__ = ["RscCode"]


def _poly_bits(octal: int, memory: int) -> list[int]:
    """Coefficient list [g0 .. g_memory] from an octal literal."""
    value = int(str(octal), 8)
    bits = [(value >> i) & 1 for i in range(memory, -1, -1)]
    return bits


class RscCode:
    """Rate-1/(1+len(feedforward)) recursive systematic convolutional code.

    Parameters
    ----------
    feedback: feedback polynomial in octal (default 13 -> 1 + D^2 + D^3).
    feedforward: feedforward polynomials in octal (default (15, 17)).
    """

    def __init__(self, feedback: int = 13, feedforward: tuple[int, ...] = (15, 17)):
        # memory = highest degree across polynomials
        all_polys = [feedback, *feedforward]
        self.memory = max(len(format(int(str(p), 8), "b")) for p in all_polys) - 1
        self.n_states = 1 << self.memory
        self.feedback = _poly_bits(feedback, self.memory)
        self.feedforward = [_poly_bits(p, self.memory) for p in feedforward]
        self.n_parity = len(feedforward)
        self._build_trellis()

    def _step(self, state: int, bit: int) -> tuple[int, list[int]]:
        """One encoder step: returns (next_state, parity bits)."""
        # state register holds [s1 .. s_m] (most recent first)
        regs = [(state >> (self.memory - 1 - i)) & 1 for i in range(self.memory)]
        # feedback input: a = u XOR sum(fb taps over registers)
        a = bit
        for i in range(self.memory):
            if self.feedback[i + 1]:
                a ^= regs[i]
        parities = []
        for poly in self.feedforward:
            p = poly[0] & a
            for i in range(self.memory):
                if poly[i + 1]:
                    p ^= regs[i]
            parities.append(p)
        next_state = (a << (self.memory - 1)) | (state >> 1)
        return next_state, parities

    def _build_trellis(self) -> None:
        ns = self.n_states
        self.next_state = np.zeros((ns, 2), dtype=np.int64)
        self.parity_out = np.zeros((ns, 2, self.n_parity), dtype=np.int64)
        #: input bit that returns the encoder toward state 0 (termination)
        self.term_bit = np.zeros(ns, dtype=np.int64)
        for s in range(ns):
            for u in (0, 1):
                nxt, pars = self._step(s, u)
                self.next_state[s, u] = nxt
                self.parity_out[s, u] = pars
            # the tail bit making the feedback input a = 0 halves the state
            for u in (0, 1):
                if self.next_state[s, u] == s >> 1:
                    self.term_bit[s] = u
                    break
        # list copies for the encoder, which walks them one bit at a time:
        # indexing a list costs a fraction of indexing an ndarray
        self._next_list = self.next_state.tolist()
        self._parity_list = self.parity_out.tolist()
        self._term_list = self.term_bit.tolist()

    def encode(self, bits: np.ndarray, terminate: bool = True
               ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Encode; returns (systematic_with_tail, parities, tail_bits).

        ``parities`` has shape (n_parity, len(systematic_with_tail)).
        When ``terminate`` is set, ``memory`` tail bits drive the encoder
        back to state 0 and are appended to the systematic stream.
        """
        sys_out = np.asarray(bits, dtype=np.int64).tolist()
        next_state, parity_out = self._next_list, self._parity_list
        state = 0
        par_out = []
        for b in sys_out:
            par_out.append(parity_out[state][b])
            state = next_state[state][b]
        tail = []
        if terminate:
            for _ in range(self.memory):
                u = self._term_list[state]
                par_out.append(parity_out[state][u])
                tail.append(u)
                state = next_state[state][u]
            if state != 0:
                raise AssertionError("termination failed to reach state 0")
        parities = np.array(par_out, dtype=np.uint8).T
        return (np.array(sys_out + tail, dtype=np.uint8), parities,
                np.array(tail, dtype=np.uint8))
