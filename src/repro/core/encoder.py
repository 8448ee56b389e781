"""Rateless spinal encoder (paper §3).

Encoding is two layered steps: build the spine (one hash per k message
bits), then draw as many symbols as the channel requires from the per-spine
RNGs, in the order given by the puncturing schedule's transmission plan.
One RNG word supplies both the I and Q coordinate values for a symbol
(``c`` bits each); in BSC mode one word supplies a single bit.

The encoder's output is a pure function of (spine value, slot): symbol
slot ``t`` of spine ``i`` is always ``RNG(s_i, t)``, so any subrange of the
infinite stream can be (re)generated on demand — exactly the property §7.1
calls out for handling lost frames.  Since every pass sends the same
positions (§5), that function is memoised per pass: an encoder computes
pass ``l`` once, when a subpass of it is first requested, and each
subpass is then a column take from the cached pass.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.params import SpinalParams
from repro.core.puncturing import subpass_layout, transmission_plan
from repro.core.spine import spine_states_batch

__all__ = ["SymbolBlock", "SpinalEncoder", "BatchSpinalEncoder"]


@dataclass
class SymbolBlock:
    """A contiguous chunk of the rateless symbol stream.

    ``values`` is complex128 for I/Q constellations or uint8 for BSC bits,
    shaped ``(block_length,)`` for one message or ``(M, block_length)``
    for M aligned messages; ``spine_indices``/``slots`` identify which RNG
    draw produced each entry (the receiver needs them to replay candidate
    encodings) and are shared by every message.  Blocks from an encoder
    hand out read-only ``spine_indices`` and ``slots``, which may be
    shared with its other blocks.
    """

    spine_indices: np.ndarray
    slots: np.ndarray
    values: np.ndarray

    def __len__(self) -> int:
        return self.spine_indices.size


class BatchSpinalEncoder:
    """Encode M equal-length messages with one set of vectorised calls.

    The spine construction, RNG draws and constellation mapping all
    broadcast over a leading message axis, so each row's symbols depend
    only on its own message.  Pass ``l`` is encoded once, for every
    message, the first time a subpass of it is requested, and kept for the
    encoder's life; each block is then cut from the cached passes.

    Parameters
    ----------
    params: code parameters (shared with the decoder).
    messages: uint8 array of shape (M, n) with n divisible by k.
    """

    def __init__(self, params: SpinalParams, messages: np.ndarray):
        messages = np.atleast_2d(np.asarray(messages, dtype=np.uint8))
        self.params = params
        self.n_messages, self.n_bits = messages.shape
        self.n_spine = params.n_spine(self.n_bits)
        self.messages = messages
        self.spines = spine_states_batch(
            params.hash_fn, params.k, messages, params.s0
        )
        self._rng = params.make_rng()
        self._mapping = params.make_mapping()
        self._schedule = params.make_schedule()
        # pass index -> (slots, values) of the whole pass
        self._passes: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    @property
    def subpasses_per_pass(self) -> int:
        return self._schedule.subpasses_per_pass

    def symbols_per_pass(self) -> int:
        """Channel uses consumed by one full pass (incl. tail symbols)."""
        return self.n_spine - 1 + self.params.tail_symbols

    def symbols_at(
        self,
        spine_indices: np.ndarray,
        slots: np.ndarray,
        rows: np.ndarray | None = None,
    ) -> np.ndarray:
        """Channel symbols for explicit (spine, slot) pairs, per message.

        Returns shape ``(len(rows), len(slots))`` (all messages when
        ``rows`` is None): complex I/Q values for AWGN-style mappings, bits
        (uint8) for BSC.  Encoding is deterministic per message, so
        restricting to a row subset produces exactly those rows of the
        full-batch result.
        """
        spines = self.spines if rows is None else self.spines[rows]
        seeds = spines[:, np.asarray(spine_indices, dtype=np.intp)]
        slots = np.asarray(slots, dtype=np.uint32)[None, :]
        if self.params.is_bsc:
            return self._rng.bits(seeds, slots)
        i_vals, q_vals = self._rng.iq_values(seeds, slots)
        return self._mapping.map(i_vals) + 1j * self._mapping.map(q_vals)

    def _pass(self, pass_idx: int) -> tuple[np.ndarray, np.ndarray]:
        """``(slots, values)`` of every message's whole pass ``pass_idx``
        (read-only slots), encoded on first request."""
        cached = self._passes.get(pass_idx)
        if cached is None:
            w = self.subpasses_per_pass
            spine_idx, slots = transmission_plan(
                self._schedule, self.n_spine, self.params.tail_symbols,
                pass_idx * w, w,
            )
            slots.setflags(write=False)
            cached = self._passes[pass_idx] = (
                slots, self.symbols_at(spine_idx, slots))
        return cached

    def generate_batch(
        self,
        first_subpass: int,
        n_subpasses: int = 1,
        rows: np.ndarray | None = None,
    ) -> SymbolBlock:
        """Generate a range of (global) subpasses for every message in rows.

        Late subpasses of a cohort are usually driven by a few undecoded
        stragglers; ``rows`` returns only their symbols.  Each subpass is a
        column take from its cached pass, and a range crossing passes joins
        them; ``spine_indices`` and ``slots`` are read-only.
        """
        if first_subpass < 0 or n_subpasses < 1:
            raise ValueError("need first_subpass >= 0 and n_subpasses >= 1")
        w = self.subpasses_per_pass
        rows = slice(None) if rows is None else rows
        spine_parts, slot_parts, value_parts = [], [], []
        for g in range(first_subpass, first_subpass + n_subpasses):
            pass_idx, sub = divmod(g, w)
            spine_idx, columns = subpass_layout(
                self._schedule, self.n_spine, self.params.tail_symbols, sub)
            slots, values = self._pass(pass_idx)
            spine_parts.append(spine_idx)
            slot_parts.append(slots[columns])
            value_parts.append(values[rows, columns])
        return SymbolBlock(_joined(spine_parts), _joined(slot_parts),
                           np.concatenate(value_parts, axis=1))


def _joined(parts: list[np.ndarray]) -> np.ndarray:
    """Read-only concatenation of read-only arrays (the one part itself)."""
    if len(parts) == 1:
        return parts[0]
    out = np.concatenate(parts)
    out.setflags(write=False)
    return out


class SpinalEncoder(BatchSpinalEncoder):
    """Encode one message; produce any number of symbols on demand.

    The one-row :class:`BatchSpinalEncoder`: ``spine`` is its row of
    ``spines`` and :meth:`generate` returns 1-D symbol blocks
    (``symbols_at`` keeps the batch shape, ``(1, len(slots))``).

    Parameters
    ----------
    params: code parameters (shared with the decoder).
    message_bits: uint8 array of n message bits, n divisible by k.
    """

    def __init__(self, params: SpinalParams, message_bits: np.ndarray):
        super().__init__(params, np.asarray(message_bits, np.uint8).reshape(1, -1))
        self.message_bits = self.messages[0]
        self.spine = self.spines[0]

    def generate(self, first_subpass: int, n_subpasses: int = 1) -> SymbolBlock:
        """Generate the symbols of a range of (global) subpasses."""
        block = self.generate_batch(first_subpass, n_subpasses)
        return SymbolBlock(block.spine_indices, block.slots, block.values[0])

    def generate_passes(self, n_passes: int) -> SymbolBlock:
        """Generate ``n_passes`` complete passes starting from the stream head."""
        return self.generate(0, n_passes * self.subpasses_per_pass)
