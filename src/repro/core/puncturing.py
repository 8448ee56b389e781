"""Puncturing schedules (paper §5, Figure 5-1).

Without puncturing, one symbol per spine value per pass caps the rate at
``k`` bits/symbol and quantises achievable rates to ``k/L``.  Puncturing
divides each pass into ``w`` subpasses; subpass ``j`` transmits only spine
positions in one residue class mod ``w``, chosen in bit-reversed order so
transmitted positions spread maximally across the message.  Decoding may
stop after any subpass, so the nominal peak rate becomes ``w * k``
bits/symbol (8k for the paper's 8-way schedule).

The *transmission plan* — the global order of (spine index, symbol slot)
pairs — lives here too so the encoder, the receiver's bookkeeping, and the
simulation engine all derive it from one place.  Slot ``t`` of spine ``i``
is the RNG symbol index used for that transmission: regular positions send
slot ``l`` in pass ``l``; the final spine position sends ``tail_symbols``
slots per pass (§4.4).  Every pass sends the same spine positions in the
same order, so :func:`subpass_layout` memoises where each subpass sits
within a pass: the encoder computes a pass once and takes its subpasses
from it.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

__all__ = [
    "PuncturingSchedule",
    "NoPuncturing",
    "StridedPuncturing",
    "make_schedule",
    "subpass_layout",
    "transmission_plan",
]


def _bit_reversed(width: int) -> list[int]:
    """Residue classes of 0..width-1 in bit-reversed order (width = 2^m)."""
    bits = width.bit_length() - 1
    out = []
    for v in range(width):
        r = 0
        for i in range(bits):
            if v & (1 << i):
                r |= 1 << (bits - 1 - i)
        out.append(r)
    return out


class PuncturingSchedule:
    """Which spine positions are transmitted in each subpass of a pass."""

    name = "base"
    subpasses_per_pass = 1

    def positions(self, n_spine: int, subpass: int) -> np.ndarray:
        """Ascending spine indices transmitted in subpass ``subpass``."""
        raise NotImplementedError


class NoPuncturing(PuncturingSchedule):
    """One subpass per pass: every spine value, in order (§3.3)."""

    name = "none"
    subpasses_per_pass = 1

    def positions(self, n_spine: int, subpass: int) -> np.ndarray:
        if subpass != 0:
            raise IndexError("NoPuncturing has a single subpass")
        return np.arange(n_spine, dtype=np.int64)


class StridedPuncturing(PuncturingSchedule):
    """w-way strided schedule: subpass j sends spine indices ≡ r_j (mod w).

    Residue classes are visited in bit-reversed order *anchored on the last
    spine position*: subpass 0 always covers the residue of spine n/k - 1.
    Two properties of Figure 5-1 hang on this anchoring: early subpasses
    spread transmitted positions maximally across the message, and the tail
    symbols of the final spine value (which let the decoder discriminate
    the end of the message, §4.4) arrive in the very first subpass — without
    them no prefix shorter than a full pass is ever decodable.
    """

    def __init__(self, ways: int):
        if ways < 2 or ways & (ways - 1):
            raise ValueError("ways must be a power of two >= 2")
        self.ways = ways
        self.name = f"{ways}-way"
        self.subpasses_per_pass = ways
        self._offsets = _bit_reversed(ways)

    def positions(self, n_spine: int, subpass: int) -> np.ndarray:
        if not 0 <= subpass < self.ways:
            raise IndexError(f"subpass must be in [0, {self.ways})")
        last_residue = (n_spine - 1) % self.ways
        residue = (last_residue - self._offsets[subpass]) % self.ways
        return np.arange(residue, n_spine, self.ways, dtype=np.int64)


@lru_cache(maxsize=16)
def make_schedule(name: str) -> PuncturingSchedule:
    """Schedule by name: 'none', '2-way', '4-way', '8-way'.

    One shared (immutable) schedule per name, so :func:`subpass_layout`'s
    memo serves every encoder of a schedule."""
    if name == "none":
        return NoPuncturing()
    if name.endswith("-way"):
        try:
            ways = int(name[:-4])
        except ValueError:
            ways = 0
        if ways >= 2:
            return StridedPuncturing(ways)
    raise ValueError(f"unknown puncturing schedule {name!r}")


def transmission_plan(
    schedule: PuncturingSchedule,
    n_spine: int,
    tail_symbols: int,
    first_subpass: int,
    n_subpasses: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Global transmission order for a range of subpasses.

    Returns ``(spine_indices, slots)`` for subpasses ``first_subpass ..
    first_subpass + n_subpasses - 1`` of the infinite rateless stream.
    Subpass numbering is global: pass ``l`` spans subpasses
    ``l*w .. (l+1)*w - 1``.  The final spine position transmits
    ``tail_symbols`` slots whenever its subpass comes up, so its slots in
    pass ``l`` are ``l*tail_symbols .. (l+1)*tail_symbols - 1``.
    """
    w = schedule.subpasses_per_pass
    spine_parts: list[np.ndarray] = []
    slot_parts: list[np.ndarray] = []
    for g in range(first_subpass, first_subpass + n_subpasses):
        pass_idx, sub_idx = divmod(g, w)
        pos = schedule.positions(n_spine, sub_idx)
        if pos.size == 0:
            continue
        is_last = pos == n_spine - 1
        regular = pos[~is_last]
        spine_parts.append(regular)
        slot_parts.append(np.full(regular.size, pass_idx, dtype=np.int64))
        if is_last.any():
            tail_slots = np.arange(
                pass_idx * tail_symbols, (pass_idx + 1) * tail_symbols,
                dtype=np.int64,
            )
            spine_parts.append(np.full(tail_slots.size, n_spine - 1, dtype=np.int64))
            slot_parts.append(tail_slots)
    if not spine_parts:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty.copy()
    return np.concatenate(spine_parts), np.concatenate(slot_parts)


@lru_cache(maxsize=1024)
def subpass_layout(
    schedule: PuncturingSchedule,
    n_spine: int,
    tail_symbols: int,
    subpass: int,
) -> tuple[np.ndarray, slice]:
    """Where subpass ``subpass`` (``0 <= subpass < w``) sits in every pass.

    Returns ``(spine_indices, columns)``: the subpass's spine indices, a
    read-only array shared by every caller, and the slice of a whole pass's
    :func:`transmission_plan` (``w`` subpasses from ``l * w``) that holds
    it.  Both are the same in every pass ``l``; only the slots differ.
    Memoised per schedule and shape, never per global subpass.
    """
    w = schedule.subpasses_per_pass
    if not 0 <= subpass < w:
        raise IndexError(f"subpass must be in [0, {w})")
    before, _ = transmission_plan(schedule, n_spine, tail_symbols, 0, subpass)
    spine_indices, _ = transmission_plan(
        schedule, n_spine, tail_symbols, subpass, 1)
    start = before.size
    spine_indices.setflags(write=False)
    return spine_indices, slice(start, start + spine_indices.size)
