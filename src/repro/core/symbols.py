"""Receiver-side symbol storage (paper §4.2, §7.1).

"The decoder stores the received symbols, and uses them to rebuild the tree
in each run" — this container is that store.  Received values are grouped by
spine position, keeping the slot index of each symbol (so the decoder can
replay the exact RNG draws) and, for fading channels, the per-symbol channel
coefficient when the decoder is given fading information (§8.3).

:class:`BatchReceivedSymbols` holds M messages that share one transmission
plan (same spine indices and slots per subpass, e.g. a Monte-Carlo cohort
over i.i.d. channels).  It is columnar: per spine position, preallocated
slot columns shared by every message and ``(n_spine, M, capacity)`` value
(and optional CSI) planes, plus a fill count.  ``add_block`` is a
vectorised group-by-spine scatter (a stable ``argsort`` only for a block
out of spine order, then one fancy assignment, no Python loop over
symbols), and ``prefix`` hands out O(1) views of any row subset at any
earlier fill state.  That is what lets a
rateless session keep one incremental store across all of its decode
attempts, and what the bubble decoder reads: :meth:`BatchReceivedView.planes`
hands a search every position's ``(rows, slots)`` panel at once.
CSI is all-or-nothing: it must arrive with the first block and keep
arriving.

:class:`ReceivedSymbols` is the one-message form: a one-row batch store
that takes and returns 1-D blocks.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

__all__ = ["ReceivedSymbols", "BatchReceivedSymbols"]

_INITIAL_CAPACITY = 4


def _scatter_layout(
    spine_indices: np.ndarray, n_spine: int, counts: np.ndarray
) -> tuple[np.ndarray | None, np.ndarray, np.ndarray, np.ndarray]:
    """Column assignment for a block of incoming symbols.

    Returns ``(order, rows, cols, added)``: storing symbol ``order[j]`` at
    ``[rows[j], cols[j]]`` appends every symbol to its spine position in
    arrival order (the stable sort keeps within-position order), after which
    ``counts += added`` (the symbols per position) advances the fill counts.
    ``order`` is None when the block is already in spine order — the
    common case, since ``transmission_plan`` emits each subpass's positions
    ascending — so callers can skip the gather entirely.  Everything but
    ``cols`` depends on the block's positions alone, which repeat from
    pass to pass, so it comes from :func:`_block_layout`'s memo.
    """
    rows = np.asarray(spine_indices, dtype=np.intp).ravel()
    order, rows, ranks, added = _block_layout(rows.tobytes(), n_spine)
    return order, rows, counts[rows] + ranks, added


@lru_cache(maxsize=256)
def _block_layout(
    positions: bytes, n_spine: int
) -> tuple[np.ndarray | None, np.ndarray, np.ndarray, np.ndarray]:
    """``(order, rows, ranks, added)`` of a block of spine positions (intp
    bytes), all read-only: the stable sort into spine order (None when the
    block ascends, which skips the sort), the sorted positions, each
    symbol's rank among the block's symbols at its position, and the
    symbols per position.  Raises ``IndexError`` for a position outside
    ``[0, n_spine)``."""
    rows = np.frombuffer(positions, dtype=np.intp)
    order = None
    if rows.size > 1 and np.diff(rows).min() < 0:
        order = rows.argsort(kind="stable")
        rows = rows[order]
    if rows.size and (rows[0] < 0 or rows[-1] >= n_spine):
        bad = rows[0] if rows[0] < 0 else rows[-1]
        raise IndexError(f"spine index {bad} out of range")
    # rows ascend, so each symbol's first equal row (searchsorted's left
    # insertion point) starts its position's run
    ranks = np.arange(rows.size) - rows.searchsorted(rows)
    added = np.bincount(rows, minlength=n_spine)
    for a in (order, rows, ranks, added):
        if a is not None:
            a.setflags(write=False)
    return order, rows, ranks, added


def _outside(index: np.ndarray, n: int) -> bool:
    """Whether an entry of the intp array ``index`` lies outside ``[0, n)``,
    in one reduction: a negative entry read as unsigned exceeds any n."""
    return bool(index.size) and index.view(np.uintp).max() >= n


def _grown(arr: np.ndarray, capacity: int) -> np.ndarray:
    """Copy of ``arr`` with its last axis grown to ``capacity`` columns."""
    shape = arr.shape[:-1] + (capacity,)
    out = np.zeros(shape, dtype=arr.dtype)
    out[..., : arr.shape[-1]] = arr
    return out


class BatchReceivedSymbols:
    """Columnar store for M messages sharing one transmission plan.

    All messages receive symbols for the same (spine, slot) layout — the
    i.i.d.-channel Monte-Carlo setting — so slots are stored once and values
    carry a leading message axis.  Rows (messages) may stop receiving at
    different subpasses (a decoded message leaves the cohort); a
    :meth:`prefix` view pairs a row subset with a per-spine count snapshot,
    and only columns below that snapshot are ever read for those rows.
    """

    def __init__(self, n_spine: int, n_messages: int, complex_valued: bool = True):
        self.n_spine = n_spine
        self.n_messages = n_messages
        self.complex_valued = complex_valued
        self._capacity = _INITIAL_CAPACITY
        self._slots = np.zeros((n_spine, self._capacity), dtype=np.uint32)
        self._values = np.zeros(
            (n_spine, n_messages, self._capacity),
            dtype=np.complex128 if complex_valued else np.float64,
        )
        self._csi: np.ndarray | None = None
        self._counts = np.zeros(n_spine, dtype=np.int64)

    @property
    def has_csi(self) -> bool:
        return self._csi is not None

    def _ensure_capacity(self, needed: int) -> None:
        if needed <= self._capacity:
            return
        capacity = self._capacity
        while capacity < needed:
            capacity *= 2
        self._slots = _grown(self._slots, capacity)
        self._values = _grown(self._values, capacity)
        if self._csi is not None:
            self._csi = _grown(self._csi, capacity)
        self._capacity = capacity

    def add_block(
        self,
        spine_indices: np.ndarray,
        slots: np.ndarray,
        values: np.ndarray,
        rows: np.ndarray | None = None,
        csi: np.ndarray | None = None,
    ) -> None:
        """Scatter one subpass block for the messages in ``rows``.

        ``values`` (and ``csi`` when given) have shape
        ``(len(rows), block_length)``.  Advances the shared layout counts
        once, regardless of how many rows are active.
        """
        spine_indices = np.asarray(spine_indices)
        slots = np.asarray(slots)
        values = np.asarray(values)
        if rows is None:
            rows_idx = np.arange(self.n_messages, dtype=np.intp)
        else:
            rows_idx = np.asarray(rows, dtype=np.intp)
        if slots.size != spine_indices.size:
            raise ValueError("spine_indices and slots must align")
        if values.shape != (rows_idx.size, spine_indices.size):
            raise ValueError("values must have shape (n_rows, block_length)")
        if csi is not None:
            csi = np.asarray(csi)
            if csi.shape != values.shape:
                raise ValueError("csi must align with values")
            if self._csi is None and self._counts.any():
                # Earlier symbols have no coefficient; zero-filling them
                # would silently corrupt branch costs.
                raise ValueError(
                    "store already holds CSI-less symbols; CSI must be "
                    "provided from the first block"
                )
            if self._csi is None:
                self._csi = np.zeros(
                    (self.n_spine, self.n_messages, self._capacity),
                    dtype=np.complex128,
                )
        elif self._csi is not None and spine_indices.size:
            raise ValueError("store already holds CSI; blocks must keep providing it")
        if spine_indices.size == 0:
            return
        order, srows, cols, added = _scatter_layout(
            spine_indices, self.n_spine, self._counts
        )
        self._ensure_capacity(int(cols.max()) + 1)
        slots = slots.ravel()
        if order is not None:
            slots, values = slots[order], values[:, order]
        self._slots[srows, cols] = slots
        self._values[srows[None, :], rows_idx[:, None], cols[None, :]] = values
        if csi is not None:
            if order is not None:
                csi = csi[:, order]
            self._csi[srows[None, :], rows_idx[:, None], cols[None, :]] = csi
        self._counts += added

    def checkpoint(self) -> np.ndarray:
        """Snapshot of the per-spine fill counts (give to :meth:`prefix`)."""
        return self._counts.copy()

    def prefix(self, rows: np.ndarray, counts: np.ndarray) -> "BatchReceivedView":
        """Panel view: message subset ``rows`` at fill state ``counts``.

        The view shares the underlying arrays; it stays valid as more blocks
        are appended (appends only touch columns past the checkpoint).
        ``rows`` must be a 1-D integer array of the store's rows, each in
        ``[0, n_messages)``; a negative row would otherwise index from the
        end, and a float or boolean one would be truncated to an index.
        """
        counts = np.asarray(counts, dtype=np.int64)
        if counts.shape != (self.n_spine,) or (counts > self._counts).any():
            raise ValueError("checkpoint does not match this store")
        rows = np.asarray(rows)
        if rows.dtype.kind in "iu" and rows.ndim == 1:
            rows = rows.astype(np.intp, copy=False)
        if rows.dtype != np.intp or rows.ndim != 1 or _outside(
                rows, self.n_messages):
            raise ValueError(f"rows must be a 1-D integer set in [0, "
                             f"{self.n_messages})")
        return BatchReceivedView(self, rows, counts)


_ONE_ROW = np.zeros(1, dtype=np.intp)


class ReceivedSymbols(BatchReceivedSymbols):
    """Per-spine-position store of one message's (slot, value[, csi])
    observations: a one-row :class:`BatchReceivedSymbols` with 1-D blocks."""

    def __init__(self, n_spine: int, complex_valued: bool = True):
        super().__init__(n_spine, 1, complex_valued)

    def __len__(self) -> int:
        return self.n_symbols

    @property
    def n_symbols(self) -> int:
        return int(self._counts.sum())

    def add_block(
        self,
        spine_indices: np.ndarray,
        slots: np.ndarray,
        values: np.ndarray,
        csi: np.ndarray | None = None,
    ) -> None:
        """Record a received symbol block (one or more subpasses)."""
        super().add_block(spine_indices, slots, np.reshape(values, (1, -1)),
                          csi=None if csi is None else np.reshape(csi, (1, -1)))

    def for_spine(self, i: int) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
        """(slots, values, csi-or-None) array views for spine position ``i``."""
        c = self._counts[i]
        csi = None if self._csi is None else self._csi[i, 0, :c]
        return self._slots[i, :c], self._values[i, 0, :c], csi

    def prefix(self, counts: np.ndarray) -> "BatchReceivedView":
        """O(1) one-row view of the store as it was at a :meth:`checkpoint`."""
        return super().prefix(_ONE_ROW, counts)


class BatchReceivedView:
    """What :class:`repro.core.decoder.BubbleDecoder` searches over."""

    def __init__(
        self, store: BatchReceivedSymbols, rows: np.ndarray, counts: np.ndarray
    ):
        self._store = store
        self.rows = rows
        self._counts = counts
        self.n_spine = store.n_spine
        self.n_rows = rows.size
        self.complex_valued = store.complex_valued
        self.n_symbols = int(counts.sum())  # per message

    @property
    def has_csi(self) -> bool:
        return self._store.has_csi

    def _row_index(self) -> slice | np.ndarray:
        """The view's rows as an index into the store's message axis.
        Rows forming one ascending run (a whole cohort, a single message)
        are a basic slice, so indexing gives a view instead of a copy."""
        rows = self.rows
        lo = int(rows[0]) if rows.size else 0
        if rows.size < 2 or bool((np.diff(rows) == 1).all()):
            return slice(lo, lo + rows.size)
        return rows

    def planes(
        self,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray | None, np.ndarray]:
        """Everything a search reads, for all spine positions at once:
        ``(slots, values, csi-or-None, counts)``, with the store's slot
        plane ``(n_spine, capacity)``, this view's rows of its value and
        CSI planes ``(n_spine, n_rows, capacity)`` and the view's
        per-position symbol counts.  Values and CSI are views of the store
        when the rows form one run and copies otherwise.  Raises
        ``ValueError`` unless ``rows`` is a 1-D intp array of the store's
        rows."""
        rows, store = self.rows, self._store
        if not (isinstance(rows, np.ndarray) and rows.dtype == np.intp
                and rows.ndim == 1):
            raise ValueError("a view's rows must be a 1-D intp array")
        if _outside(rows, store.n_messages):
            raise ValueError(
                f"a view's rows must lie in [0, {store.n_messages})")
        index = self._row_index()
        csi = None if store._csi is None else store._csi[:, index]
        return store._slots, store._values[:, index], csi, self._counts

    def for_spine(
        self, i: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
        """(slots, values, csi-or-None); values/csi shaped ``(n_rows, n_slots)``."""
        c = self._counts[i]
        store, index = self._store, self._row_index()
        csi = None if store._csi is None else store._csi[i, index, :c]
        return store._slots[i, :c], store._values[i, index, :c], csi
