"""Rateless sessions: encoder -> channel -> bubble decoder.

The paper's receiver attempts a decode after (roughly) every punctured
subpass and stops at the first success (§5, §8.4).  Replaying a decode
attempt after literally every subpass is what the hardware does, but in a
software harness the cost of attempts dominates; this engine instead finds
the *same answer* — the minimal number of subpasses after which decoding
succeeds — with geometric probing followed by bisection.  Decode success is
(near-)monotone in the received prefix, so the bisected minimum matches the
exhaustive scan with overwhelming probability while running ~5x fewer
attempts.  (Set ``probe_growth=1`` to force the exhaustive per-subpass scan
the paper describes.)

There is one probe/bisect loop, :func:`rateless_search`, and it runs a
cohort of rows at once.  :class:`BatchSession` searches M independent
messages with it: at every probe point all still-undecoded messages are
decoded together by one bubble search
(:class:`~repro.core.decoder.BatchBubbleDecoder`), and bisection steps are
grouped by probe point, which amortises the per-step numpy call overhead
over the whole cohort.  A :class:`SpinalSession` is the one-message
cohort; Raptor and Strider search their chunk counts as one-row cohorts.
Each spinal cohort owns **one** incremental
:class:`~repro.core.symbols.BatchReceivedSymbols` store: subpasses are
appended as they are transmitted and every decode attempt reads an O(1)
prefix view of the store (a per-subpass checkpoint cursor), so probing
and bisection never rebuild symbol storage.

Rows may share a cohort only under **per-message channel ownership**
(``Channel.private_state``, and no instance shared between rows): each
message's channel state and RNG stream must be a pure function of that
message's own transmit sequence, which the cohort preserves — a row
transmits the same subpass blocks, in the same order, as it would alone,
and leaves the cohort at exactly the subpass where it would stop alone.
That makes stateful-but-private models (Rayleigh block fading, whose
coherence block spans transmit calls) batchable, and CSI-consuming
decodes batch too: the store carries a per-message CSI plane and the
decoder the coherent ``|y - h x|^2`` metric (the "phase" policy derotates
at receive time).  Channels whose state is coupled *across* instances —
the shared-medium symbol clock — run each message as its own one-row
cohort, which is exact because one row cannot interleave with another.

Success is judged against the transmitted message (oracle mode, standard
for rate curves — it measures code performance without protocol overhead).
CRC-based realistic framing lives in :mod:`repro.core.framing`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.channels.base import Channel, ChannelOutput, transmit_batch
from repro.core.decoder import BatchBubbleDecoder, DecodeResult
from repro.core.encoder import BatchSpinalEncoder, SpinalEncoder
from repro.core.params import DecoderParams, SpinalParams
from repro.core.symbols import BatchReceivedSymbols
from repro.obs import OBS

__all__ = [
    "SpinalSession",
    "BatchSession",
    "SessionResult",
    "csi_mode",
    "received_view",
    "probe_schedule",
    "rateless_search",
]


def csi_mode(give_csi: bool | str) -> str:
    """Normalise the CSI knob: True -> 'full', False -> 'none'."""
    if give_csi is True:
        return "full"
    if give_csi is False:
        return "none"
    if give_csi in ("full", "phase", "none"):
        return give_csi
    raise ValueError(f"unknown CSI mode {give_csi!r}")


def received_view(out: ChannelOutput, mode: str) -> tuple[np.ndarray, np.ndarray | None]:
    """What the receiver actually sees under a CSI policy.

    Returns ``(values, csi)``: with ``"full"`` CSI the decoder is shown the
    exact per-symbol coefficients (Figure 8-4); with ``"phase"`` the carrier
    is recovered (derotation) but amplitude stays unknown (Figure 8-5); with
    ``"none"`` the raw observations are decoded as plain AWGN.  Shared by the
    single-message engine and the packet link layer so both receivers treat
    fading identically.
    """
    values, csi = out.values, None
    if out.csi is not None:
        if mode == "full":
            csi = out.csi
        elif mode == "phase":
            # Carrier recovery: derotate, stay blind to |h|.
            values = values * np.exp(-1j * np.angle(out.csi))
    return values, csi


def probe_schedule(probe_growth: float, max_subpasses: int,
                   start: int = 1) -> list[int]:
    """Subpass counts at which a session attempts a decode.

    The schedule is the same for every message at an operating point, which
    is what lets :class:`BatchSession` decode a whole cohort per probe.
    """
    schedule: list[int] = []
    g = start
    while g <= max_subpasses:
        schedule.append(g)
        if probe_growth == 1.0:
            g += 1
        else:
            nxt = min(max(g + 1, math.ceil(g * probe_growth)), max_subpasses)
            if nxt == g:
                break
            g = nxt
    return schedule


def rateless_search(
    attempt: Callable[[np.ndarray, int], np.ndarray],
    n_rows: int, start: int, growth: float, limit: int,
) -> list[int | None]:
    """Per row, the least count at which ``attempt`` succeeds, or ``None``.

    ``attempt(rows, count)`` tries the given rows at ``count`` and returns
    one success flag per row.  Every row that has not yet succeeded is
    probed at each count of the :func:`probe_schedule` from ``start`` up to
    ``limit``; then each row that succeeded bisects between its last failing
    count (0 before any) and its first success.  Bisection runs in rounds,
    and each round tries the rows that share a midpoint together, in
    ascending order of midpoint.  A row's own attempt sequence is the one it
    would see searched alone, so a cohort's answers do not depend on which
    rows it holds.  Spinal cohorts search their subpass counts with it,
    Raptor and Strider (one row each) their chunk counts.
    """
    lo = [0] * n_rows
    hi: list[int | None] = [None] * n_rows
    active = np.arange(n_rows, dtype=np.intp)
    for g in probe_schedule(growth, limit, start):
        if active.size == 0:
            break
        ok = np.asarray(attempt(active, g), dtype=bool)
        for m in active[ok]:
            hi[m] = g
        for m in active[~ok]:
            lo[m] = g
        active = active[~ok]

    while True:
        mids: dict[int, list[int]] = {}
        for m, h in enumerate(hi):
            if h is not None and h - lo[m] > 1:
                mids.setdefault((lo[m] + h) // 2, []).append(m)
        if not mids:
            return hi
        for mid, members in sorted(mids.items()):
            ok = attempt(np.asarray(members, dtype=np.intp), mid)
            for m, success in zip(members, ok):
                if success:
                    hi[m] = mid
                else:
                    lo[m] = mid


@dataclass
class SessionResult:
    """Outcome of transmitting one message ratelessly."""

    success: bool
    n_symbols: int          # symbols consumed (minimal prefix on success)
    n_subpasses: int        # subpasses consumed
    n_bits: int             # message length
    n_attempts: int         # decode attempts executed
    path_cost: float = float("nan")

    @property
    def rate(self) -> float:
        """Bits per symbol delivered (0 when the message was given up)."""
        if not self.success or self.n_symbols == 0:
            return 0.0
        return self.n_bits / self.n_symbols


class SpinalSession:
    """Drives one message through the rateless loop: a one-row
    :class:`BatchSession`.

    Parameters
    ----------
    params, decoder_params: code and decoder configuration.
    message_bits: the n-bit message to convey.
    channel: a :class:`repro.channels.Channel`; transmitted through in
        subpass order so stateful models (fading) behave correctly.
    give_csi: CSI available to the decoder when the channel reports
        coefficients: ``True``/"full" = exact per-symbol h (Figure 8-4);
        "phase" = carrier-phase recovery only, amplitude unknown — the
        realistic "no detailed fading information" receiver of Figure 8-5;
        ``False``/"none" = decode the raw observations as plain AWGN.
    probe_growth: geometric factor for the decode-attempt schedule
        (1 = attempt after every subpass, exactly as in the paper).
    """

    def __init__(
        self,
        params: SpinalParams,
        decoder_params: DecoderParams,
        message_bits: np.ndarray,
        channel: Channel,
        give_csi: bool | str = False,
        probe_growth: float = 1.5,
    ):
        self._cohort = BatchSession(
            params, decoder_params,
            np.asarray(message_bits, dtype=np.uint8).reshape(1, -1), [channel],
            give_csi=give_csi, probe_growth=probe_growth,
        )

    @property
    def encoder(self) -> SpinalEncoder:
        """The message's encoder (its output is a pure function of (spine,
        slot), so a fresh one is equivalent)."""
        return SpinalEncoder(self._cohort.params, self._cohort.messages[0])

    def run(self) -> SessionResult:
        """Rateless transmission until decoded or ``max_passes`` exhausted."""
        return self._cohort.run()[0]

    def run_fixed_rate(self, n_passes: int) -> SessionResult:
        """Fixed-rate variant (Figure 8-2): send exactly L passes, decode once."""
        return self._cohort.run_fixed_rate(n_passes)[0]


class BatchSession:
    """Runs M independent rateless sessions as one decode cohort.

    Every message gets its own channel (and therefore its own noise
    stream); the decode pipeline is shared.  At each probe point of the
    common schedule, all still-undecoded messages are decoded in one
    batched bubble search; bisection steps are grouped by probe point the
    same way.  Per message, the outcome does not depend on the cohort: it
    is **bit-identical** to running the same (message, channel) pair as a
    one-row cohort (a :class:`SpinalSession`) — same success flags, symbol
    counts, attempt counts and path costs.

    Channels must be per-message (``Channel.private_state``, one distinct
    instance per row) for rows to share a cohort — stateful-but-private
    models (block fading) and CSI-consuming decodes batch fine; cohorts
    containing cross-message state (shared-medium channels, or one
    instance reused across rows) transparently run each message as its own
    one-row cohort instead — see the module docstring for why.

    Parameters
    ----------
    params, decoder_params: code and decoder configuration.
    messages: uint8 array of shape (M, n_bits).
    channels: one :class:`~repro.channels.base.Channel` per message.
    give_csi, probe_growth: as in :class:`SpinalSession`.
    """

    def __init__(
        self,
        params: SpinalParams,
        decoder_params: DecoderParams,
        messages: np.ndarray,
        channels: list[Channel],
        give_csi: bool | str = False,
        probe_growth: float = 1.5,
    ):
        self.params = params
        self.dec = decoder_params
        self.messages = np.atleast_2d(np.asarray(messages, dtype=np.uint8))
        if len(channels) != self.messages.shape[0]:
            raise ValueError("one channel per message required")
        self.channels = list(channels)
        self.csi_mode = csi_mode(give_csi)
        if probe_growth < 1.0:
            raise ValueError("probe_growth must be >= 1")
        self.probe_growth = probe_growth

    @property
    def n_messages(self) -> int:
        return self.messages.shape[0]

    def _can_batch(self) -> bool:
        # The real precondition is per-message channel ownership: a row's
        # transmit stream must depend only on its own call sequence (which
        # the cohort reproduces exactly), so stateful-but-private models
        # like block fading batch fine.  Shared-state channels cannot, and
        # neither can one instance reused across rows — interleaved cohort
        # transmits would consume its RNG/state in a different order than
        # M sequential one-message sessions.  The cohort must also be
        # CSI-homogeneous (the batch store's CSI plane is all-or-nothing
        # across rows).  A single row interleaves with nothing, so it
        # always batches.
        return self.n_messages == 1 or (
            all(ch.private_state for ch in self.channels)
            and len({id(ch) for ch in self.channels}) == self.n_messages
            and len({ch.reports_csi for ch in self.channels}) == 1)

    def _run_rows_apart(
        self, fixed_passes: int | None = None
    ) -> list[SessionResult]:
        """Fallback: each message as its own one-row cohort, in row order."""
        out: list[SessionResult] = []
        for m in range(self.n_messages):
            row = BatchSession(
                self.params, self.dec, self.messages[m:m + 1],
                self.channels[m:m + 1],
                give_csi=self.csi_mode, probe_growth=self.probe_growth,
            )
            out.extend(row.run() if fixed_passes is None
                       else row.run_fixed_rate(fixed_passes))
        return out

    def _pipeline(self) -> tuple[
        Callable[[np.ndarray, int], None],
        Callable[[np.ndarray, int], list[DecodeResult]],
        list[int],
        int,
    ]:
        """Transmit and decode closures over one batched cohort.

        The cohort shares one encoder, one decoder and one incremental
        symbol store.  Returns ``(ensure, decode, cum_symbols,
        subpasses_per_pass)``: ``ensure(rows, count)`` transmits the rows
        up to ``count`` subpasses, ``decode(rows, count)`` decodes them at
        that prefix, and ``cum_symbols[g]`` is the symbol count of ``g``
        subpasses.
        """
        encoder = BatchSpinalEncoder(self.params, self.messages)
        decoder = BatchBubbleDecoder(
            self.params, self.dec, self.messages.shape[1]
        )
        store = BatchReceivedSymbols(
            encoder.n_spine, self.n_messages,
            complex_valued=not self.params.is_bsc,
        )
        checkpoints = [store.checkpoint()]
        cum_symbols = [0]

        def ensure(rows: np.ndarray, count: int) -> None:
            """Transmit up to ``count`` subpasses for the messages in rows.

            Only still-active rows transmit — a decoded message's channel
            stops drawing noise at exactly the subpass where it would have
            stopped alone.
            """
            while len(checkpoints) - 1 < count:
                block = encoder.generate_batch(len(checkpoints) - 1, rows=rows)
                received = transmit_batch(
                    [self.channels[m] for m in rows], block.values
                )
                values, csi = received_view(received, self.csi_mode)
                store.add_block(
                    block.spine_indices, block.slots, values,
                    rows=rows, csi=csi,
                )
                checkpoints.append(store.checkpoint())
                cum_symbols.append(cum_symbols[-1] + len(block))

        def decode(rows: np.ndarray, count: int) -> list[DecodeResult]:
            """One batched decode of ``rows`` at ``count`` subpasses."""
            view = store.prefix(rows, checkpoints[count])
            OBS.counter("decode.attempts", rows.size)
            with OBS.span("decode.cohort", rows=int(rows.size),
                          subpasses=int(count)):
                return decoder.decode_batch(view)

        return ensure, decode, cum_symbols, encoder.subpasses_per_pass

    def run(self) -> list[SessionResult]:
        """Rateless transmission of the cohort; one result per message."""
        if not self._can_batch():
            return self._run_rows_apart()

        M = self.n_messages
        ensure, decode, cum_symbols, w = self._pipeline()
        n_attempts = np.zeros(M, dtype=np.int64)
        last_cost = np.full(M, float("nan"))

        def attempt(rows: np.ndarray, n_subpasses: int) -> np.ndarray:
            """Transmit what ``rows`` lack, decode; returns success mask."""
            ensure(rows, n_subpasses)
            results = decode(rows, n_subpasses)
            ok = np.zeros(rows.size, dtype=bool)
            for j, m in enumerate(rows):
                n_attempts[m] += 1
                last_cost[m] = results[j].path_cost
                ok[j] = results[j].matches(self.messages[m])
            return ok

        max_subpasses = self.dec.max_passes * w
        found = rateless_search(
            attempt, M, 1, self.probe_growth, max_subpasses)
        n_bits = self.messages.shape[1]
        return [
            SessionResult(
                success=hi is not None,
                n_symbols=cum_symbols[max_subpasses if hi is None else hi],
                n_subpasses=max_subpasses if hi is None else hi,
                n_bits=n_bits,
                n_attempts=int(n_attempts[m]),
                path_cost=(float("nan") if hi is None
                           else float(last_cost[m])),
            )
            for m, hi in enumerate(found)
        ]

    def run_fixed_rate(self, n_passes: int) -> list[SessionResult]:
        """Fixed-rate cohort (Figure 8-2): L passes each, one batched decode.

        Per message, bit-identical to a one-row cohort
        (:meth:`SpinalSession.run_fixed_rate`) on the same (message,
        channel) pair — every row transmits the same L passes it would
        alone, then the whole cohort decodes once.
        """
        if not self._can_batch():
            return self._run_rows_apart(fixed_passes=n_passes)

        M = self.n_messages
        ensure, decode, cum_symbols, w = self._pipeline()
        n_subpasses = n_passes * w
        rows = np.arange(M, dtype=np.intp)
        ensure(rows, n_subpasses)
        results = decode(rows, n_subpasses)
        n_bits = self.messages.shape[1]
        return [
            SessionResult(
                success=results[m].matches(self.messages[m]),
                n_symbols=cum_symbols[n_subpasses],
                n_subpasses=n_subpasses,
                n_bits=n_bits,
                n_attempts=1,
                path_cost=results[m].path_cost,
            )
            for m in range(M)
        ]
