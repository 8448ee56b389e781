"""Rate measurement across messages and SNRs (paper §8.1 metrics).

Every code in the comparison implements :class:`RatelessScheme` — "all
codes run through the same engine".  The measured rate at an operating
point is total bits delivered / total symbols transmitted, aggregated over
messages; undecoded messages burn their symbols and deliver zero bits,
exactly as a give-up does in the paper's framework.

The engine hands every scheme its messages in cohorts
(``measure_scheme(batch_size=...)``, one message per cohort by default).  A
spinal cohort shares one vectorised decode pipeline (see
:class:`~repro.simulation.engine.BatchSession`) while every message keeps
its own channel and RNG, so any cohort size produces identical
:class:`RateMeasurement` records from the same seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro.channels.base import Channel
from repro.channels.capacity import (
    awgn_capacity,
    bsc_capacity,
    gap_to_capacity_db,
    rayleigh_capacity,
)
from repro.core.params import DecoderParams, SpinalParams
from repro.simulation.engine import BatchSession
from repro.utils.bitops import random_message

__all__ = [
    "CAPACITY_FNS",
    "RateMeasurement",
    "RatelessScheme",
    "SpinalScheme",
    "measure_scheme",
    "run_messages",
]

ChannelFactory = Callable[[np.random.Generator], Channel]

#: capacity_reference -> capacity in bits/symbol from the operating point.
#: "awgn"/"rayleigh" interpret ``snr_db`` as an SNR; "bsc" interprets it as
#: the flip probability (the only operating-point knob a BSC has).
CAPACITY_FNS = {
    "awgn": awgn_capacity,
    "bsc": bsc_capacity,
    "rayleigh": rayleigh_capacity,
}


@dataclass
class RateMeasurement:
    """Aggregated performance of one code at one operating point.

    ``capacity_reference`` names the channel family whose Shannon limit the
    relative metrics compare against: "awgn" (default), "bsc" (then
    ``snr_db`` carries the flip probability) or "rayleigh".  Comparing a
    BSC sweep against AWGN capacity silently produced wrong gaps before
    this knob existed.
    """

    label: str
    snr_db: float
    n_messages: int
    n_success: int
    total_bits: int          # bits delivered (successes only)
    total_symbols: int       # symbols transmitted (incl. failed messages)
    capacity_reference: str = "awgn"

    def __post_init__(self):
        if self.capacity_reference not in CAPACITY_FNS:
            raise ValueError(
                f"unknown capacity reference {self.capacity_reference!r}; "
                f"expected one of {sorted(CAPACITY_FNS)}"
            )

    @property
    def rate(self) -> float:
        """Bits per symbol (the paper's headline metric)."""
        if self.total_symbols == 0:
            return 0.0
        return self.total_bits / self.total_symbols

    @property
    def capacity(self) -> float:
        """Shannon limit (bits/symbol) of the reference channel here."""
        return float(CAPACITY_FNS[self.capacity_reference](self.snr_db))

    @property
    def gap_db(self) -> float:
        """Gap to AWGN capacity at this SNR (negative; §8.1).

        Only defined against AWGN — the dB axis is an SNR shift, which has
        no meaning for a BSC flip probability; raises otherwise.
        """
        if self.capacity_reference != "awgn":
            raise ValueError(
                "gap_db is defined against AWGN capacity only; use "
                "fraction_of_capacity for "
                f"{self.capacity_reference!r} measurements"
            )
        if self.rate <= 0.0:
            return float("-inf")
        return gap_to_capacity_db(self.rate, self.snr_db)

    @property
    def fraction_of_capacity(self) -> float:
        capacity = self.capacity
        if capacity == 0.0:  # e.g. BSC at flip probability 0.5
            return 0.0 if self.rate == 0.0 else float("inf")
        return self.rate / capacity

    def as_dict(self) -> dict:
        """JSON-safe record (the experiment store's on-disk point format)."""
        return {
            "label": self.label,
            "snr_db": float(self.snr_db),
            "n_messages": int(self.n_messages),
            "n_success": int(self.n_success),
            "total_bits": int(self.total_bits),
            "total_symbols": int(self.total_symbols),
            "capacity_reference": self.capacity_reference,
            "rate": self.rate,
        }

    @classmethod
    def from_outcomes(
        cls,
        label: str,
        snr_db: float,
        outcomes: Sequence[tuple[int, int]],
        capacity_reference: str = "awgn",
    ) -> "RateMeasurement":
        """Pool per-message ``(bits_delivered, symbols_used)`` outcomes."""
        return cls(
            label=label,
            snr_db=snr_db,
            n_messages=len(outcomes),
            n_success=sum(bits > 0 for bits, _ in outcomes),
            total_bits=sum(bits for bits, _ in outcomes),
            total_symbols=sum(symbols for _, symbols in outcomes),
            capacity_reference=capacity_reference,
        )


class RatelessScheme:
    """One code plugged into the shared measurement engine.

    The engine calls :meth:`run_cohort`, which reports
    ``(bits_delivered, symbols_used)`` per message.  Its default runs
    :meth:`run_message` on each message over its own fresh channel;
    schemes that decode many messages in one vectorised pipeline override
    :meth:`run_cohort` instead.
    """

    name = "scheme"

    def run_message(
        self, channel: Channel, rng: np.random.Generator
    ) -> tuple[int, int]:
        raise NotImplementedError

    def run_cohort(
        self, channels: Sequence[Channel], rngs: Sequence[np.random.Generator]
    ) -> list[tuple[int, int]]:
        """Run one message per (channel, rng) pair, each by :meth:`run_message`."""
        return [self.run_message(ch, rng) for ch, rng in zip(channels, rngs)]


class SpinalScheme(RatelessScheme):
    """Spinal code adapter for the shared engine.

    ``fixed_passes`` switches off ratelessness: transmit exactly that many
    passes and decode once (the "rated" curves of Figure 8-2).  ``None``
    (the default) runs the usual rateless probe-and-bisect session.
    """

    def __init__(
        self,
        params: SpinalParams,
        decoder_params: DecoderParams,
        n_bits: int,
        give_csi: bool | str = False,
        probe_growth: float = 1.5,
        label: str | None = None,
        fixed_passes: int | None = None,
    ):
        self.params = params
        self.decoder_params = decoder_params
        self.n_bits = n_bits
        self.give_csi = give_csi
        self.probe_growth = probe_growth
        self.fixed_passes = fixed_passes
        self.name = label or f"spinal n={n_bits} k={params.k} B={decoder_params.B}"

    def run_cohort(
        self, channels: Sequence[Channel], rngs: Sequence[np.random.Generator]
    ) -> list[tuple[int, int]]:
        """Batched cohort: one vectorised decode pipeline for all messages.

        Messages are drawn per-rng in cohort order — the same draws
        cohorts of one make — and :class:`BatchSession` runs each message
        as its own one-row cohort when a channel's state is not
        message-private, so the outcomes do not depend on the cohort size.
        """
        messages = np.stack([random_message(self.n_bits, rng) for rng in rngs])
        session = BatchSession(
            self.params, self.decoder_params, messages, list(channels),
            give_csi=self.give_csi, probe_growth=self.probe_growth,
        )
        if self.fixed_passes is None:
            results = session.run()
        else:
            results = session.run_fixed_rate(self.fixed_passes)
        return [
            ((self.n_bits if r.success else 0), r.n_symbols)
            for r in results
        ]


def run_messages(
    scheme: RatelessScheme,
    channel_factory: ChannelFactory,
    n_messages: int,
    seed: int = 0,
    batch_size: int | None = None,
) -> list[tuple[int, int]]:
    """Per-message ``(bits_delivered, symbols_used)`` outcomes at one point.

    The primitive both :func:`measure_scheme` and the adaptive sampler
    build on: every message's RNG derives from the master ``seed`` in
    message order, so the outcome list is a pure function of
    ``(scheme, factory, n_messages, seed)`` regardless of batching.
    ``batch_size`` groups messages into cohorts handed to the scheme's
    :meth:`~RatelessScheme.run_cohort` (vectorised decoding for schemes
    that support it); ``None`` means cohorts of one.  Every cohort size
    consumes the master seed identically, so the outcomes are the same
    either way.
    """
    if batch_size is not None and batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    master = np.random.default_rng(seed)
    outcomes: list[tuple[int, int]] = []
    done = 0
    while done < n_messages:
        cohort = 1 if batch_size is None else min(batch_size, n_messages - done)
        rngs = [
            np.random.default_rng(master.integers(0, 2**63))
            for _ in range(cohort)
        ]
        channels = [channel_factory(rng) for rng in rngs]
        outcomes.extend(scheme.run_cohort(channels, rngs))
        done += cohort
    return outcomes


def measure_scheme(
    scheme: RatelessScheme,
    channel_factory: ChannelFactory,
    snr_db: float,
    n_messages: int,
    seed: int = 0,
    batch_size: int | None = None,
    capacity_reference: str = "awgn",
) -> RateMeasurement:
    """Run ``n_messages`` through a scheme at one operating point.

    A thin aggregation over :func:`run_messages` (which documents the
    seeding and batching contract).
    """
    outcomes = run_messages(
        scheme, channel_factory, n_messages, seed, batch_size)
    return RateMeasurement.from_outcomes(
        scheme.name, snr_db, outcomes, capacity_reference)
