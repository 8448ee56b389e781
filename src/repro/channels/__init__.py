"""Channel models and capacity metrics used throughout the evaluation."""

from repro.channels.base import Channel, ChannelOutput
from repro.channels.awgn import AWGNChannel
from repro.channels.bsc import BSCChannel
from repro.channels.fading import RayleighBlockFadingChannel
from repro.channels.shared import SharedChannel
from repro.channels.registry import (
    channel_factory,
    channel_family,
    make_channel,
)
from repro.channels.capacity import (
    awgn_capacity,
    bsc_capacity,
    fraction_of_capacity,
    gap_to_capacity_db,
    rayleigh_capacity,
    snr_db_for_rate,
)

__all__ = [
    "Channel",
    "ChannelOutput",
    "AWGNChannel",
    "BSCChannel",
    "RayleighBlockFadingChannel",
    "SharedChannel",
    "channel_family",
    "make_channel",
    "channel_factory",
    "awgn_capacity",
    "bsc_capacity",
    "rayleigh_capacity",
    "gap_to_capacity_db",
    "snr_db_for_rate",
    "fraction_of_capacity",
]
