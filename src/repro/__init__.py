"""repro — a full reproduction of "Spinal Codes" (SIGCOMM 2012).

Rateless spinal codes with a vectorised bubble decoder, plus every
substrate the paper's evaluation depends on: channel models (AWGN, BSC,
Rayleigh fading), QAM modulation with soft demapping, and the three
baseline codes (802.11n-style LDPC, Raptor over dense QAM, Strider's
layered turbo construction), all run through one rateless execution
engine.

Quickstart::

    import numpy as np
    from repro import SpinalParams, DecoderParams, AWGNChannel, SpinalSession
    from repro.utils import random_message

    params = SpinalParams()                # k=4, c=6, 8-way puncturing
    dec = DecoderParams(B=256, d=1)
    message = random_message(256, rng=1)
    session = SpinalSession(params, dec, message, AWGNChannel(snr_db=15, rng=2))
    result = session.run()
    print(result.rate, "bits/symbol")
"""

from repro.backend import get_backend
from repro.channels import (
    AWGNChannel,
    BSCChannel,
    RayleighBlockFadingChannel,
    SharedChannel,
    awgn_capacity,
    bsc_capacity,
    gap_to_capacity_db,
    rayleigh_capacity,
)
from repro.core import (
    BatchBubbleDecoder,
    BatchSpinalEncoder,
    BubbleDecoder,
    DecoderParams,
    FrameDecoder,
    FrameEncoder,
    ReceivedSymbols,
    SpinalEncoder,
    SpinalParams,
)
from repro.link import LinkConfig, LinkSession
from repro.simulation import (
    BatchSession,
    RateMeasurement,
    SpinalScheme,
    SpinalSession,
    measure_scheme,
)

__version__ = "1.0.0"

__all__ = [
    "SpinalParams",
    "DecoderParams",
    "SpinalEncoder",
    "BatchSpinalEncoder",
    "BubbleDecoder",
    "BatchBubbleDecoder",
    "ReceivedSymbols",
    "FrameEncoder",
    "FrameDecoder",
    "AWGNChannel",
    "BSCChannel",
    "RayleighBlockFadingChannel",
    "SharedChannel",
    "awgn_capacity",
    "bsc_capacity",
    "rayleigh_capacity",
    "gap_to_capacity_db",
    "SpinalSession",
    "BatchSession",
    "SpinalScheme",
    "LinkConfig",
    "LinkSession",
    "RateMeasurement",
    "measure_scheme",
    "get_backend",
]
