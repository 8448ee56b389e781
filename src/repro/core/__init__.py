"""The paper's primary contribution: rateless spinal codes.

Public surface:

- :class:`~repro.core.params.SpinalParams` / :class:`~repro.core.params.DecoderParams`
- :class:`~repro.core.encoder.SpinalEncoder`
- :class:`~repro.core.decoder.BubbleDecoder`
- :mod:`~repro.core.puncturing` schedules
- :mod:`~repro.core.framing` link-layer framing (code blocks + CRC-16)
"""

from repro.core.params import DecoderParams, SpinalParams
from repro.core.hashes import available_hashes, get_hash
from repro.core.rng import SpinalRNG
from repro.core.constellation import (
    BscMapping,
    TruncatedGaussianMapping,
    UniformMapping,
    make_mapping,
)
from repro.core.puncturing import (
    NoPuncturing,
    StridedPuncturing,
    make_schedule,
)
from repro.core.encoder import BatchSpinalEncoder, SpinalEncoder
from repro.core.symbols import BatchReceivedSymbols, ReceivedSymbols
from repro.core.decoder import BatchBubbleDecoder, BubbleDecoder, DecodeResult
from repro.core.crc import crc16
from repro.core.framing import Frame, FrameDecoder, FrameEncoder

__all__ = [
    "SpinalParams",
    "DecoderParams",
    "available_hashes",
    "get_hash",
    "SpinalRNG",
    "UniformMapping",
    "TruncatedGaussianMapping",
    "BscMapping",
    "make_mapping",
    "NoPuncturing",
    "StridedPuncturing",
    "make_schedule",
    "SpinalEncoder",
    "BatchSpinalEncoder",
    "ReceivedSymbols",
    "BatchReceivedSymbols",
    "BubbleDecoder",
    "BatchBubbleDecoder",
    "DecodeResult",
    "crc16",
    "Frame",
    "FrameEncoder",
    "FrameDecoder",
]
