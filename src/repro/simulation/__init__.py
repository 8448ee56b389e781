"""Rateless execution engine and experiment harness (paper §8.1).

"A generic rateless execution engine regulates the streaming of symbols
across processing elements from the encoder, through the mapper, channel
simulator, and demapper, to the decoder, and collects performance
statistics.  All codes run through the same engine."
"""

from repro.simulation.engine import BatchSession, SessionResult, SpinalSession
from repro.simulation.sweep import (
    RateMeasurement,
    RatelessScheme,
    SpinalScheme,
    measure_scheme,
    run_messages,
)

__all__ = [
    "SpinalSession",
    "BatchSession",
    "SessionResult",
    "RateMeasurement",
    "RatelessScheme",
    "SpinalScheme",
    "measure_scheme",
    "run_messages",
]
