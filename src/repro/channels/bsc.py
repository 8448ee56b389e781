"""Binary symmetric channel (paper §3.3 BSC mode, §4.6 capacity claim)."""

from __future__ import annotations

import numpy as np

from repro.channels.base import Channel, ChannelOutput

__all__ = ["BSCChannel"]


class BSCChannel(Channel):
    """Flips each transmitted bit independently with probability ``p``."""

    complex_valued = False

    def __init__(
        self, flip_probability: float, rng: np.random.Generator | int | None = None
    ):
        if not 0.0 <= flip_probability <= 1.0:
            raise ValueError("flip probability must be in [0, 1]")
        self.flip_probability = float(flip_probability)
        if not isinstance(rng, np.random.Generator):
            rng = np.random.default_rng(rng)
        self._rng = rng

    def transmit(self, symbols: np.ndarray) -> ChannelOutput:
        """Flip the bits ``symbols``.  Complex constellation symbols (a
        Raptor, Strider or non-BSC spinal code) raise ``ValueError``: the
        channel carries bits, and casting them would drop the imaginary
        part."""
        if np.iscomplexobj(symbols):
            raise ValueError("the BSC carries bits, not complex "
                             "constellation symbols")
        bits = np.asarray(symbols, dtype=np.uint8)
        flips = self._rng.random(bits.shape) < self.flip_probability
        return ChannelOutput((bits ^ flips.astype(np.uint8)).astype(np.float64))
