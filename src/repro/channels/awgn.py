"""Complex additive white Gaussian noise channel (paper §8.1, §8.2).

SNR is defined as ``P / sigma^2`` where ``P`` is the average complex symbol
power and ``sigma^2`` the total complex noise power (``sigma^2 / 2`` per
real dimension) — matching the paper's Appendix A conventions, where each
dimension carries ``P* = P/2``.
"""

from __future__ import annotations

import numpy as np

from repro.channels.base import Channel, ChannelOutput

__all__ = ["AWGNChannel"]


class AWGNChannel(Channel):
    """y = x + n with n ~ CN(0, sigma^2).

    Parameters
    ----------
    snr_db: signal-to-noise ratio in dB.
    signal_power: average complex symbol power P (default 1.0, matching the
        default constellation maps).
    rng: numpy Generator or seed for reproducible noise.
    """

    complex_valued = True

    def __init__(
        self,
        snr_db: float,
        signal_power: float = 1.0,
        rng: np.random.Generator | int | None = None,
    ):
        self.snr_db = float(snr_db)
        self.signal_power = float(signal_power)
        self.noise_power = self.signal_power / (10.0 ** (self.snr_db / 10.0))
        if not isinstance(rng, np.random.Generator):
            rng = np.random.default_rng(rng)
        self._rng = rng

    def transmit(self, symbols: np.ndarray) -> ChannelOutput:
        symbols = np.asarray(symbols, dtype=np.complex128)
        scale = np.sqrt(self.noise_power / 2.0)
        noise = scale * (
            self._rng.standard_normal(symbols.shape)
            + 1j * self._rng.standard_normal(symbols.shape)
        )
        return ChannelOutput(symbols + noise)
