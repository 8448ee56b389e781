"""Constellation mapping functions (paper §3.3, Figure 3-2).

The spinal encoder turns c-bit RNG outputs into channel-symbol coordinates.
The paper studies two dense maps for the AWGN channel, with identical average
power ``P`` (``P`` is the *complex* symbol power, so each of I and Q carries
``P/2``):

- **uniform**:   ``b -> (u - 1/2) * sqrt(6 P)`` with ``u = (b + 1/2) / 2^c``;
- **truncated Gaussian**: ``b -> Phi^{-1}(gamma + (1 - 2 gamma) u) * sqrt(P/2)``
  with ``gamma = Phi(-beta)``, which clips the Gaussian to ``±beta*sqrt(P/2)``.

For the BSC the map is trivial (c = 1, send the bit).

Each mapping precomputes its 2^c output levels so the decoder can convert
candidate RNG outputs to symbol coordinates with a single table lookup.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "ConstellationMapping",
    "UniformMapping",
    "TruncatedGaussianMapping",
    "BscMapping",
    "make_mapping",
]


class ConstellationMapping:
    """Base: a lookup table from c-bit values to real coordinates.

    Attributes
    ----------
    c: bits consumed per coordinate.
    levels: ``(2^c,)`` float array, the output coordinate for each value.
    dimensions: 2 for I/Q symbols (AWGN), 1 for scalar outputs (BSC).
    """

    dimensions = 2

    def __init__(self, c: int, levels: np.ndarray):
        self.c = c
        self.levels = np.asarray(levels, dtype=np.float64)
        if self.levels.shape != (1 << c,):
            raise ValueError("levels must have 2^c entries")

    def map(self, values: np.ndarray) -> np.ndarray:
        """Map c-bit values to coordinates (vectorised table lookup)."""
        return self.levels[np.asarray(values, dtype=np.intp)]

    @property
    def average_power_per_dimension(self) -> float:
        """Mean squared coordinate under uniform c-bit inputs."""
        return float(np.mean(self.levels**2))


class UniformMapping(ConstellationMapping):
    """Uniform constellation over ``[-sqrt(6P)/2, +sqrt(6P)/2]`` per dimension."""

    name = "uniform"

    def __init__(self, c: int, power: float = 1.0):
        self.power = float(power)
        b = np.arange(1 << c, dtype=np.float64)
        u = (b + 0.5) / (1 << c)
        super().__init__(c, (u - 0.5) * np.sqrt(6.0 * self.power))


class TruncatedGaussianMapping(ConstellationMapping):
    """Truncated Gaussian constellation via the inverse normal CDF.

    The raw map has per-dimension variance below P/2 (the truncation removes
    tail mass); the paper omits the "very small corrections to P" and states
    both maps have the *same average power* (Figure 3-2), so we normalise
    the discrete levels to exactly P/2 per dimension.
    """

    name = "gaussian"

    def __init__(self, c: int, power: float = 1.0, beta: float = 2.0):
        # Phi and Phi^{-1} are scipy's ndtr and ndtri, imported here so the
        # uniform and BSC maps never load scipy.
        from scipy.special import ndtr, ndtri

        self.power = float(power)
        self.beta = float(beta)
        gamma = ndtr(-beta)
        b = np.arange(1 << c, dtype=np.float64)
        u = (b + 0.5) / (1 << c)
        levels = ndtri(gamma + (1.0 - 2.0 * gamma) * u)
        levels *= np.sqrt((self.power / 2.0) / np.mean(levels**2))
        super().__init__(c, levels)


class BscMapping(ConstellationMapping):
    """Trivial bit map for the binary symmetric channel (c = 1)."""

    name = "bsc"
    dimensions = 1

    def __init__(self, c: int = 1, power: float = 1.0):
        if c != 1:
            raise ValueError("BSC mapping requires c = 1")
        self.power = 1.0
        super().__init__(1, np.array([0.0, 1.0]))


_MAPPINGS = {
    "uniform": UniformMapping,
    "gaussian": TruncatedGaussianMapping,
    "bsc": BscMapping,
}


def make_mapping(name: str, c: int, power: float = 1.0, beta: float = 2.0):
    """Construct a mapping by name: 'uniform', 'gaussian', or 'bsc'."""
    if name not in _MAPPINGS:
        raise ValueError(f"unknown mapping {name!r}; available: {sorted(_MAPPINGS)}")
    if name == "gaussian":
        return TruncatedGaussianMapping(c, power=power, beta=beta)
    return _MAPPINGS[name](c, power=power)
