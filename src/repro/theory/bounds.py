"""Theorem 1 quantities (paper §4.6 and Appendix A).

Theorem 1: with the uniform constellation, a polynomial bubble decoder
drives BER -> 0 for any pass count L with ``L (C_awgn - delta) > k``, where

    delta(c, SNR) ≈ 3 (1 + SNR) 2^{-c} + (1/2) log2(pi e / 6).

The second term, ``(1/2) log2(pi e / 6) ≈ 0.2546`` bits/symbol, is the
asymptotic shaping gap of the uniform constellation; the first term decays
exponentially in the RNG output width c, so c = Omega(log(1 + SNR))
suffices to stay within ~0.25 bits of capacity.  These calculators let the
examples and the constellation ablation compare measured rates against the
bound.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "delta_gap",
    "achievable_rate_bound",
    "minimum_passes",
    "uniform_constellation_gap",
]


def uniform_constellation_gap() -> float:
    """The irreducible uniform-map penalty (1/2) log2(pi e / 6) bits."""
    return 0.5 * float(np.log2(np.pi * np.e / 6.0))


def delta_gap(c: int, snr_db: float) -> float:
    """delta(c, SNR) of equation (4.3), in bits per (real-pair) symbol."""
    snr = 10.0 ** (snr_db / 10.0)
    return 3.0 * (1.0 + snr) * 2.0 ** (-c) + uniform_constellation_gap()


def achievable_rate_bound(c: int, snr_db: float) -> float:
    """Rate the theorem guarantees: ``C_awgn(SNR) - delta(c, SNR)``, >= 0.

    Uses the complex-channel capacity ``log2(1 + SNR)`` (Appendix A works
    per real dimension and notes the complex channel doubles it; delta is
    likewise doubled from the per-dimension form in (4.3), which already
    matches the complex-symbol convention used throughout §8).
    """
    capacity = float(np.log2(1.0 + 10.0 ** (snr_db / 10.0)))
    return max(0.0, capacity - delta_gap(c, snr_db))


def minimum_passes(k: int, c: int, snr_db: float) -> int:
    """Smallest L with ``L (C - delta) > k``: the theorem's decodable pass
    count (infinite when the bound is vacuous at this c/SNR)."""
    bound = achievable_rate_bound(c, snr_db)
    if bound <= 0.0:
        raise ValueError(
            f"bound is vacuous at c={c}, snr={snr_db} dB (delta >= capacity)"
        )
    return int(np.floor(k / bound)) + 1
