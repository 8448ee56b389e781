"""Shannon limits and the paper's evaluation metrics (§8.1).

Two metrics drive every figure:

- **rate** in bits per (complex) symbol;
- **gap to capacity** in dB: how much more noise a capacity-achieving code
  could tolerate at the same rate.  A code achieving rate R at SNR s has
  gap ``snr_db_for_rate(R) - s`` (negative; closer to 0 is better).

The Rayleigh ergodic capacity (receiver CSI) has the closed form
``E[log2(1 + |h|^2 snr)] = e^(1/snr) E1(1/snr) / ln 2`` for ``h ~ CN(0,1)``.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "awgn_capacity",
    "bsc_capacity",
    "rayleigh_capacity",
    "snr_db_for_rate",
    "gap_to_capacity_db",
    "fraction_of_capacity",
    "binary_entropy",
]


def awgn_capacity(snr_db: float | np.ndarray) -> float | np.ndarray:
    """Complex AWGN capacity, bits per symbol: ``log2(1 + SNR)``."""
    snr = 10.0 ** (np.asarray(snr_db, dtype=np.float64) / 10.0)
    out = np.log2(1.0 + snr)
    return float(out) if np.isscalar(snr_db) else out


def binary_entropy(p: float | np.ndarray) -> float | np.ndarray:
    """H2(p) in bits, with H2(0) = H2(1) = 0."""
    p = np.asarray(p, dtype=np.float64)
    out = np.zeros_like(p)
    interior = (p > 0.0) & (p < 1.0)
    q = p[interior]
    out[interior] = -q * np.log2(q) - (1.0 - q) * np.log2(1.0 - q)
    return float(out) if out.ndim == 0 else out


def bsc_capacity(flip_probability: float | np.ndarray) -> float | np.ndarray:
    """BSC capacity, bits per channel use: ``1 - H2(p)``."""
    return 1.0 - binary_entropy(flip_probability)


def rayleigh_capacity(snr_db: float | np.ndarray) -> float | np.ndarray:
    """Ergodic capacity of the Rayleigh fading channel with receiver CSI."""
    from scipy.special import exp1

    snr = 10.0 ** (np.asarray(snr_db, dtype=np.float64) / 10.0)
    inv = 1.0 / snr
    out = np.exp(inv) * exp1(inv) / np.log(2.0)
    return float(out) if np.isscalar(snr_db) else out


def snr_db_for_rate(rate: float | np.ndarray) -> float | np.ndarray:
    """SNR (dB) at which AWGN capacity equals ``rate`` bits/symbol."""
    rate = np.asarray(rate, dtype=np.float64)
    snr = 2.0 ** rate - 1.0
    with np.errstate(divide="ignore"):
        out = 10.0 * np.log10(snr)
    return float(out) if out.ndim == 0 else out


def gap_to_capacity_db(rate: float, snr_db: float) -> float:
    """The paper's gap metric, e.g. rate 3 at 12 dB -> 8.45 - 12 = -3.55 dB."""
    return float(snr_db_for_rate(rate) - snr_db)


def fraction_of_capacity(rate: float, snr_db: float) -> float:
    """``rate / C(snr)`` (the y axis of Figures 8-3 and 8-6)."""
    return float(rate / awgn_capacity(snr_db))
