"""Soft demapping: received symbols -> per-bit log-likelihood ratios.

The exact bit LLR marginalises over all constellation points::

    LLR_b = log  sum_{s: bit_b(s)=0} exp(-|y - s|^2 / sigma^2)
               - log sum_{s: bit_b(s)=1} exp(-|y - s|^2 / sigma^2)

(positive LLR favours bit 0).  The paper attributes its strong Raptor
baseline to "a careful demapping scheme that attempts to preserve as much
soft information as possible" (§8.2) — this module is that scheme.  For
square Gray-coded QAM the computation is separable per dimension, turning
QAM-256 demapping into two 16-point PAM problems; the generic path handles
any labelled constellation.  With CSI, the metric becomes
``-|y - h s|^2 / sigma^2``.
"""

from __future__ import annotations

import numpy as np

from repro.modulation.qam import QAM, Constellation

__all__ = ["soft_demap", "hard_demap"]


def _pam_llrs(
    y: np.ndarray, levels: np.ndarray, label_to_index: np.ndarray,
    noise_var: np.ndarray | float, m: int,
) -> np.ndarray:
    """Exact LLRs for one Gray-PAM dimension; returns (n, m)."""
    from scipy.special import logsumexp

    # metric[n, level] = -(y - level)^2 / noise_var
    metric = -((y[:, None] - levels[None, :]) ** 2)
    metric = metric / (np.asarray(noise_var)[..., None]
                       if np.ndim(noise_var) else noise_var)
    # bit b of the label of each level
    labels = np.empty(levels.size, dtype=np.int64)
    labels[label_to_index] = np.arange(levels.size)
    out = np.empty((y.size, m))
    for b in range(m):
        bit = (labels >> (m - 1 - b)) & 1
        out[:, b] = (logsumexp(metric[:, bit == 0], axis=1)
                     - logsumexp(metric[:, bit == 1], axis=1))
    return out


def soft_demap(
    constellation: Constellation,
    received: np.ndarray,
    noise_power: float,
    csi: np.ndarray | None = None,
) -> np.ndarray:
    """Per-bit LLRs (positive = bit 0) for a block of received symbols.

    Parameters
    ----------
    constellation: a labelled constellation.
    received: complex received symbols.
    noise_power: total complex noise power sigma^2.
    csi: optional per-symbol channel coefficients ``h`` (fading).
    """
    from scipy.special import logsumexp

    received = np.asarray(received, dtype=np.complex128)
    if csi is not None:
        csi = np.asarray(csi, dtype=np.complex128)
        # Equalise: y/h has noise power sigma^2 / |h|^2 per symbol.
        received = received / csi
        noise = noise_power / (np.abs(csi) ** 2)
    else:
        noise = noise_power

    if isinstance(constellation, QAM) and constellation.is_separable:
        m = constellation.m
        # Each PAM dimension sees Gaussian variance sigma^2/2, so the
        # exponent is -(d^2) / (2 * sigma^2/2) = -d^2 / sigma^2 — the same
        # denominator as the complex-distance metric in the generic path.
        llr_i = _pam_llrs(received.real, constellation.pam_levels,
                          constellation.pam_label_to_index, noise, m)
        llr_q = _pam_llrs(received.imag, constellation.pam_levels,
                          constellation.pam_label_to_index, noise, m)
        return np.concatenate([llr_i, llr_q], axis=1).reshape(-1)

    # Generic path: full |y - s|^2 table.
    points = constellation.points
    diff = received[:, None] - points[None, :]
    metric = -(diff.real**2 + diff.imag**2)
    metric = metric / (np.asarray(noise)[..., None]
                       if np.ndim(noise) else noise)
    bits = constellation.bit_table()
    bps = constellation.bits_per_symbol
    out = np.empty((received.size, bps))
    for b in range(bps):
        mask0 = bits[:, b] == 0
        out[:, b] = (logsumexp(metric[:, mask0], axis=1)
                     - logsumexp(metric[:, ~mask0], axis=1))
    return out.reshape(-1)


def hard_demap(constellation: Constellation, received: np.ndarray) -> np.ndarray:
    """Nearest-point hard decisions, returned as bits (MSB-first)."""
    received = np.asarray(received, dtype=np.complex128)
    diff = received[:, None] - constellation.points[None, :]
    labels = np.argmin(diff.real**2 + diff.imag**2, axis=1)
    bps = constellation.bits_per_symbol
    shifts = np.arange(bps - 1, -1, -1, dtype=np.int64)
    return ((labels[:, None] >> shifts) & 1).astype(np.uint8).reshape(-1)
