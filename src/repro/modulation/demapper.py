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

Every log-sum-exp of one demap runs in a single :func:`_logsumexp` call
on numpy alone, so Raptor, Strider and LDPC-envelope points load no scipy
(the package calls scipy for ``ndtr``/``ndtri`` and ``exp1`` only).  It
replays scipy 1.17's ``logsumexp`` op for op, which keeps the LLRs, and
the store bytes downstream, equal to the bit to those of the earlier
demapper that called scipy, and independent of which scipy is installed.
The layout of the sums matters for that, since the order in which numpy
adds the terms decides the last bits: scipy summed over the columns of
``metric[:, mask]``, a column-major copy, so each of its sums ran
sequentially (one contiguous row, summed pairwise, for a single symbol),
and :func:`_llrs` lays its sums out to run in the same order.
"""

from __future__ import annotations

import numpy as np

from repro.modulation.qam import QAM, Constellation

__all__ = ["soft_demap"]


def _logsumexp(a: np.ndarray) -> np.ndarray:
    """``log(sum(exp(a), axis=-1))`` computed as scipy 1.17.1's
    ``logsumexp(a, axis=-1)`` computes it on the same array, bit for bit.

    The maxima are split out of the sum for precision: their count ``m``
    divides the shifted sum ``s`` of the other terms, and the result is
    ``log1p(s) + log(m) + a_max``.  Where that is not finite (a row of
    -inf, +inf or NaN) the direct ``log(sum(exp(a)))`` stands instead.
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        a_max = np.max(a, axis=-1, keepdims=True)
        i_max = a == a_max
        m = np.sum(i_max.astype(a.dtype), axis=-1, keepdims=True,
                   dtype=a.dtype)
        rest = np.array(a, copy=True)
        rest[i_max] = -np.inf
        s = np.sum(np.exp(rest - a_max), axis=-1, keepdims=True,
                   dtype=a.dtype)
        # scipy's sign handling, there for negative weights; without
        # weights (s >= 0, m >= 0) these lines change no bit, and are kept
        # so that the replay reads line for line against scipy's.
        s = np.where(s == 0, s, s / m)
        sign = np.sign(s + 1) * np.sign(m)
        s = np.where(s < -1, -s - 2, s)
        out = np.log1p(s) + np.log(np.abs(m)) + a_max
        out[sign < 0] = np.nan
        finite = np.isfinite(out)
        if not finite.all():
            out_inf = np.log(np.sum(np.exp(a), axis=-1, keepdims=True))
            out = np.where(finite, out, out_inf)
    return out[..., 0]


def _llrs(metric: np.ndarray, bits: np.ndarray, one_symbol: bool) -> np.ndarray:
    """Exact LLRs from a ``(points, n)`` metric table and the points'
    ``(points, n_bits)`` labels; returns ``(n_bits, n)``.  ``one_symbol``
    says the table holds a single received symbol."""
    n_points, n_bits = bits.shape
    # Row 2b of ``groups`` lists the points whose bit b is 0 and row 2b + 1
    # those whose bit b is 1, each ascending: a labelling of 2^k points
    # splits every bit in halves.
    groups = np.argsort(bits.T, axis=1, kind="stable").reshape(
        2 * n_bits, n_points // 2)
    # The sums run along the last axis of a view whose last axis is the
    # outermost in memory, so each runs sequentially, as scipy's did over
    # the columns of the column-major ``metric[:, mask]``.  With a single
    # symbol that copy was one contiguous row, which numpy sums pairwise;
    # a contiguous copy repeats that.
    gathered = np.moveaxis(metric[groups.T], 0, -1)
    if one_symbol:
        gathered = np.ascontiguousarray(gathered)
    lse = _logsumexp(gathered)
    return lse[0::2] - lse[1::2]


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
    noise_power: total complex noise power sigma^2 (a scalar, or one per
        symbol).
    csi: optional per-symbol channel coefficients ``h`` (fading).
    """
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
        # The I and Q dimensions demap side by side as one row of 2n values.
        y = np.concatenate([received.real, received.imag])
        if np.ndim(noise):
            noise = np.concatenate([noise, noise])
        levels = constellation.pam_levels
        metric = -((y[None, :] - levels[:, None]) ** 2) / noise
        labels = np.empty(levels.size, dtype=np.int64)
        labels[constellation.pam_label_to_index] = np.arange(levels.size)
        shifts = np.arange(m - 1, -1, -1, dtype=np.int64)
        llrs = _llrs(metric, (labels[:, None] >> shifts) & 1,
                     received.size == 1)
        # (m, [I | Q] x n) -> per symbol: m I bits, then m Q bits
        return llrs.reshape(m, 2, -1).transpose(2, 1, 0).reshape(-1)

    # Generic path: full |y - s|^2 table.
    diff = received[None, :] - constellation.points[:, None]
    metric = -(diff.real**2 + diff.imag**2) / noise
    llrs = _llrs(metric, constellation.bit_table(), received.size == 1)
    return llrs.T.reshape(-1)
