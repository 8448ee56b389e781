"""Bit-level helpers shared across the library.

Messages throughout the code base are numpy ``uint8`` arrays holding one bit
per element (values 0 or 1), most-significant bit first within each original
byte.  These helpers convert between that representation and bytes, Python
integers, and the k-bit chunks consumed by the spinal encoder.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "bits_from_bytes",
    "bits_to_bytes",
    "bits_from_int",
    "chunk_bits",
    "pack_chunks",
    "random_message",
]


def bits_from_bytes(data: bytes | bytearray | np.ndarray) -> np.ndarray:
    """Expand bytes into a bit array (MSB-first within each byte).

    >>> bits_from_bytes(b"\\x80").tolist()
    [1, 0, 0, 0, 0, 0, 0, 0]
    """
    arr = np.frombuffer(bytes(data), dtype=np.uint8)
    return np.unpackbits(arr)


def bits_to_bytes(bits: np.ndarray) -> bytes:
    """Pack a bit array back into bytes, zero-padding to a byte boundary."""
    bits = np.asarray(bits, dtype=np.uint8)
    if bits.size % 8:
        pad = 8 - bits.size % 8
        bits = np.concatenate([bits, np.zeros(pad, dtype=np.uint8)])
    return np.packbits(bits).tobytes()


def bits_from_int(value: int, width: int) -> np.ndarray:
    """Bits of ``value`` as a length-``width`` array, MSB first.

    >>> bits_from_int(5, 4).tolist()
    [0, 1, 0, 1]
    """
    if value < 0:
        raise ValueError("value must be non-negative")
    if width < 0:
        raise ValueError("width must be non-negative")
    if value >> width:
        raise ValueError(f"value {value} does not fit in {width} bits")
    out = np.zeros(width, dtype=np.uint8)
    for i in range(width):
        out[width - 1 - i] = (value >> i) & 1
    return out


def chunk_bits(bits: np.ndarray, k: int) -> np.ndarray:
    """Group a bit array into k-bit integers (MSB first within each chunk).

    The message length must be divisible by ``k``; the spinal framing layer is
    responsible for padding before encoding.

    >>> chunk_bits(np.array([1, 0, 1, 1], dtype=np.uint8), 2).tolist()
    [2, 3]
    """
    bits = np.asarray(bits, dtype=np.uint8)
    if bits.size % k:
        raise ValueError(f"bit count {bits.size} not divisible by k={k}")
    weights = (1 << np.arange(k - 1, -1, -1)).astype(np.uint32)
    return (bits.reshape(-1, k).astype(np.uint32) * weights).sum(axis=1)


def pack_chunks(chunks: np.ndarray, k: int) -> np.ndarray:
    """Inverse of :func:`chunk_bits`: expand k-bit integers into a bit array."""
    chunks = np.asarray(chunks, dtype=np.uint32)
    if chunks.size and int(chunks.max()) >> k:
        raise ValueError(f"chunk value exceeds {k} bits")
    shifts = np.arange(k - 1, -1, -1, dtype=np.uint32)
    return ((chunks[:, None] >> shifts) & 1).astype(np.uint8).ravel()


def random_message(n_bits: int, rng: np.random.Generator | int | None = None) -> np.ndarray:
    """Uniformly random bit array of length ``n_bits``."""
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)
    return rng.integers(0, 2, size=n_bits, dtype=np.uint8)
