"""Output-symbol degree distributions for LT/Raptor codes.

The paper's Raptor baseline uses "the degree distribution in the Raptor
RFC" (RFC 5053 §5.4.4.2), a fixed table optimised jointly with the
precode.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "RFC5053_DEGREES",
    "sample_rfc5053_degree",
]

#: RFC 5053 degree table: (cumulative threshold out of 2^20, degree).
#: A uniform v in [0, 2^20) selects the first row with v < threshold.
RFC5053_DEGREES: tuple[tuple[int, int], ...] = (
    (10241, 1),
    (491582, 2),
    (712794, 3),
    (831695, 4),
    (948446, 10),
    (1032189, 11),
    (1048576, 40),
)

_THRESHOLDS = np.array([t for t, _ in RFC5053_DEGREES], dtype=np.int64)
_DEGREE_VALUES = np.array([d for _, d in RFC5053_DEGREES], dtype=np.int64)


def sample_rfc5053_degree(rng: np.random.Generator, size: int = 1) -> np.ndarray:
    """Draw output degrees from the RFC 5053 table."""
    v = rng.integers(0, 1 << 20, size=size)
    idx = np.searchsorted(_THRESHOLDS, v, side="right")
    return _DEGREE_VALUES[idx]

