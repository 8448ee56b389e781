"""Analytical results from the paper (§4.6, Appendix A)."""

from repro.theory.bounds import (
    achievable_rate_bound,
    delta_gap,
    uniform_constellation_gap,
)

__all__ = [
    "delta_gap",
    "achievable_rate_bound",
    "uniform_constellation_gap",
]
