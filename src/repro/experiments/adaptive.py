"""Sequential (adaptive) sampling for one operating point.

Fixed trial counts waste compute: a high-SNR point where every message
decodes in the same number of symbols needs a handful of trials, while a
point near the waterfall needs hundreds.  This module grows the message
count in cohorts until the confidence half-width of the chosen rate
estimator reaches a target — the classic sequential-sampling loop — while
keeping the paper-grade determinism guarantee: every cohort seed derives
from the point seed, so the stopping trial count is a pure function of
the spec.

Two interval estimators are supported (``AdaptivePolicy.interval``):

- ``"mean"`` (default): a normal approximation over per-message rates
  ``bits_j / symbols_j`` — a proxy for the pooled ratio estimate with a
  well-defined per-sample variance.
- ``"ratio"``: the delta-method variance of the pooled ratio estimator
  ``R = sum(bits) / sum(symbols)`` itself — the quantity the final
  :class:`~repro.simulation.sweep.RateMeasurement` reports.  With
  per-message pairs ``(b_j, s_j)`` and sample (co)variances ``S``,
  ``Var(R) ~ (S_bb - 2 R S_bs + R^2 S_ss) / (n * mean(s)^2)``.  The two
  agree closely away from the waterfall; near it the ratio interval is
  the honest one because failed messages contribute symbols but no bits.
"""

from __future__ import annotations

import math

import numpy as np

from repro.experiments.spec import AdaptivePolicy
from repro.simulation.sweep import (
    ChannelFactory,
    RateMeasurement,
    RatelessScheme,
    run_messages,
)

__all__ = ["adaptive_measure", "ratio_half_width", "z_score"]

#: Two-sided normal quantiles for the supported confidence levels.
_Z_TABLE = {0.80: 1.2816, 0.90: 1.6449, 0.95: 1.9600, 0.99: 2.5758}


def z_score(confidence: float) -> float:
    try:
        return _Z_TABLE[round(confidence, 2)]
    except KeyError:
        raise ValueError(
            f"unsupported confidence {confidence}; "
            f"choose one of {sorted(_Z_TABLE)}"
        ) from None


def _mean_half_width(outcomes: list[tuple[int, int]], z: float) -> float:
    rates = [bits / symbols if symbols else 0.0 for bits, symbols in outcomes]
    if len(rates) < 2:
        return math.inf
    std = float(np.std(rates, ddof=1))
    return z * std / math.sqrt(len(rates))


def ratio_half_width(outcomes: list[tuple[int, int]], z: float) -> float:
    """Delta-method half-width of the pooled ``sum(bits)/sum(symbols)``."""
    if len(outcomes) < 2:
        return math.inf
    bits = np.array([b for b, _ in outcomes], dtype=np.float64)
    symbols = np.array([s for _, s in outcomes], dtype=np.float64)
    mean_symbols = symbols.mean()
    if mean_symbols == 0.0:
        return math.inf
    ratio = bits.sum() / symbols.sum()
    cov = np.cov(bits, symbols, ddof=1)
    var = (cov[0, 0] - 2.0 * ratio * cov[0, 1] + ratio**2 * cov[1, 1]) / (
        len(outcomes) * mean_symbols**2)
    return z * math.sqrt(max(var, 0.0))


_HALF_WIDTHS = {"mean": _mean_half_width, "ratio": ratio_half_width}


def adaptive_measure(
    scheme: RatelessScheme,
    channel_factory: ChannelFactory,
    x: float,
    policy: AdaptivePolicy,
    seed: int = 0,
    batch_size: int | None = None,
    capacity_reference: str = "awgn",
) -> tuple[RateMeasurement, dict]:
    """Grow cohorts until the half-width target (or budget) is hit.

    Returns the pooled measurement plus a JSON-safe trace recording each
    cohort's cumulative message count and half-width, and why sampling
    stopped (``"half_width"`` or ``"budget"``).
    """
    z = z_score(policy.confidence)
    half_width_fn = _HALF_WIDTHS[policy.interval]
    master = np.random.default_rng(seed)
    outcomes: list[tuple[int, int]] = []
    cohorts: list[dict] = []
    target_n = policy.initial_messages
    stopped = "budget"
    while True:
        # one seed per cohort, always drawn — even if the cohort is
        # skipped — so the seed stream depends only on the cohort index
        cohort_seed = int(master.integers(0, 2**63))
        n_new = target_n - len(outcomes)
        if n_new > 0:
            outcomes.extend(run_messages(
                scheme, channel_factory, n_new, cohort_seed, batch_size))
        half_width = half_width_fn(outcomes, z)
        cohorts.append({
            "n_messages": len(outcomes),
            "half_width": half_width if math.isfinite(half_width) else None,
        })
        if half_width <= policy.target_half_width:
            stopped = "half_width"
            break
        if len(outcomes) >= policy.max_messages:
            break
        target_n = min(policy.max_messages,
                       math.ceil(len(outcomes) * policy.growth))
    measurement = RateMeasurement.from_outcomes(
        scheme.name, x, outcomes, capacity_reference)
    trace = {
        "policy": policy.as_dict(),
        "cohorts": cohorts,
        "stopped": stopped,
        "final_half_width": (cohorts[-1]["half_width"]
                             if cohorts else None),
    }
    return measurement, trace
