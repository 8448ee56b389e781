"""Channel families: one name per medium, shared across layers.

The experiment orchestrator (:mod:`repro.experiments`) describes a channel,
for ``measure``, ``symbol_cdf`` and ``link`` points alike, as a
``(family, operating_point, options)`` triple that must survive pickling
and canonical-JSON serialisation.  This table is the single place that
maps those descriptions to live :class:`~repro.channels.base.Channel`
instances, replacing per-caller string dispatch.

The *operating point* is the one scalar every family is swept over: the
SNR in dB for AWGN/Rayleigh, the flip probability for a BSC.  ``options``
carries the family's remaining knobs (e.g. ``coherence_time``); unknown
option names raise.
"""

from __future__ import annotations

from typing import Callable, Mapping

import numpy as np

from repro.channels.awgn import AWGNChannel
from repro.channels.base import Channel
from repro.channels.bsc import BSCChannel
from repro.channels.fading import RayleighBlockFadingChannel

__all__ = ["channel_factory", "channel_family", "make_channel"]

#: Family name -> ``(factory, options)``: ``factory(point, rng, **options)``
#: builds a channel at an operating point, and ``options`` names the
#: keyword knobs it accepts.
_FAMILIES: dict[str, tuple[Callable[..., Channel], tuple[str, ...]]] = {
    "awgn": (lambda point, rng: AWGNChannel(point, rng=rng), ()),
    "rayleigh": (
        lambda point, rng, coherence_time=10: RayleighBlockFadingChannel(
            point, coherence_time=coherence_time, rng=rng),
        ("coherence_time",)),
    # a BSC's operating point is its flip probability
    "bsc": (lambda point, rng: BSCChannel(point, rng=rng), ()),
}


def channel_family(
        name: str, options: Mapping[str, object] | None = None
) -> tuple[Callable[..., Channel], tuple[str, ...]]:
    """The ``(factory, options)`` of family ``name``, after checking that
    it takes every key of ``options``."""
    try:
        factory, accepted = _FAMILIES[name]
    except KeyError:
        raise ValueError(
            f"unknown channel kind {name!r}; "
            f"expected one of {sorted(_FAMILIES)}"
        ) from None
    unknown = set(options or ()) - set(accepted)
    if unknown:
        raise ValueError(
            f"channel family {name!r} does not accept options "
            f"{sorted(unknown)}; accepted: {sorted(accepted)}"
        )
    return factory, accepted


def make_channel(
    kind: str,
    point: float,
    rng: np.random.Generator | int | None = None,
    options: Mapping[str, object] | None = None,
) -> Channel:
    """Build a channel of ``kind`` at operating point ``point``.

    ``options`` supplies family-specific knobs; names the family does not
    declare raise a ``ValueError``.
    """
    factory, _ = channel_family(kind, options)
    return factory(point, rng, **dict(options or {}))


def channel_factory(
    kind: str, point: float, options: Mapping[str, object] | None = None
) -> Callable[[np.random.Generator], Channel]:
    """A per-message factory ``rng -> Channel`` (the sweep-engine shape)."""
    frozen = dict(options or {})
    # validate eagerly so a bad spec fails before any simulation runs
    channel_family(kind)
    if frozen:
        make_channel(kind, point, np.random.default_rng(0), frozen)
    return lambda rng: make_channel(kind, point, rng, frozen)
