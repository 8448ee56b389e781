"""Declarative experiment specs (the orchestration subsystem's vocabulary).

A Monte-Carlo sweep is described entirely by data: which scheme (by
kind name plus JSON-safe constructor options), which channel family
(by :mod:`repro.channels.registry` name), which operating points, how many
messages, which seeds.  Because the description is pure data it can be

- **pickled** to worker processes (the orchestrator's unit of work is one
  :class:`PointSpec`),
- **hashed** to a canonical content address (the store file name and the
  per-point result key), and
- **rebuilt** bit-identically later — the same spec always reruns the
  same simulation, which is what lets the store skip completed points.

Seeds are explicit per point, not derived from grid position at run time,
so a spec can carry any figure's exact seeding policy
(``seed = base + stride * i`` and ``seed = int(snr) + tau`` style
formulas).
"""

from __future__ import annotations

import hashlib
import importlib
import inspect
from dataclasses import dataclass, field
from typing import Callable, Mapping

import numpy as np

from repro.channels.registry import channel_family
from repro.core.params import DecoderParams, SpinalParams
from repro.simulation.sweep import CAPACITY_FNS, RatelessScheme, SpinalScheme
from repro.utils.results import canonical_json

__all__ = [
    "ADAPTIVE_INTERVALS",
    "AdaptivePolicy",
    "ChannelSpec",
    "ExperimentSpec",
    "POINT_KINDS",
    "PointSpec",
    "SchemeSpec",
    "grid",
    "make_scheme",
    "point_hash",
    "spec_hash",
]


def grid(lo: float, hi: float, step: float) -> list[float]:
    """Inclusive-endpoint arithmetic grid (the paper sweeps SNR in 1 dB
    steps from ``lo`` to ``hi``; the endpoint must not fall off the edge
    to float error)."""
    return [float(x) for x in np.arange(lo, hi + 1e-9, step)]


# --------------------------------------------------------------------------
# scheme kinds: name -> factory over JSON-safe options
# --------------------------------------------------------------------------

def _make_spinal(
    n_bits: int,
    params: Mapping | None = None,
    decoder: Mapping | None = None,
    give_csi: bool | str = False,
    probe_growth: float = 1.5,
    label: str | None = None,
    fixed_passes: int | None = None,
) -> RatelessScheme:
    return SpinalScheme(
        SpinalParams(**dict(params or {})),
        DecoderParams(**dict(decoder or {})),
        n_bits,
        give_csi=give_csi,
        probe_growth=probe_growth,
        label=label,
        fixed_passes=fixed_passes,
    )


class _Imported:
    """The scheme class ``name`` of ``module``, imported when it is first
    called or its signature read, so a spinal spec loads no baseline
    code."""

    def __init__(self, module: str, name: str):
        self._module, self._name = module, name

    def _load(self) -> Callable[..., RatelessScheme]:
        cls: Callable[..., RatelessScheme] = getattr(
            importlib.import_module(self._module), self._name)
        return cls

    @property
    def __signature__(self) -> inspect.Signature:
        return inspect.signature(self._load())

    def __call__(self, **options: object) -> RatelessScheme:
        return self._load()(**options)


#: Scheme kind -> its factory, whose keyword parameters are the options
#: the kind accepts.
_SCHEMES: dict[str, Callable[..., RatelessScheme]] = {
    "spinal": _make_spinal,
    "raptor": _Imported("repro.fountain", "RaptorScheme"),
    "strider": _Imported("repro.strider", "StriderScheme"),
}

#: Point kind -> the spec fields it needs and the ``options`` keys it
#: accepts.  :class:`PointSpec` refuses any other kind, a missing field
#: and any other key when it is built, so a misspelled knob fails at once
#: instead of caching the default's result under the typo's content
#: address.
POINT_KINDS: dict[str, tuple[tuple[str, ...], tuple[str, ...]]] = {
    "measure": (("scheme", "channel"), ()),
    "ldpc_envelope": ((), ("n_blocks", "iterations")),
    "link": (("channel",), ("job_id", "n_packets", "payload_bytes", "params",
                            "decoder", "config")),
    "symbol_cdf": (("channel",), ("n_bits", "params", "decoder",
                                  "probe_growth")),
    "papr": ((), ("constellation", "n_ofdm_symbols")),
}


# --------------------------------------------------------------------------
# spec dataclasses
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class SchemeSpec:
    """A scheme by kind name plus JSON-safe constructor options.  Building
    one refuses an unknown kind, and option keys its factory in
    :data:`_SCHEMES` does not take, with ``ValueError``, so a misspelled
    knob fails at once instead of in a worker."""

    kind: str
    options: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        try:
            factory = _SCHEMES[self.kind]
        except KeyError:
            raise ValueError(
                f"unknown scheme kind {self.kind!r}; "
                f"expected one of {sorted(_SCHEMES)}") from None
        try:
            inspect.signature(factory).bind_partial(**self.options)
        except TypeError as exc:
            raise ValueError(
                f"{self.kind} scheme options {sorted(self.options)}: "
                f"{exc}") from None

    def as_dict(self) -> dict:
        return {"kind": self.kind, "options": dict(self.options)}


def make_scheme(spec: SchemeSpec) -> RatelessScheme:
    """Instantiate the live scheme a spec describes (in the worker)."""
    return _SCHEMES[spec.kind](**spec.options)


@dataclass(frozen=True)
class ChannelSpec:
    """A channel family by name plus family options.  Building one
    refuses an unknown family or option key with ``ValueError``."""

    kind: str
    options: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        # fail at spec-build time, not in workers
        channel_family(self.kind, self.options)

    def as_dict(self) -> dict:
        return {"kind": self.kind, "options": dict(self.options)}


#: Interval estimators the adaptive sampler supports.  ``"mean"`` targets
#: the mean per-message rate (the original behaviour); ``"ratio"`` targets
#: the pooled bits/symbols rate the final ``RateMeasurement`` actually
#: reports, via the delta-method variance of the ratio estimator.
ADAPTIVE_INTERVALS = ("mean", "ratio")


@dataclass(frozen=True)
class AdaptivePolicy:
    """Sequential-sampling stopping rule for one operating point.

    Messages are run in growing cohorts until the normal-approximation
    confidence half-width of the chosen rate estimator falls to
    ``target_half_width`` (or ``max_messages`` is reached).  All cohort
    seeds derive from the point seed, so the trial count at which sampling
    stops is deterministic.

    ``interval`` picks the estimator the half-width is computed for:
    ``"mean"`` (default) is the mean of per-message ``bits/symbols``
    rates; ``"ratio"`` is the pooled ``sum(bits)/sum(symbols)`` rate via
    the delta method.  The default is unchanged so existing spec hashes
    and stopping points stay stable (``as_dict`` omits the field at its
    default for the same reason).
    """

    target_half_width: float
    confidence: float = 0.95
    initial_messages: int = 8
    growth: float = 2.0
    max_messages: int = 512
    interval: str = "mean"

    def __post_init__(self) -> None:
        if self.target_half_width <= 0:
            raise ValueError("target_half_width must be > 0")
        if self.initial_messages < 2:
            raise ValueError("initial_messages must be >= 2 (need a variance)")
        if self.growth <= 1.0:
            raise ValueError("growth must be > 1")
        if self.max_messages < self.initial_messages:
            raise ValueError("max_messages must be >= initial_messages")
        if self.interval not in ADAPTIVE_INTERVALS:
            raise ValueError(
                f"unknown interval {self.interval!r}; "
                f"expected one of {ADAPTIVE_INTERVALS}")

    def as_dict(self) -> dict:
        record = {
            "target_half_width": self.target_half_width,
            "confidence": self.confidence,
            "initial_messages": self.initial_messages,
            "growth": self.growth,
            "max_messages": self.max_messages,
        }
        if self.interval != "mean":
            # keep pre-existing content hashes stable: specs written before
            # the knob existed hash a 5-field policy
            record["interval"] = self.interval
        return record


@dataclass(frozen=True)
class PointSpec:
    """One fully-specified operating point (the orchestrator's job unit).

    ``kind`` selects the job runner:

    - ``"measure"`` feeds a scheme through
      :func:`repro.simulation.sweep.measure_scheme` (pooled
      ``RateMeasurement`` record);
    - ``"ldpc_envelope"`` evaluates the fixed-rate LDPC best envelope
      (which reports a rate directly rather than per-message outcomes);
    - ``"link"`` runs one :class:`repro.link.LinkSession` flow — a
      packet-level ARQ flow with framing/feedback cost — through the same
      deterministic worker pool;
    - ``"symbol_cdf"`` records the distributional payload behind Figure
      8-11: per-message symbol counts of successful decodes;
    - ``"papr"`` measures an OFDM PAPR table row.

    ``x`` is the channel family's operating-point scalar — SNR in dB, or
    flip probability for a BSC (for ``"papr"`` it is just the table row
    index).  ``options`` carries the kind's extras.  Building a point
    checks its fields and option keys against :data:`POINT_KINDS`,
    ``capacity_reference`` against the known capacities and a link
    point's ``n_packets`` and ``payload_bytes`` (integers >= 1), and raises
    ``ValueError`` on a mismatch.
    """

    series: str
    x: float
    seed: int
    kind: str = "measure"
    scheme: SchemeSpec | None = None
    channel: ChannelSpec | None = None
    n_messages: int = 1
    batch_size: int | None = None
    capacity_reference: str = "awgn"
    adaptive: AdaptivePolicy | None = None
    options: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        try:
            needs, accepted = POINT_KINDS[self.kind]
        except KeyError:
            raise ValueError(
                f"unknown point kind {self.kind!r}; "
                f"expected one of {sorted(POINT_KINDS)}") from None
        missing = [name for name in needs if getattr(self, name) is None]
        if missing:
            raise ValueError(
                f"{self.kind} points need a {' and a '.join(missing)}")
        unknown = set(self.options) - set(accepted)
        if unknown:
            raise ValueError(
                f"unknown {self.kind} point options {sorted(unknown)}; "
                f"accepted: {sorted(accepted)}")
        if self.capacity_reference not in CAPACITY_FNS:
            raise ValueError(
                f"unknown capacity reference {self.capacity_reference!r}; "
                f"expected one of {sorted(CAPACITY_FNS)}")
        if self.kind == "link":
            # a flow of no packets, or of empty ones, measures nothing
            for name in ("n_packets", "payload_bytes"):
                value = self.options.get(name, 1)
                if not isinstance(value, (int, np.integer)) or value < 1:
                    raise ValueError(f"link points need an integer {name} "
                                     f">= 1, got {value!r}")

    def as_dict(self) -> dict:
        return {
            "series": self.series,
            "x": float(self.x),
            "seed": int(self.seed),
            "kind": self.kind,
            "scheme": self.scheme.as_dict() if self.scheme else None,
            "channel": self.channel.as_dict() if self.channel else None,
            "n_messages": int(self.n_messages),
            "batch_size": self.batch_size,
            "capacity_reference": self.capacity_reference,
            "adaptive": self.adaptive.as_dict() if self.adaptive else None,
            "options": dict(self.options),
        }


@dataclass(frozen=True)
class ExperimentSpec:
    """A named sweep: metadata plus the flat list of operating points."""

    experiment_id: str
    title: str
    profile: str
    points: tuple[PointSpec, ...]

    def as_dict(self) -> dict:
        return {
            "experiment_id": self.experiment_id,
            "title": self.title,
            "profile": self.profile,
            "points": [p.as_dict() for p in self.points],
        }


def _digest(payload: object) -> str:
    return hashlib.sha256(
        canonical_json(payload).encode("utf-8")).hexdigest()[:16]


def _hash_payload(point: PointSpec) -> dict:
    """The result-determining fields of a point.

    ``batch_size`` is an execution-strategy knob, not part of the result:
    the batched engine is bit-identical to the scalar one (the
    ``run_messages`` contract, asserted by ``tests/test_batch_equivalence``
    for every channel family), so rebatching a sweep must keep its content
    address — otherwise tuning the knob silently discards every cached
    point.
    """
    payload = point.as_dict()
    del payload["batch_size"]
    return payload


def point_hash(point: PointSpec) -> str:
    """Content address of one operating point (the store's result key)."""
    return _digest(_hash_payload(point))


def spec_hash(spec: ExperimentSpec) -> str:
    """Content address of the whole spec (the store's file name)."""
    payload = spec.as_dict()
    payload["points"] = [_hash_payload(p) for p in spec.points]
    return _digest(payload)
