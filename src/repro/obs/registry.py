"""Process-wide metrics registry with a provably-cheap disabled path.

The observability layer exists to answer "where does decode time go?"
without ever influencing what is being measured.  Two disciplines make
that hold:

- **Out-of-band by construction.**  The registry only ever *reads* the
  wall clock and *accumulates* counts; nothing here touches numpy RNG
  state, simulation inputs, or result records.  Enabling metrics therefore
  cannot change RNG streams, decode results, spec hashes, or store bytes —
  ``tests/test_obs.py`` asserts byte-identical store files with metrics on
  and off.
- **Zero overhead when disabled.**  ``OBS`` is a singleton whose mutating
  methods return immediately when ``OBS.enabled`` is False, and whose
  context-manager factory (:meth:`Observability.span`) hands back one
  cached no-op instance — no allocation per call.  Hot loops (the decode
  kernels) go one step further: they snapshot ``OBS.enabled`` into a
  local, accumulate elapsed time in plain floats, and flush once per
  decode via :meth:`Observability.add_time`, so the disabled path costs a
  single branch per kernel call and allocates nothing per symbol.

All wall-clock reads in the repository go through this module's
:data:`clock` (re-exported by :mod:`repro.obs`): the ``no-wallclock``
rule in :mod:`repro.lint` flags ad-hoc ``time.time()`` / ``perf_counter``
use outside ``obs/`` (enforced by the tier-1 suite), so timing can never leak into
simulation logic.
"""

from __future__ import annotations

import os
from time import perf_counter as clock
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs.events import EventSink

__all__ = ["Observability", "TimeStat", "OBS", "clock"]


class TimeStat:
    """Streaming wall-time statistics for one named timer.

    ``add`` records a single observation (a span);
    ``add_bulk`` folds a pre-accumulated total over ``calls`` observations
    (the hot-loop flush pattern), which keeps totals exact but leaves
    min/max unknown for those observations.
    """

    __slots__ = ("n", "total", "min", "max")

    def __init__(self) -> None:
        self.n = 0
        self.total = 0.0
        self.min: float | None = None
        self.max: float | None = None

    def add(self, seconds: float) -> None:
        self.n += 1
        self.total += seconds
        if self.min is None or seconds < self.min:
            self.min = seconds
        if self.max is None or seconds > self.max:
            self.max = seconds

    def add_bulk(self, seconds: float, calls: int) -> None:
        self.n += calls
        self.total += seconds

    @property
    def mean(self) -> float:
        return self.total / self.n if self.n else 0.0

    def as_dict(self) -> dict:
        return {
            "n": self.n,
            "total_s": self.total,
            "mean_s": self.mean,
            "min_s": self.min,
            "max_s": self.max,
        }

    def merge(self, record: dict) -> None:
        """Fold a snapshot record (e.g. from a worker process) into this."""
        self.n += int(record["n"])
        self.total += float(record["total_s"])
        for attr, fold in (("min", min), ("max", max)):
            other = record.get(f"{attr}_s")
            if other is None:
                continue
            ours = getattr(self, attr)
            setattr(self, attr, other if ours is None else fold(ours, other))


class _NullContext:
    """Shared no-op context manager: the entire disabled-path cost."""

    __slots__ = ()

    def __enter__(self) -> "_NullContext":
        return self

    def __exit__(self, *exc: object) -> bool:
        return False


_NULL_CONTEXT = _NullContext()


class _Span:
    """Context manager recording one wall-time observation and emitting a
    JSONL span event on exit."""

    __slots__ = ("_obs", "_name", "_attrs", "_t0")

    def __init__(self, obs: "Observability", name: str, attrs: dict) -> None:
        self._obs = obs
        self._name = name
        self._attrs = attrs
        self._t0 = 0.0

    def __enter__(self) -> "_Span":
        self._t0 = clock()
        return self

    def __exit__(self, *exc: object) -> bool:
        dt = clock() - self._t0
        self._obs._observe(self._name, dt)
        self._obs._emit({"ev": "span", "name": self._name,
                         "dt_s": dt, **self._attrs})
        return False


class Observability:
    """The process-wide metrics singleton (use the module-level ``OBS``).

    Disabled (the default), every method is a no-op; counters stay empty
    and spans hand back a cached null context.  :meth:`enable` switches
    on recording and optionally attaches a JSONL event sink.

    The registry is fork-aware: :attr:`owner_pid` records which process
    enabled it, so a worker forked mid-run can detect the inherited state
    (:meth:`in_foreign_process`) and :meth:`adopt` a clean, sink-less
    registry of its own whose snapshot the parent later merges.
    """

    def __init__(self) -> None:
        self.enabled = False
        self.owner_pid: int | None = None
        self._counters: dict[str, int] = {}
        self._times: dict[str, TimeStat] = {}
        self._sink: "EventSink | None" = None
        self._t_enabled = 0.0

    # -- lifecycle ---------------------------------------------------------

    def enable(self, jsonl_path: str | None = None) -> None:
        """Start recording; optionally stream events to a JSONL file."""
        if jsonl_path is not None:
            from repro.obs.events import EventSink
            self._sink = EventSink(jsonl_path)
        self.enabled = True
        self.owner_pid = os.getpid()
        self._t_enabled = clock()

    def disable(self) -> None:
        """Stop recording and close any event sink (data is kept)."""
        self.enabled = False
        if self._sink is not None:
            self._sink.close()
            self._sink = None

    def reset(self) -> None:
        """Drop all recorded data (recording state is unchanged)."""
        self._counters.clear()
        self._times.clear()

    def in_foreign_process(self) -> bool:
        """True when this registry's state was inherited across a fork."""
        return self.enabled and self.owner_pid != os.getpid()

    def adopt(self) -> None:
        """Claim an inherited registry for this (worker) process.

        Clears inherited data and drops the reference to the parent's
        event sink without closing it (the parent still owns that file).
        """
        self._sink = None
        self.reset()
        self.enabled = True
        self.owner_pid = os.getpid()
        self._t_enabled = clock()

    # -- recording ---------------------------------------------------------

    def counter(self, name: str, n: int = 1) -> None:
        """Increment a named counter (no-op while disabled)."""
        if not self.enabled:
            return
        self._counters[name] = self._counters.get(name, 0) + n

    def _observe(self, name: str, seconds: float) -> None:
        stat = self._times.get(name)
        if stat is None:
            stat = self._times[name] = TimeStat()
        stat.add(seconds)

    def add_time(self, name: str, seconds: float, calls: int = 1) -> None:
        """Fold a pre-accumulated duration over ``calls`` observations.

        The hot-loop flush primitive: decode kernels accumulate elapsed
        time in locals and call this once per decode, so enabling metrics
        costs two clock reads per kernel call and disabling costs one
        branch.
        """
        if not self.enabled or calls == 0:
            return
        stat = self._times.get(name)
        if stat is None:
            stat = self._times[name] = TimeStat()
        stat.add_bulk(seconds, calls)

    def span(self, name: str, **attrs: object) -> "_NullContext | _Span":
        """Context manager timing a block and emitting a JSONL span event
        (cached no-op while disabled)."""
        if not self.enabled:
            return _NULL_CONTEXT
        return _Span(self, name, attrs)

    def _emit(self, payload: dict) -> None:
        if self._sink is not None:
            payload.setdefault("t_s", clock() - self._t_enabled)
            self._sink.write(payload)

    def event(self, name: str, **fields: object) -> None:
        """Emit one JSONL event (and count it).  No-op while disabled.

        Hot call sites should guard with ``if OBS.enabled:`` so the
        keyword dict is never built on the disabled path.
        """
        if not self.enabled:
            return
        self.counter(name)
        self._emit({"ev": name, **fields})

    # -- aggregation -------------------------------------------------------

    def snapshot(self) -> dict:
        """JSON-safe view of everything recorded so far."""
        return {
            "counters": dict(self._counters),
            "timers": {name: stat.as_dict()
                       for name, stat in self._times.items()},
        }

    def drain(self) -> dict:
        """Snapshot then clear — the worker-to-parent handoff."""
        snap = self.snapshot()
        self.reset()
        return snap

    def merge(self, snapshot: dict) -> None:
        """Fold another registry's snapshot (e.g. a worker's) into this."""
        if not self.enabled:
            return
        for name, n in snapshot.get("counters", {}).items():
            self._counters[name] = self._counters.get(name, 0) + int(n)
        for name, record in snapshot.get("timers", {}).items():
            stat = self._times.get(name)
            if stat is None:
                stat = self._times[name] = TimeStat()
            stat.merge(record)


#: The process-wide singleton every instrumentation site imports.
OBS = Observability()
