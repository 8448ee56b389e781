"""``repro.obs`` — zero-overhead observability: metrics, traces, profiles.

The reproduction's instrumentation layer: counters, wall-time statistics,
span phase timers, a JSONL event sink, and an end-of-run summary.
Disabled by default and free when disabled; when enabled it is strictly
out-of-band — it never changes RNG streams, decode results, spec hashes,
or store bytes (``tests/test_obs.py`` proves both properties).

Typical use::

    from repro.obs import OBS

    OBS.enable(jsonl_path="trace.jsonl")   # or plain OBS.enable()
    ... run experiments ...
    print(render_summary(OBS.snapshot()))
    OBS.disable()

or from the CLI: ``python -m repro.experiments run <name> --metrics``.

Instrumentation sites use two patterns, from coldest to hottest:

- ``with OBS.span("orchestrator.run", experiment=...)`` — a timed phase
  that also emits a JSONL event;
- flag-guarded accumulators flushed via ``OBS.add_time(name, t, calls)``
  — the decode kernel hot loops, where the disabled path must cost one
  branch and zero allocations.

All wall-clock access goes through :data:`clock` — CI forbids
``time.time()`` / ``perf_counter`` anywhere else under ``src/repro`` so
timing never leaks into simulation logic.
"""

from repro.obs.events import EventSink
from repro.obs.registry import OBS, Observability, TimeStat, clock
from repro.obs.report import (
    METRICS_SCHEMA_VERSION,
    kernel_breakdown,
    metrics_payload,
    render_summary,
)

__all__ = [
    "OBS",
    "Observability",
    "TimeStat",
    "EventSink",
    "METRICS_SCHEMA_VERSION",
    "clock",
    "kernel_breakdown",
    "metrics_payload",
    "render_summary",
]
