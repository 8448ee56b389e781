"""Chrome/Perfetto trace export from the JSONL span/event stream.

Converts a ``repro.obs`` JSONL trace (``--metrics-jsonl``) into the
Trace Event Format that ``ui.perfetto.dev`` and ``chrome://tracing``
open directly:

- ``span`` events (``orchestrator.run``, ``decode.cohort``, ...) become
  complete slices (``ph: "X"``) on the orchestrating process's lane,
  placed at ``t_s - dt_s`` with duration ``dt_s``;
- ``point.done`` events — emitted by the orchestrator as each point's
  result arrives, carrying the worker's pid and wall time — become
  slices on one lane *per worker process*, so the fork-aware pool's
  parallelism is visible;
- every other event (``link.subpass``, ``link.packet``, ...) becomes a
  thread-scoped instant (``ph: "i"``);
- pids are *normalized*: the orchestrating process is always pid 1
  ("repro main") and worker lanes are numbered 2, 3, ... in order of
  first appearance, so two exports of the same stream are byte-identical
  and two runs of the same experiment differ only in timestamps.

Timestamps are microseconds (the format's unit), rounded to 0.001 us.
"""

from __future__ import annotations

import json
import os

from repro.obs.events import SCHEMA_VERSION as EVENTS_SCHEMA_VERSION
from repro.utils.results import write_canonical_json

__all__ = ["TRACE_SCHEMA_VERSION", "trace_from_events", "export_trace"]

TRACE_SCHEMA_VERSION = 1

#: pid the orchestrating (sink-owning) process maps to in the trace.
MAIN_PID = 1

#: Keys every event carries that are not slice/instant arguments.
_STRUCTURAL_KEYS = frozenset({"ev", "name", "t_s", "dt_s", "worker_pid"})


def _us(seconds: float) -> float:
    """Seconds -> trace microseconds, rounded for stable bytes."""
    return round(seconds * 1e6, 3)


def _args_of(event: dict) -> dict:
    return {key: value for key, value in event.items()
            if key not in _STRUCTURAL_KEYS}


class _Lanes:
    """Normalized pid assignment: main is 1, workers 2.. by appearance."""

    def __init__(self, main_os_pid: int | None) -> None:
        self.main_os_pid = main_os_pid
        self._by_os_pid: dict[int, int] = {}

    def pid_for(self, os_pid: int | None) -> int:
        if os_pid is None or os_pid == self.main_os_pid:
            return MAIN_PID
        lane = self._by_os_pid.get(os_pid)
        if lane is None:
            lane = MAIN_PID + 1 + len(self._by_os_pid)
            self._by_os_pid[os_pid] = lane
        return lane

    def metadata(self) -> list[dict]:
        events = [{
            "ph": "M", "name": "process_name", "pid": MAIN_PID, "tid": 0,
            "args": {"name": "repro main"},
        }]
        for lane in sorted(self._by_os_pid.values()):
            events.append({
                "ph": "M", "name": "process_name", "pid": lane, "tid": 0,
                "args": {"name": f"worker-{lane - MAIN_PID - 1}"},
            })
        return events


def trace_from_events(events: list[dict]) -> dict:
    """Build the Trace Event Format document from parsed JSONL events."""
    meta = next((e for e in events if e.get("ev") == "meta"), None)
    main_os_pid = None
    if meta is not None and meta.get("pid") is not None:
        main_os_pid = int(meta["pid"])
    lanes = _Lanes(main_os_pid)
    slices: list[dict] = []
    for event in events:
        ev = str(event.get("ev", ""))
        if ev == "meta":
            continue
        t_s = float(event.get("t_s", 0.0))
        dt_s = event.get("dt_s")
        if ev == "span":
            slices.append({
                "ph": "X", "name": str(event.get("name", "span")),
                "cat": "span", "pid": MAIN_PID, "tid": 1,
                "ts": _us(t_s - float(dt_s or 0.0)),
                "dur": _us(float(dt_s or 0.0)),
                "args": _args_of(event),
            })
        elif ev == "point.done":
            # receipt time minus the worker-measured wall time approximates
            # the point's start; each worker process gets its own lane
            worker = event.get("worker_pid")
            pid = lanes.pid_for(None if worker is None else int(worker))
            series = event.get("series", "?")
            x = event.get("x")
            name = f"point {series}" + (f" @ x={x:g}" if isinstance(
                x, (int, float)) else "")
            slices.append({
                "ph": "X", "name": name, "cat": "point",
                "pid": pid, "tid": 1,
                "ts": _us(t_s - float(dt_s or 0.0)),
                "dur": _us(float(dt_s or 0.0)),
                "args": _args_of(event),
            })
        elif dt_s is not None:
            slices.append({
                "ph": "X", "name": ev, "cat": "event",
                "pid": MAIN_PID, "tid": 1,
                "ts": _us(t_s - float(dt_s)), "dur": _us(float(dt_s)),
                "args": _args_of(event),
            })
        else:
            slices.append({
                "ph": "i", "name": ev, "cat": "event", "s": "t",
                "pid": MAIN_PID, "tid": 1, "ts": _us(t_s),
                "args": _args_of(event),
            })
    other_data = {
        "schema_version": TRACE_SCHEMA_VERSION,
        "events_schema_version": (
            int(meta["schema_version"]) if meta is not None
            and "schema_version" in meta else EVENTS_SCHEMA_VERSION),
        "source": "repro.obs",
    }
    return {
        "displayTimeUnit": "ms",
        "otherData": other_data,
        "traceEvents": lanes.metadata() + slices,
    }


def load_events(jsonl_path: str) -> tuple[list[dict], int]:
    """Parse a JSONL trace file: the events, and how many non-blank lines
    were dropped because they are not JSON or not a JSON object."""
    events: list[dict] = []
    n_dropped = 0
    with open(jsonl_path, encoding="utf-8") as f:
        for line in f:
            line = line.strip()
            if not line:
                continue
            try:
                event = json.loads(line)
            except json.JSONDecodeError:
                event = None
            if isinstance(event, dict):
                events.append(event)
            else:
                n_dropped += 1
    return events, n_dropped


def export_trace(jsonl_path: str, out_path: str) -> dict:
    """Convert a JSONL trace into ``out_path`` (trace.json).

    Creates missing parent directories and writes canonically (sorted
    keys), so exporting the same stream twice is byte-identical.
    Returns a small summary: event counts, the lane count and the number
    of unreadable lines dropped.
    """
    events, n_dropped = load_events(jsonl_path)
    trace = trace_from_events(events)
    write_canonical_json(out_path, trace)
    trace_events = trace["traceEvents"]
    pids = {e["pid"] for e in trace_events}
    return {
        "path": os.path.abspath(out_path),
        "n_events": len(events),
        "n_dropped": n_dropped,
        "n_trace_events": len(trace_events),
        "n_slices": sum(1 for e in trace_events if e["ph"] == "X"),
        "n_lanes": len(pids),
    }
