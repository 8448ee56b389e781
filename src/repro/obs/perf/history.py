"""Append-only, machine-fingerprinted bench history and baselines.

Every ``BENCH_*.json`` emitter records its payload here (see
``benchmarks/_common.write_json`` and the ``link_goodput`` catalog
report): the payload is normalized into named *metrics* under one
versioned schema and appended as a single line to
``bench_results/history/BENCH_history.jsonl``, stamped with a machine
fingerprint.  Committed per-suite baselines
(``bench_results/history/baselines/<suite>.json``) carry the same record
shape, which is what ``python -m repro.obs.perf compare`` gates against.

Schema (``HISTORY_SCHEMA_VERSION``), one record per line::

    {"schema_version": 1, "kind": "bench_record" | "bench_baseline",
     "suite": "kernels", "recorded_at": <epoch seconds>,
     "fingerprint": {...}, "fingerprint_id": "<12 hex>",
     "profile": "quick" | "full" | null, "source": "BENCH_kernels.json",
     "metrics": {"<name>": {"value": float, "higher_is_better": bool|null,
                            "stddev": float|null, "n": int|null,
                            "unit": str, "machine_free": bool}}}

Metric semantics:

- ``higher_is_better`` orients the regression test (throughput up = good,
  kernel seconds up = bad); ``null`` means "track, never gate";
- ``stddev``/``n`` come from recorded rounds where the emitter has them
  (pytest-benchmark suites); absolute metrics without them lean on the
  cross-record noise estimate in :mod:`repro.obs.perf.compare`;
- ``machine_free`` marks metrics whose value does not depend on the host
  (speedup *ratios*, deterministic simulation outputs such as goodput):
  these are still gated when baseline and current run carry different
  fingerprints, where absolute timings are only flagged.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
from dataclasses import dataclass
from time import time as _wall_time

from repro.utils.results import write_canonical_json

__all__ = [
    "HISTORY_SCHEMA_VERSION",
    "SKIP_REASONS",
    "Metric",
    "machine_fingerprint",
    "fingerprint_id",
    "normalize_payload",
    "suite_from_filename",
    "BenchHistory",
    "record_bench",
]

HISTORY_SCHEMA_VERSION = 1

#: File name of the append-only history inside a history directory.
HISTORY_FILENAME = "BENCH_history.jsonl"

#: Subdirectory holding the committed per-suite baselines.
BASELINES_DIRNAME = "baselines"

#: Why :meth:`BenchHistory.load_counted` passed over a history line.
SKIP_REASONS = ("malformed_json", "not_a_record", "future_schema")


@dataclass(frozen=True)
class Metric:
    """One normalized bench number (see the module docstring for fields)."""

    value: float
    higher_is_better: bool | None = False
    stddev: float | None = None
    n: int | None = None
    unit: str = ""
    machine_free: bool = False

    def as_dict(self) -> dict:
        return {
            "value": self.value,
            "higher_is_better": self.higher_is_better,
            "stddev": self.stddev,
            "n": self.n,
            "unit": self.unit,
            "machine_free": self.machine_free,
        }

    @classmethod
    def from_dict(cls, record: dict) -> "Metric":
        return cls(
            value=float(record["value"]),
            higher_is_better=record.get("higher_is_better", False),
            stddev=(None if record.get("stddev") is None
                    else float(record["stddev"])),
            n=None if record.get("n") is None else int(record["n"]),
            unit=str(record.get("unit", "")),
            machine_free=bool(record.get("machine_free", False)),
        )


# ---------------------------------------------------------------------------
# machine fingerprint
# ---------------------------------------------------------------------------

def _cpu_model() -> str:
    """Best-effort CPU model name (Linux ``/proc/cpuinfo``, else platform)."""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.lower().startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def machine_fingerprint() -> dict:
    """The perf-relevant identity of this host + toolchain.

    Two runs are noise-comparable only when their fingerprints match:
    same CPU, core count, OS family, python minor, and numpy — the knobs
    that move absolute bench numbers without any code change.
    """
    import numpy
    major, minor = platform.python_version_tuple()[:2]
    return {
        "system": platform.system(),
        "machine": platform.machine(),
        "cpu": _cpu_model(),
        "cpu_count": os.cpu_count() or 1,
        "python": f"{major}.{minor}",
        "numpy": numpy.__version__,
    }


def fingerprint_id(fingerprint: dict) -> str:
    """Stable 12-hex identifier for a fingerprint dict."""
    text = json.dumps(fingerprint, sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:12]


# ---------------------------------------------------------------------------
# payload normalization (one versioned metric schema for every suite)
# ---------------------------------------------------------------------------

def _normalize_decoder_throughput(payload: dict) -> dict[str, Metric]:
    metrics: dict[str, Metric] = {}
    for key, value in payload.items():
        if not isinstance(value, (int, float)):
            continue
        if key.endswith("_msgs_per_sec"):
            metrics[key] = Metric(float(value), higher_is_better=True,
                                  unit="msgs/s")
        elif "speedup" in key:
            # ratios of two timings on the same host: machine-free, so the
            # gate survives a fingerprint change (this is what replaced the
            # old --min-speedup / --min-fading-speedup CI flags)
            metrics[key] = Metric(float(value), higher_is_better=True,
                                  unit="x", machine_free=True)
        elif key.endswith("bits_per_symbol"):
            # deterministic simulation output: any drift is a behavior
            # change, not a perf regression — track, never gate
            metrics[key] = Metric(float(value), higher_is_better=None,
                                  unit="bits/symbol", machine_free=True)
    return metrics


def _normalize_kernels(payload: dict) -> dict[str, Metric]:
    metrics: dict[str, Metric] = {}
    for record in payload.get("records", []):
        name = f"{record['group']}.{record['name']}"
        if "mean_s" not in record:
            continue
        metrics[name] = Metric(
            float(record["mean_s"]),
            higher_is_better=False,
            stddev=(None if record.get("stddev_s") is None
                    else float(record["stddev_s"])),
            n=None if record.get("rounds") is None else int(record["rounds"]),
            unit="s",
        )
    return metrics


def _normalize_link_goodput(payload: dict) -> dict[str, Metric]:
    metrics: dict[str, Metric] = {}
    for series in ("oracle", "framed", "framed_delayed"):
        for record in payload.get(series, []):
            flow = record.get("flow", record.get("job_id", "?"))
            metrics[f"{series}.{flow}.goodput"] = Metric(
                float(record["goodput"]), higher_is_better=True,
                unit="bits/symbol", machine_free=True)
    return metrics


def _normalize_kernels_backend(payload: dict) -> dict[str, Metric]:
    """Cross-backend kernel speedups from ``BENCH_kernels_backend.json``.

    The payload pairs each numpy kernel timing with its numba counterpart
    (``pairs``: group/name/numpy_mean_s/numba_mean_s/speedup); the ratio
    is machine-free so the ≥5x hash-kernel gate survives fingerprint
    changes and even a seeded target baseline.
    """
    metrics: dict[str, Metric] = {}
    for record in payload.get("pairs", []):
        name = f"speedup.{record['group']}.{record['name']}"
        metrics[name] = Metric(
            float(record["speedup"]), higher_is_better=True,
            unit="x", machine_free=True)
    return metrics


def _normalize_generic(payload: dict) -> dict[str, Metric]:
    """Fallback: record top-level numeric leaves, gate nothing."""
    return {
        key: Metric(float(value), higher_is_better=None)
        for key, value in payload.items()
        if isinstance(value, (int, float)) and not isinstance(value, bool)
    }


_NORMALIZERS = {
    "decoder_throughput": _normalize_decoder_throughput,
    # numba-path decoder throughput: same payload shape, separate suite so
    # its baseline can't collide with the numpy one
    "decoder_throughput_numba": _normalize_decoder_throughput,
    "kernels": _normalize_kernels,
    "kernels_backend": _normalize_kernels_backend,
    "link_goodput": _normalize_link_goodput,
}


def normalize_payload(suite: str, payload: dict) -> dict[str, Metric]:
    """Normalize one ``BENCH_<suite>.json`` payload into named metrics."""
    normalizer = _NORMALIZERS.get(suite, _normalize_generic)
    return normalizer(payload)


def suite_from_filename(path: str) -> str:
    """``.../BENCH_decoder_throughput.json`` -> ``decoder_throughput``."""
    base = os.path.basename(path)
    name = base[:-len(".json")] if base.endswith(".json") else base
    if name.startswith("BENCH_"):
        name = name[len("BENCH_"):]
    return name


def _profile_of(payload: dict) -> str | None:
    """The bench profile, if the payload records one (config.profile)."""
    for key in ("config", "fading_config"):
        config = payload.get(key)
        if isinstance(config, dict) and "profile" in config:
            return str(config["profile"])
    profile = payload.get("profile")
    return str(profile) if profile is not None else None


# ---------------------------------------------------------------------------
# the history store
# ---------------------------------------------------------------------------

class BenchHistory:
    """Append-only JSONL bench history plus the per-suite baseline files."""

    def __init__(self, root: str) -> None:
        self.root = os.path.abspath(root)
        self.path = os.path.join(self.root, HISTORY_FILENAME)
        self.baselines_dir = os.path.join(self.root, BASELINES_DIRNAME)

    # -- recording ---------------------------------------------------------

    def make_record(
        self,
        suite: str,
        payload: dict,
        source: str = "",
        fingerprint: dict | None = None,
        recorded_at: float | None = None,
    ) -> dict:
        """Normalize ``payload`` into one history record (not yet written)."""
        fp = machine_fingerprint() if fingerprint is None else fingerprint
        metrics = normalize_payload(suite, payload)
        return {
            "schema_version": HISTORY_SCHEMA_VERSION,
            "kind": "bench_record",
            "suite": suite,
            "recorded_at": (_wall_time() if recorded_at is None
                            else float(recorded_at)),
            "fingerprint": fp,
            "fingerprint_id": fingerprint_id(fp),
            "profile": _profile_of(payload),
            "source": source,
            "metrics": {name: metric.as_dict()
                        for name, metric in metrics.items()},
        }

    def append(self, record: dict) -> str:
        """Append one record to the history file; returns the file path."""
        os.makedirs(self.root, exist_ok=True)
        with open(self.path, "a", encoding="utf-8") as f:
            f.write(json.dumps(record, sort_keys=True) + "\n")
        return self.path

    def record(self, suite: str, payload: dict, source: str = "") -> dict:
        """Normalize + append in one step; returns the appended record."""
        record = self.make_record(suite, payload, source=source)
        self.append(record)
        return record

    # -- reading -----------------------------------------------------------

    def load(self, suite: str | None = None) -> list[dict]:
        """All history records (oldest first), optionally one suite's.

        Lines that are not readable records are skipped; see
        :meth:`load_counted` for how many and why.
        """
        return self.load_counted(suite)[0]

    def load_counted(
        self, suite: str | None = None
    ) -> tuple[list[dict], dict[str, int]]:
        """:meth:`load` plus the number of skipped lines per reason.

        The history is an append-only log shared across versions, so a
        reader passes over what it cannot use: a line that is not JSON (a
        write cut short), JSON that is not a record, or a record from a
        future schema.  Each is counted under its reason in
        :data:`SKIP_REASONS` (for the whole file, whatever ``suite``) so
        ``report`` and ``compare`` can say what they did not read.
        """
        skipped = dict.fromkeys(SKIP_REASONS, 0)
        if not os.path.exists(self.path):
            return [], skipped
        records: list[dict] = []
        with open(self.path, encoding="utf-8") as f:
            for line in f:
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except json.JSONDecodeError:
                    skipped["malformed_json"] += 1
                    continue
                try:
                    version = int(record.get("schema_version", 0))
                except (AttributeError, TypeError, ValueError):
                    skipped["not_a_record"] += 1
                    continue
                if version > HISTORY_SCHEMA_VERSION:
                    skipped["future_schema"] += 1
                    continue
                if suite is not None and record.get("suite") != suite:
                    continue
                records.append(record)
        return records, skipped

    def latest(self, suite: str) -> dict | None:
        """The most recent history record for ``suite``, if any."""
        records = self.load(suite)
        return records[-1] if records else None

    def suites(self) -> list[str]:
        """Sorted suite names present in the history."""
        return sorted({str(r.get("suite", "")) for r in self.load()})

    # -- baselines ---------------------------------------------------------

    def baseline_path(self, suite: str) -> str:
        return os.path.join(self.baselines_dir, f"{suite}.json")

    def write_baseline(self, record: dict) -> str:
        """Persist a record as the committed baseline for its suite."""
        baseline = dict(record)
        baseline["kind"] = "bench_baseline"
        return write_canonical_json(
            self.baseline_path(str(record["suite"])), baseline)

    def load_baseline(self, suite: str) -> dict | None:
        path = self.baseline_path(suite)
        if not os.path.exists(path):
            return None
        with open(path, encoding="utf-8") as f:
            loaded = json.load(f)
        return loaded if isinstance(loaded, dict) else None

    def baseline_suites(self) -> list[str]:
        """Sorted suite names that have a committed baseline."""
        if not os.path.isdir(self.baselines_dir):
            return []
        return sorted(
            name[:-len(".json")]
            for name in sorted(os.listdir(self.baselines_dir))
            if name.endswith(".json")
        )


def record_bench(
    suite: str, payload: dict, history_dir: str, source: str = ""
) -> dict:
    """Convenience entry point for the bench emitters.

    Appends one fingerprinted record for ``payload`` to the history under
    ``history_dir`` and returns it.  Never raises on I/O problems beyond
    what ``open`` raises — recording history must not be able to fail a
    bench in a way a missing directory would not.
    """
    return BenchHistory(history_dir).record(suite, payload, source=source)
