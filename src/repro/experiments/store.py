"""Content-addressed on-disk result store.

One file per experiment spec — ``<store-root>/<spec-hash>.json`` — holding
a ``points`` map from point hash to result record.  Because both hashes
are derived from the spec's canonical JSON, a rerun of an unchanged spec
finds every completed point already present and runs zero simulation
jobs, and an interrupted sweep resumes from whatever points were flushed
(the orchestrator flushes after every completed point).

Files are written in the repo's canonical JSON form (sorted keys), so the
store contents for a deterministic spec are byte-identical no matter how
many workers computed them or in what order points finished.

A store file is a cache, never a source of truth, so :meth:`ResultStore.
load` refuses to let a bad file wedge a sweep: a file that does not parse
(a run killed mid-write on a filesystem where the rename is not atomic),
whose embedded ``spec_hash`` disagrees with the spec being loaded (a
hand-copied or stale file under the wrong name), or whose ``points`` is
not a map of record dicts (a hand-edited file), is quarantined — renamed
to ``<spec-hash>.json.bad`` with a warning — and the sweep resumes from
empty, recomputing at worst what the bad file claimed to hold.  Inside a
good file, a point's record that lacks a field its kind always writes,
or holds one with the wrong JSON type (see :data:`RECORD_FIELDS`), is
dropped with a warning, and only that point is recomputed.
"""

from __future__ import annotations

import json
import os
import warnings
from typing import Callable

from repro.experiments.spec import ExperimentSpec, point_hash, spec_hash
from repro.obs import OBS
from repro.utils.results import write_canonical_json

__all__ = ["RECORD_FIELDS", "ResultStore", "StoreQuarantineWarning",
           "record_problems"]

#: JSON type name -> the check a loaded value must pass.  JSON has no
#: bool/number overlap, so a bool is never a number here.
_JSON_TYPES: dict[str, Callable[[object], bool]] = {
    "str": lambda v: type(v) is str,
    "int": lambda v: type(v) is int,
    "number": lambda v: type(v) in (int, float),
    "number or null": lambda v: v is None or type(v) in (int, float),
    "int list": lambda v: type(v) is list and all(type(c) is int for c in v),
}

#: Point kind -> each field every record of that kind carries, with its
#: JSON type: what the kind's runner in
#: :mod:`repro.experiments.orchestrator` returns, plus the ``series`` and
#: ``x`` that ``run_point`` adds.  Optional extras (a measure point's
#: ``adaptive`` trace) are not listed.
RECORD_FIELDS: dict[str, dict[str, str]] = {
    kind: {"series": "str", "x": "number", **fields}
    for kind, fields in {
        "measure": {
            "label": "str", "snr_db": "number", "n_messages": "int",
            "n_success": "int", "total_bits": "int", "total_symbols": "int",
            "capacity_reference": "str", "rate": "number"},
        "ldpc_envelope": {"rate": "number", "best_operating_point": "str"},
        "link": {
            "flow": "str", "n_packets": "int", "n_delivered": "int",
            "payload_bits_delivered": "int", "symbols": "int",
            "wasted_symbols": "int", "retransmissions": "int",
            "goodput": "number", "framing_overhead": "number",
            "latency_p50": "number or null", "latency_p90": "number or null",
            "latency_p99": "number or null", "job_id": "str", "seed": "int",
            "snr_db": "number", "channel": "str",
            "feedback_delay": "number"},
        "symbol_cdf": {
            "counts": "int list", "n_messages": "int", "n_success": "int"},
        "papr": {"mean_papr_db": "number", "p9999_papr_db": "number"},
    }.items()
}


def record_problems(kind: str, record: dict) -> tuple[list[str], list[str]]:
    """Why ``record`` is not a whole record of point kind ``kind``: the
    fields it lacks, and a note per field whose JSON type is wrong (both
    empty for a good record or an unknown kind)."""
    fields = RECORD_FIELDS.get(kind, {})
    missing = [name for name in sorted(fields) if name not in record]
    mistyped = [f"{name} is {type(record[name]).__name__}, not {json_type}"
                for name, json_type in sorted(fields.items())
                if name in record and not _JSON_TYPES[json_type](record[name])]
    return missing, mistyped


class StoreQuarantineWarning(UserWarning):
    """A store file was unusable and has been moved aside (``.bad``), or
    a record in it was incomplete or mistyped and has been dropped."""


class ResultStore:
    """Per-spec point-result cache rooted at ``root`` (a directory).

    ``n_quarantined`` counts the bad files this instance has moved aside
    and the incomplete or mistyped records it has dropped — the
    orchestrator reports it in the run accounting line (and as the
    ``store.quarantine`` metrics counter) so quarantines show up in CI
    logs, not only as Python warnings.
    """

    def __init__(self, root: str) -> None:
        self.root = os.path.abspath(root)
        self.n_quarantined = 0

    def path_for(self, spec: ExperimentSpec) -> str:
        return os.path.join(self.root, f"{spec_hash(spec)}.json")

    def _warn(self, message: str) -> None:
        self.n_quarantined += 1
        OBS.counter("store.quarantine")
        warnings.warn(message, StoreQuarantineWarning, stacklevel=4)

    def _quarantine(self, path: str, reason: str) -> None:
        bad_path = f"{path}.bad"
        os.replace(path, bad_path)
        self._warn(
            f"store file {path} {reason}; quarantined to {bad_path} and "
            "resuming from empty (completed points will be recomputed)")

    def _complete_records(self, spec: ExperimentSpec,
                          points: dict[str, dict]) -> dict[str, dict]:
        """``points`` minus each spec point's record that lacks a field
        of its kind or holds one of the wrong JSON type (see
        :data:`RECORD_FIELDS`)."""
        kept = dict(points)
        for point in spec.points:
            h = point_hash(point)
            if h not in kept:
                continue
            missing, mistyped = record_problems(point.kind, kept[h])
            if missing or mistyped:
                del kept[h]
                what = "an incomplete" if missing else "a mistyped"
                problems = [f"missing {', '.join(missing)}"] if missing else []
                self._warn(
                    f"store file {self.path_for(spec)} holds {what} "
                    f"record for point {h} ({point.series} @ x={point.x:g}, "
                    f"{'; '.join(problems + mistyped)}); dropped it, the "
                    "point will be recomputed")
        return kept

    def load(self, spec: ExperimentSpec) -> dict[str, dict]:
        """Completed point records for this spec (empty if none yet).

        Never raises on a bad file: corrupt JSON, ``spec_hash``
        mismatches and a ``points`` value that is not a map of record
        dicts are quarantined (see module docstring) so ``run`` /
        ``resume`` always make progress.  Each spec point's record is
        checked against its point kind's :data:`RECORD_FIELDS`; one that
        lacks a field or holds one of the wrong JSON type is left out, so
        that point alone is recomputed.
        """
        path = self.path_for(spec)
        if not os.path.exists(path):
            return {}
        try:
            with open(path) as f:
                payload = json.load(f)
        except (json.JSONDecodeError, UnicodeDecodeError):
            self._quarantine(path, "is corrupt (truncated or not JSON)")
            return {}
        if not isinstance(payload, dict):
            self._quarantine(path, "does not hold a store record")
            return {}
        embedded = payload.get("spec_hash")
        if embedded != spec_hash(spec):
            self._quarantine(
                path,
                f"embeds spec_hash {embedded!r} but the requested spec "
                f"hashes to {spec_hash(spec)!r} (hand-copied or stale file)",
            )
            return {}
        points = payload.get("points", {})
        if not (isinstance(points, dict)
                and all(isinstance(r, dict) for r in points.values())):
            self._quarantine(path, "holds a malformed points map "
                                   "(points must map hashes to records)")
            return {}
        return self._complete_records(spec, points)

    def save(self, spec: ExperimentSpec, points: dict[str, dict]) -> str:
        """Write the spec's store file; returns the file path.

        The spec itself is embedded so a store file is self-describing —
        you can tell which sweep produced it without the defining code.
        """
        return write_canonical_json(self.path_for(spec), {
            "spec_hash": spec_hash(spec),
            "spec": spec.as_dict(),
            "points": dict(points),
        })

    def discard(self, spec: ExperimentSpec) -> bool:
        """Drop this spec's cached results (``run --fresh``)."""
        path = self.path_for(spec)
        if os.path.exists(path):
            os.remove(path)
            return True
        return False
