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
empty, recomputing at worst what the bad file claimed to hold.
"""

from __future__ import annotations

import json
import os
import warnings

from repro.experiments.spec import ExperimentSpec, spec_hash
from repro.obs import OBS
from repro.utils.results import write_canonical_json

__all__ = ["ResultStore", "StoreQuarantineWarning"]


class StoreQuarantineWarning(UserWarning):
    """A store file was unusable and has been moved aside (``.bad``)."""


class ResultStore:
    """Per-spec point-result cache rooted at ``root`` (a directory).

    ``n_quarantined`` counts the bad files this instance has moved aside —
    the orchestrator reports it in the run accounting line (and as the
    ``store.quarantine`` metrics counter) so quarantines show up in CI
    logs, not only as Python warnings.
    """

    def __init__(self, root: str) -> None:
        self.root = os.path.abspath(root)
        self.n_quarantined = 0

    def path_for(self, spec: ExperimentSpec) -> str:
        return os.path.join(self.root, f"{spec_hash(spec)}.json")

    def _quarantine(self, path: str, reason: str) -> None:
        bad_path = f"{path}.bad"
        os.replace(path, bad_path)
        self.n_quarantined += 1
        OBS.counter("store.quarantine")
        warnings.warn(
            f"store file {path} {reason}; quarantined to {bad_path} and "
            "resuming from empty (completed points will be recomputed)",
            StoreQuarantineWarning,
            stacklevel=3,
        )

    def load(self, spec: ExperimentSpec) -> dict[str, dict]:
        """Completed point records for this spec (empty if none yet).

        Never raises on a bad file: corrupt JSON, ``spec_hash``
        mismatches and a ``points`` value that is not a map of record
        dicts are quarantined (see module docstring) so ``run`` /
        ``resume`` always make progress.  A record's fields are not
        checked against its point kind.
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
        return dict(points)

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
