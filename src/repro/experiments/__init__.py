"""Declarative sweep orchestration (ROADMAP: amortize rerun cost).

The paper's evaluation is dozens of Monte-Carlo sweeps; this subsystem
treats each operating point as a cached, seeded, parallel job:

- :mod:`~repro.experiments.spec` — sweeps as data (canonical-JSON-hashable
  :class:`ExperimentSpec`/:class:`PointSpec`, the scheme and point-kind
  tables);
- :mod:`~repro.experiments.store` — content-addressed result store, so
  reruns skip completed points and interrupted sweeps resume;
- :mod:`~repro.experiments.orchestrator` — multiprocessing point runner
  with byte-identical results for any worker count;
- :mod:`~repro.experiments.adaptive` — sequential sampling to a target
  confidence half-width instead of fixed trial counts;
- :mod:`~repro.experiments.catalog` — the registered paper sweeps;
- ``python -m repro.experiments`` — list/run/resume/export.
"""

from repro.experiments.adaptive import (
    adaptive_measure,
    ratio_half_width,
    z_score,
)
from repro.experiments.catalog import build_spec, catalog_names, get_entry
from repro.experiments.orchestrator import (
    ExperimentRun,
    run_experiment,
    run_point,
)
from repro.experiments.spec import (
    AdaptivePolicy,
    ChannelSpec,
    ExperimentSpec,
    PointSpec,
    SchemeSpec,
    grid,
    make_scheme,
    point_hash,
    spec_hash,
)
from repro.experiments.store import ResultStore

__all__ = [
    "AdaptivePolicy",
    "ChannelSpec",
    "ExperimentRun",
    "ExperimentSpec",
    "PointSpec",
    "ResultStore",
    "SchemeSpec",
    "adaptive_measure",
    "build_spec",
    "catalog_names",
    "get_entry",
    "grid",
    "make_scheme",
    "point_hash",
    "ratio_half_width",
    "run_experiment",
    "run_point",
    "spec_hash",
    "z_score",
]
