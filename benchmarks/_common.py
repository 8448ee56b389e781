"""Shared helpers for the benchmark harness.

Every bench reproduces one paper table or figure: it prints the same
rows/series the paper reports, writes CSV to ``bench_results/``, and
asserts the qualitative shape (who wins, where curves saturate or cross).

Since the ``repro.experiments`` migration every sweep-running bench is a
thin wrapper over a registered catalog spec (:func:`run_catalog`); the
hand-rolled sweep helpers (``snr_grid``, ``awgn_factory``, ``finish``,
``scale``) that each script used to carry are gone — grids, seeds, and
trial counts live in ``repro/experiments/catalog.py`` now.

Set ``REPRO_SCALE=full`` for denser SNR grids and more messages per point;
the default ``quick`` profile keeps the whole suite in tens of minutes.
"""

from __future__ import annotations

import os
import sys

from repro.utils.results import write_canonical_json

RESULTS_DIR = os.path.abspath(
    os.path.join(os.path.dirname(__file__), "..", "bench_results")
)

FULL = os.environ.get("REPRO_SCALE", "quick") == "full"

#: The ``repro.experiments`` profile this bench run maps to.
PROFILE = "full" if FULL else "quick"

#: Content-addressed point cache shared with ``python -m repro.experiments``.
STORE_DIR = os.path.join(RESULTS_DIR, "store")


def run_catalog(name: str):
    """Run a registered experiment through the shared result store.

    Benches migrated onto :mod:`repro.experiments` specs call this instead
    of hand-rolling their sweep: completed points are served from
    ``bench_results/store/`` (so a rerun — from pytest or from ``python -m
    repro.experiments`` — recomputes nothing), and the report prints and
    writes exactly the series/CSV the pre-migration bench produced.
    Returns the report's data dict for the bench's assertions.
    """
    from repro.experiments import (
        ResultStore,
        build_spec,
        get_entry,
        run_experiment,
    )

    spec = build_spec(name, PROFILE)
    run = run_experiment(spec, store=ResultStore(STORE_DIR))
    report = get_entry(name).report(run, RESULTS_DIR)
    # accounting goes to stderr so the bench's stdout stays byte-identical
    # to its pre-migration output
    quarantined = (f", {run.n_quarantined} quarantined"
                   if run.n_quarantined else "")
    print(f"[store] {run.n_cached}/{len(spec.points)} points cached, "
          f"{run.n_computed} computed{quarantined} -> {run.store_path}",
          file=sys.stderr)
    return report


#: Append-only bench history shared with ``python -m repro.obs.perf``.
HISTORY_DIR = os.path.join(RESULTS_DIR, "history")


def write_json(name: str, payload) -> str:
    """Persist a machine-readable result file (``bench_results/<name>.json``).

    Keys are sorted so reruns of a deterministic experiment are
    byte-identical — the same canonical form the link batch runner uses
    (see :func:`repro.utils.results.write_canonical_json`).

    ``BENCH_*`` payloads are additionally recorded into the append-only,
    machine-fingerprinted bench history (``bench_results/history/``) that
    ``python -m repro.obs.perf compare`` gates against — every bench run
    extends the performance trajectory for free.
    """
    path = write_canonical_json(
        os.path.join(RESULTS_DIR, f"{name}.json"), payload
    )
    print(f"[json] {path}")
    if name.startswith("BENCH_"):
        from repro.obs.perf import record_bench, suite_from_filename
        suite = suite_from_filename(path)
        record_bench(suite, payload, HISTORY_DIR,
                     source=os.path.basename(path))
        print(f"[perf] recorded {suite} into {HISTORY_DIR}",
              file=sys.stderr)
    return path


def run_once(benchmark, fn):
    """Run an experiment exactly once under pytest-benchmark timing.

    ``benchmark`` is pytest-benchmark's fixture, or ``None`` when the
    bench runs as a plain script (``python bench_<x>.py`` calls its test
    function with ``None``).
    """
    if benchmark is None:
        return fn()
    return benchmark.pedantic(fn, iterations=1, rounds=1)
