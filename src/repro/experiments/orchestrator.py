"""Multiprocessing point runner with the byte-identical worker guarantee.

Generalizes the discipline proven in :mod:`repro.link.runner` from link
jobs to simulation sweeps: each :class:`~repro.experiments.spec.PointSpec`
is a self-contained, fully-seeded, picklable job; workers rebuild the
scheme and channel factory from the registries and run the batched decode
pipeline locally; results stream back in job order through
:func:`repro.utils.parallel.imap_jobs`.  Nothing depends on worker
identity or scheduling, so the same spec at ``n_workers=1`` and
``n_workers=8`` produces identical store contents — the property
``tests/test_experiments.py`` locks in.

Completed points are flushed to the store as they arrive, which is what
makes an interrupted sweep resumable: the next run computes only the
missing points.  A worker killed mid-point fails the run with
``BrokenProcessPool`` naming the first unfinished point.
"""

from __future__ import annotations

import os
from contextlib import closing
from dataclasses import dataclass
from typing import Callable

from repro.channels.registry import channel_factory
from repro.experiments.adaptive import adaptive_measure
from repro.experiments.spec import (
    ExperimentSpec,
    PointSpec,
    make_scheme,
    point_hash,
)
from repro.experiments.store import ResultStore
from repro.obs import OBS, clock
from repro.simulation.sweep import measure_scheme
from repro.utils.parallel import imap_jobs, resolve_workers

__all__ = ["ExperimentRun", "run_point", "run_experiment"]


def _run_measure(point: PointSpec) -> dict:
    scheme = make_scheme(point.scheme)
    factory = channel_factory(
        point.channel.kind, point.x, point.channel.options)
    if point.adaptive is not None:
        measurement, trace = adaptive_measure(
            scheme, factory, point.x, point.adaptive,
            seed=point.seed, batch_size=point.batch_size,
            capacity_reference=point.capacity_reference)
        record = measurement.as_dict()
        record["adaptive"] = trace
    else:
        record = measure_scheme(
            scheme, factory, point.x, point.n_messages,
            seed=point.seed, batch_size=point.batch_size,
            capacity_reference=point.capacity_reference).as_dict()
    return record


def _run_ldpc_envelope(point: PointSpec) -> dict:
    from repro.ldpc import ldpc_envelope
    rate, best = ldpc_envelope(
        point.x,
        n_blocks=int(point.options.get("n_blocks", 10)),
        iterations=int(point.options.get("iterations", 40)),
        seed=point.seed,
    )
    return {"rate": float(rate), "best_operating_point": best}


def _run_link(point: PointSpec) -> dict:
    """One packet-level ARQ flow (a :class:`LinkJob`) as a point job.

    The job is rebuilt from the point's JSON-safe fields and executed by
    the link runner itself, so a ``link`` point equals a direct
    ``repro.link.runner`` invocation at the same seed — byte for byte.
    """
    from repro.link.runner import job_from_options, run_job
    job = job_from_options(
        job_id=str(point.options.get("job_id", point.series)),
        seed=point.seed,
        snr_db=point.x,
        channel=point.channel.kind,
        channel_options=point.channel.options,
        options=point.options,
    )
    return run_job(job)


def _run_symbol_cdf(point: PointSpec) -> dict:
    """Per-message symbol counts of successful decodes (Figure 8-11).

    Unlike ``measure``, the payload is distributional: the sorted-later
    CDF needs every successful message's symbol count, not the pooled
    totals.  Seeding: one master RNG per point, one child RNG per message
    drawing first the message then the channel noise.
    """
    from repro.core.params import DecoderParams, SpinalParams
    from repro.simulation.engine import SpinalSession
    from repro.utils.bitops import random_message
    import numpy as np
    opts = point.options
    params = SpinalParams(**dict(opts.get("params") or {}))
    dec = DecoderParams(**dict(opts.get("decoder") or {}))
    n_bits = int(opts["n_bits"])
    probe_growth = float(opts.get("probe_growth", 1.0))
    factory = channel_factory(
        point.channel.kind, point.x, point.channel.options)
    master = np.random.default_rng(point.seed)
    counts: list[int] = []
    for _ in range(point.n_messages):
        rng = np.random.default_rng(master.integers(0, 2**63))
        message = random_message(n_bits, rng)
        session = SpinalSession(params, dec, message, factory(rng),
                                probe_growth=probe_growth)
        result = session.run()
        if result.success:
            counts.append(int(result.n_symbols))
    return {
        "counts": counts,
        "n_messages": int(point.n_messages),
        "n_success": len(counts),
    }


def _run_papr(point: PointSpec) -> dict:
    """One OFDM PAPR table row (Table 8.1): mean and p99.99 in dB."""
    from repro.ofdm import papr_experiment
    mean_db, tail_db = papr_experiment(
        str(point.options["constellation"]),
        n_ofdm_symbols=int(point.options.get("n_ofdm_symbols", 20_000)),
        seed=point.seed,
    )
    return {"mean_papr_db": float(mean_db), "p9999_papr_db": float(tail_db)}


_RUNNERS: dict[str, Callable[[PointSpec], dict]] = {
    "measure": _run_measure,
    "ldpc_envelope": _run_ldpc_envelope,
    "link": _run_link,
    "symbol_cdf": _run_symbol_cdf,
    "papr": _run_papr,
}


def run_point(point: PointSpec) -> dict:
    """Execute one point job (in a worker); returns a JSON-safe record.

    Every record carries ``series`` and ``x`` so a store file can be read
    back into curves without the defining spec in hand.
    """
    try:
        runner = _RUNNERS[point.kind]
    except KeyError:
        raise ValueError(
            f"unknown point kind {point.kind!r}; "
            f"expected one of {sorted(_RUNNERS)}"
        ) from None
    record = runner(point)
    record["series"] = point.series
    record["x"] = float(point.x)
    return record


def _run_point_inline(point: PointSpec) -> tuple[dict, dict | None, float, int]:
    """Metrics-enabled point job executed in the orchestrating process.

    Kernel timers land directly in the live registry; only the per-point
    wall time needs recording here.  Returned alongside a ``None``
    snapshot so the caller's unpacking matches the worker path.
    """
    t0 = clock()
    record = run_point(point)
    dt = clock() - t0
    OBS.add_time("point.wall", dt)
    return record, None, dt, os.getpid()


def _run_point_measured(point: PointSpec) -> tuple[dict, dict | None, float, int]:
    """Metrics-enabled point job executed in a pool worker process.

    A forked worker inherits the parent's enabled registry (and its event
    sink); a spawned worker starts disabled.  Either way the worker adopts
    a clean, sink-less registry of its own, then drains it after the job
    so every result carries exactly that point's metrics back to the
    parent, which merges them.  The result *record* is untouched — worker
    metrics never reach the store, so store bytes stay identical to a
    metrics-off run.
    """
    if OBS.in_foreign_process() or not OBS.enabled:
        OBS.adopt()
    t0 = clock()
    record = run_point(point)
    dt = clock() - t0
    OBS.add_time("point.wall", dt)
    return record, OBS.drain(), dt, os.getpid()


@dataclass
class ExperimentRun:
    """Outcome of one orchestrated run: all point records plus accounting."""

    spec: ExperimentSpec
    results: dict[str, dict]          # point hash -> record
    n_cached: int = 0                 # points served from the store
    n_computed: int = 0               # simulation jobs actually run
    n_quarantined: int = 0            # bad store files or records dropped on load
    computed_hashes: tuple[str, ...] = ()  # point hashes that missed the store
    store_path: str | None = None

    def record_for(self, point: PointSpec) -> dict:
        return self.results[point_hash(point)]

    def curves(self) -> dict[str, dict[float, dict]]:
        """``series label -> {x -> record}`` in spec point order."""
        out: dict[str, dict[float, dict]] = {}
        for point in self.spec.points:
            out.setdefault(point.series, {})[point.x] = self.record_for(point)
        return out

    def rates(self) -> dict[str, dict[float, float]]:
        """``series label -> {x -> measured rate}`` (the common shape)."""
        return {
            series: {x: rec["rate"] for x, rec in curve.items()}
            for series, curve in self.curves().items()
        }


@dataclass
class _NullProgress:
    """Default progress sink: silent."""

    def __call__(self, message: str) -> None:  # pragma: no cover
        pass


def run_experiment(
    spec: ExperimentSpec,
    store: ResultStore | None = None,
    n_workers: int | None = None,
    progress: Callable[[str], None] | None = None,
) -> ExperimentRun:
    """Run (or resume) a spec, computing only points the store is missing.

    ``store=None`` computes everything and persists nothing (useful in
    tests).  With a store, every completed point is flushed immediately so
    interruptions lose at most the points in flight.
    """
    progress = progress or _NullProgress()
    hashes = [point_hash(p) for p in spec.points]
    if len(set(hashes)) != len(hashes):
        raise ValueError(
            f"spec {spec.experiment_id!r} contains duplicate points; "
            "every point must be a distinct job"
        )
    results: dict[str, dict] = {}
    quarantined_before = store.n_quarantined if store is not None else 0
    if store is not None:
        known = store.load(spec)
        results = {h: known[h] for h in hashes if h in known}
    n_quarantined = (store.n_quarantined - quarantined_before
                     if store is not None else 0)
    n_cached = len(results)
    missing = [(h, p) for h, p in zip(hashes, spec.points)
               if h not in results]
    progress(f"{spec.experiment_id}: {n_cached}/{len(hashes)} points cached, "
             f"computing {len(missing)}")
    store_path = store.path_for(spec) if store is not None else None

    # Metrics are strictly out-of-band: when the registry is enabled the
    # jobs are wrapped to report kernel timers and per-point wall time
    # (merged from workers), but the stored records are byte-identical
    # either way.
    OBS.counter("store.hit", n_cached)
    OBS.counter("store.miss", len(missing))
    measured = OBS.enabled
    if measured and missing:
        resolved = resolve_workers(len(missing), n_workers)
        OBS.counter("orchestrator.workers", resolved)
        job_fn = (_run_point_inline
                  if resolved <= 1 or len(missing) <= 1
                  else _run_point_measured)
    else:
        job_fn = run_point

    with OBS.span("orchestrator.run", experiment=spec.experiment_id,
                  points=len(hashes), missing=len(missing)), \
            closing(imap_jobs(job_fn, [p for _, p in missing],
                              n_workers)) as outcomes:
        for h, point in missing:
            try:
                outcome = next(outcomes)
            except Exception as exc:
                # imported on failure only: importing the orchestrator
                # does not load concurrent.futures
                from concurrent.futures import BrokenExecutor
                if not isinstance(exc, BrokenExecutor):
                    raise
                raise type(exc)(
                    f"{spec.experiment_id}: a worker process died (killed, "
                    f"e.g. out of memory) before point {h} ({point.series} "
                    f"@ x={point.x:g}) finished; {len(results)}/"
                    f"{len(hashes)} points completed"
                    + (", and `resume` computes the rest from the store"
                       if store is not None else "")) from exc
            if measured:
                record, worker_snapshot, wall_s, worker_pid = outcome
                if worker_snapshot is not None:
                    OBS.merge(worker_snapshot)
                # one event per completed point, emitted by the (sink-
                # owning) parent on receipt: the worker's pid and wall
                # time give the trace exporter a lane per worker process
                OBS.event("point.done", series=point.series,
                          x=float(point.x), kind=point.kind,
                          dt_s=wall_s, worker_pid=worker_pid)
            else:
                record = outcome
            results[h] = record
            if store is not None:
                # flush incrementally: an interrupted sweep resumes from here
                store.save(spec, results)
            progress(f"  done {point.series} @ x={point.x:g} "
                     f"({len(results)}/{len(hashes)})")
    if store is not None and not missing and not os.path.exists(store_path):
        # the in-loop flush already wrote the final state whenever anything
        # ran; this only materializes the file for an empty spec
        store.save(spec, results)
    return ExperimentRun(
        spec=spec,
        results=results,
        n_cached=n_cached,
        n_computed=len(missing),
        n_quarantined=n_quarantined,
        computed_hashes=tuple(h for h, _ in missing),
        store_path=store_path,
    )
