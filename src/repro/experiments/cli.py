"""``python -m repro.experiments`` — list/run/resume/export experiments.

``run`` computes only what the content-addressed store is missing, so
running the same experiment twice serves the second run entirely from the
store — the accounting line at the end says exactly how many points were
cached vs simulated, and ``--expect-cached`` turns "zero new simulation
jobs" into an exit code for CI.  ``resume`` is an alias for ``run``: an
interrupted sweep left its completed points in the store, so resuming is
just running again.  ``export`` re-renders reports (prints + CSV) from
the store without simulating anything.

``run``, ``resume`` and ``export`` check the paper's claims on the report
(see :class:`~repro.experiments.catalog.CatalogEntry`): each failed claim
is printed to stderr and the command exits 1.
"""

from __future__ import annotations

import argparse
import sys

import os

from repro.backend import get_backend
from repro.experiments.catalog import (
    PROFILES,
    CatalogEntry,
    build_spec,
    catalog_names,
    get_entry,
)
from repro.experiments.orchestrator import ExperimentRun, run_experiment
from repro.experiments.spec import point_hash, spec_hash
from repro.experiments.store import ResultStore
from repro.obs import OBS, metrics_payload, render_summary
from repro.utils.results import write_canonical_json

__all__ = ["main"]


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("name", help="experiment name (see `list`)")
    parser.add_argument("--profile", default="quick", choices=PROFILES,
                        help="sweep density (default: quick)")
    parser.add_argument("--store", default="bench_results/store",
                        help="store directory, resolved against the cwd "
                             "(default: bench_results/store)")
    parser.add_argument("--results-dir", default="bench_results",
                        help="where reports write CSV artifacts "
                             "(cwd-relative)")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Declarative sweep orchestration with a "
                    "content-addressed result store.")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list registered experiments")

    for cmd, help_text in (
            ("run", "run an experiment (store-resident points are skipped)"),
            ("resume", "alias for run: continue an interrupted sweep")):
        p = sub.add_parser(cmd, help=help_text)
        _add_common(p)
        p.add_argument("--workers", type=int, default=None,
                       help="worker processes (default: one per core)")
        p.add_argument("--fresh", action="store_true",
                       help="discard this spec's cached points first")
        p.add_argument("--expect-cached", action="store_true",
                       help="exit 1 if any simulation job had to run "
                            "(CI store-hit assertion)")
        p.add_argument("--no-report", action="store_true",
                       help="skip the report (prints + CSV) and the "
                            "paper claims; just fill the store")
        p.add_argument("--metrics", action="store_true",
                       help="collect out-of-band metrics (kernel time "
                            "breakdown, store hit/miss, worker "
                            "utilization): print a summary and write "
                            "<results-dir>/<name>.metrics.json")
        p.add_argument("--metrics-jsonl", metavar="PATH", default=None,
                       help="also stream span/link trace events to a "
                            "JSONL file (implies --metrics; missing "
                            "parent directories are created)")
        p.add_argument("--trace-out", metavar="PATH", default=None,
                       help="write a Chrome/Perfetto trace.json of the "
                            "run's span/event stream (implies --metrics; "
                            "open at ui.perfetto.dev)")

    p = sub.add_parser("show", help="print an experiment's spec and "
                                    "store status")
    _add_common(p)

    p = sub.add_parser("export", help="re-render reports from the store "
                                      "(no simulation)")
    _add_common(p)
    return parser


def _cmd_list() -> int:
    for name in catalog_names():
        entry = get_entry(name)
        print(f"{name:16} {entry.summary}")
    return 0


def _accounting_line(run: ExperimentRun, n_points: int) -> str:
    quarantined = (f", {run.n_quarantined} quarantined"
                   if run.n_quarantined else "")
    return (f"[store] {run.n_cached}/{n_points} points cached, "
            f"{run.n_computed} computed{quarantined} -> {run.store_path}")


def _claims_hold(entry: CatalogEntry, report: dict) -> bool:
    """Print every failed paper claim to stderr; True when none failed."""
    failed = entry.claims(report)
    for message in failed:
        print(f"[claims] FAIL {entry.name}: {message}", file=sys.stderr)
    return not failed


def _cmd_run(args: argparse.Namespace) -> int:
    entry = get_entry(args.name)
    spec = build_spec(args.name, args.profile)
    store = ResultStore(args.store)
    if args.fresh and store.discard(spec):
        print(f"[store] discarded {store.path_for(spec)}")
    metrics = (args.metrics or args.metrics_jsonl is not None
               or args.trace_out is not None)
    jsonl_path = args.metrics_jsonl
    if args.trace_out is not None and jsonl_path is None:
        # the trace is converted from the JSONL stream; keep the raw
        # stream next to the trace for inspection
        jsonl_path = os.path.splitext(args.trace_out)[0] + ".events.jsonl"
    if metrics:
        OBS.enable(jsonl_path=jsonl_path)
    claims_hold = True
    try:
        run = run_experiment(spec, store=store, n_workers=args.workers,
                             progress=lambda msg: print(msg, file=sys.stderr))
        if not args.no_report:
            claims_hold = _claims_hold(
                entry, entry.report(run, args.results_dir))
        print(_accounting_line(run, len(spec.points)))
        if metrics:
            snapshot = OBS.snapshot()
            print(render_summary(snapshot))
            path = write_canonical_json(
                os.path.join(args.results_dir,
                             f"{args.name}.metrics.json"),
                metrics_payload(
                    snapshot,
                    experiment=args.name,
                    profile=args.profile,
                    spec_hash=spec_hash(spec),
                    backend=get_backend().name,
                    store={"hit": run.n_cached, "miss": run.n_computed,
                           "quarantined": run.n_quarantined},
                ))
            print(f"[metrics] {path}")
    finally:
        if metrics:
            OBS.disable()
            OBS.reset()
    if args.trace_out is not None:
        from repro.obs.trace import export_trace
        info = export_trace(jsonl_path, args.trace_out)
        print(f"[trace] {info['path']} ({info['n_slices']} slices, "
              f"{info['n_lanes']} lane(s)); open at https://ui.perfetto.dev")
    if args.expect_cached and run.n_computed > 0:
        print(f"[store] FAIL: expected a full store hit but "
              f"{run.n_computed} points were simulated:", file=sys.stderr)
        computed = set(run.computed_hashes)
        for point in spec.points:
            h = point_hash(point)
            if h in computed:
                print(f"[store]   missed {h} ({point.series} @ "
                      f"x={point.x:g}, kind={point.kind}, "
                      f"seed={point.seed})", file=sys.stderr)
        return 1
    return 0 if claims_hold else 1


def _cmd_show(args: argparse.Namespace) -> int:
    spec = build_spec(args.name, args.profile)
    store = ResultStore(args.store)
    known = store.load(spec)
    print(f"{spec.experiment_id}: {spec.title}")
    print(f"profile:   {spec.profile}")
    print(f"spec hash: {spec_hash(spec)}")
    print(f"store:     {store.path_for(spec)}")
    print(f"points:    {len(spec.points)} "
          f"({sum(point_hash(p) in known for p in spec.points)} cached)")
    for point in spec.points:
        state = "cached" if point_hash(point) in known else "missing"
        print(f"  [{state:7}] {point.series} @ x={point.x:g} "
              f"seed={point.seed} kind={point.kind}")
    return 0


def _cmd_export(args: argparse.Namespace) -> int:
    entry = get_entry(args.name)
    spec = build_spec(args.name, args.profile)
    store = ResultStore(args.store)
    known = store.load(spec)
    missing = [p for p in spec.points if point_hash(p) not in known]
    if missing:
        print(f"cannot export {args.name}: {len(missing)} of "
              f"{len(spec.points)} points missing from the store; "
              f"run `python -m repro.experiments run {args.name} "
              f"--profile {args.profile}` first", file=sys.stderr)
        return 1
    run = run_experiment(spec, store=store, n_workers=1)
    return 0 if _claims_hold(entry, entry.report(run, args.results_dir)) else 1


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "list":
        return _cmd_list()
    if args.command in ("run", "resume"):
        return _cmd_run(args)
    if args.command == "show":
        return _cmd_show(args)
    if args.command == "export":
        return _cmd_export(args)
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
