"""``python -m repro.obs.perf`` — record / compare / report.

The performance-trajectory surface over the bench history:

- ``record BENCH_*.json ...`` normalizes bench payloads into the
  versioned metric schema and appends fingerprinted records to
  ``bench_results/history/BENCH_history.jsonl`` (``--baseline`` also
  refreshes the committed per-suite baseline);
- ``compare --against <baselines-dir>`` gates the latest history record
  of every baselined suite with noise-aware thresholds, attributes
  decode-path regressions to a kernel timer, prints the report, and
  exits non-zero on any gated regression (the CI bench gate that
  replaced the hand-tuned ``--min-speedup`` flags);
- ``report`` renders the recorded trajectory per suite and metric.

``compare`` and ``report`` both print how many history lines they could
not read, per reason (``--report-out`` carries it as ``history_skipped``).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from repro.obs.perf.compare import (
    COMPARISON_SCHEMA_VERSION,
    CompareOptions,
    attribute_regressions,
    compare_all,
    render_comparison,
)
from repro.obs.perf.history import BenchHistory, suite_from_filename
from repro.utils.results import write_canonical_json

__all__ = ["main"]

_DEFAULT_HISTORY = os.path.join("bench_results", "history")


def _add_history_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--history-dir", default=_DEFAULT_HISTORY,
        help="history directory, resolved against the cwd "
             f"(default: {_DEFAULT_HISTORY})")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.perf",
        description="Bench history, noise-aware regression gates, and "
                    "trajectory reports.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("record", help="append BENCH_*.json payloads to "
                                      "the history")
    _add_history_arg(p)
    p.add_argument("inputs", nargs="+", metavar="BENCH_JSON",
                   help="bench payload files (suite inferred from the "
                        "BENCH_<suite>.json name)")
    p.add_argument("--suite", default=None,
                   help="override the inferred suite name (single input "
                        "only)")
    p.add_argument("--baseline", action="store_true",
                   help="also refresh the committed baseline for each "
                        "recorded suite")

    p = sub.add_parser("compare", help="gate the latest history records "
                                       "against baselines")
    _add_history_arg(p)
    p.add_argument("--against", default=None, metavar="DIR",
                   help="baselines directory (default: "
                        "<history-dir>/baselines)")
    p.add_argument("--suite", action="append", default=None,
                   help="limit to this suite (repeatable)")
    p.add_argument("--rel-tol", type=float, default=None,
                   help="same-fingerprint noise floor (default 0.10)")
    p.add_argument("--ratio-tol", type=float, default=None,
                   help="cross-fingerprint floor for machine-free "
                        "metrics (default 0.50)")
    p.add_argument("--noise-sigmas", type=float, default=None,
                   help="stddev multiplier above the floor (default 3)")
    p.add_argument("--metrics", default=None, metavar="PATH",
                   help="a <name>.metrics.json artifact whose live "
                        "kernel shares weight the attribution")
    p.add_argument("--report-out", default=None, metavar="PATH",
                   help="write the comparison report as canonical JSON")
    p.add_argument("--verbose", action="store_true",
                   help="also print metrics that passed")

    p = sub.add_parser("report", help="render the recorded trajectory")
    _add_history_arg(p)
    p.add_argument("--suite", action="append", default=None,
                   help="limit to this suite (repeatable)")
    p.add_argument("--last", type=int, default=5,
                   help="history records shown per suite (default 5)")
    return parser


def _cmd_record(args: argparse.Namespace) -> int:
    if args.suite is not None and len(args.inputs) > 1:
        print("--suite requires exactly one input", file=sys.stderr)
        return 2
    history = BenchHistory(args.history_dir)
    for path in args.inputs:
        try:
            with open(path, encoding="utf-8") as f:
                payload = json.load(f)
        except (OSError, json.JSONDecodeError) as exc:
            print(f"cannot read {path}: {exc}", file=sys.stderr)
            return 2
        suite = args.suite or suite_from_filename(path)
        record = history.record(suite, payload,
                                source=os.path.basename(path))
        print(f"[perf] recorded {suite} ({len(record['metrics'])} "
              f"metrics, fingerprint {record['fingerprint_id']}) "
              f"-> {history.path}")
        if args.baseline:
            baseline_path = history.write_baseline(record)
            print(f"[perf] baseline -> {baseline_path}")
    return 0


def _load_live_shares(path: str | None) -> dict | None:
    if path is None:
        return None
    with open(path, encoding="utf-8") as f:
        payload = json.load(f)
    kernels = payload.get("kernels")
    return kernels if isinstance(kernels, dict) else None


def _skipped_line(skipped: dict[str, int]) -> str:
    """One line saying how many history lines were unreadable, and why."""
    detail = ", ".join(f"{reason} {n}" for reason, n in skipped.items())
    return (f"history: {sum(skipped.values())} unreadable line(s) "
            f"skipped ({detail})")


def _cmd_compare(args: argparse.Namespace) -> int:
    history = BenchHistory(args.history_dir)
    baselines = None
    if args.against is not None:
        # --against accepts either the baselines directory itself or a
        # history directory containing baselines/
        against = os.path.abspath(args.against)
        root = (os.path.dirname(against)
                if os.path.basename(against) == "baselines" else against)
        baselines = BenchHistory(root)
    defaults = CompareOptions()
    options = CompareOptions(
        rel_tol=(defaults.rel_tol if args.rel_tol is None
                 else args.rel_tol),
        ratio_tol=(defaults.ratio_tol if args.ratio_tol is None
                   else args.ratio_tol),
        noise_sigmas=(defaults.noise_sigmas if args.noise_sigmas is None
                      else args.noise_sigmas),
    )
    comparisons = compare_all(history, suites=args.suite, options=options,
                              baselines=baselines)
    attribution = attribute_regressions(
        comparisons, live_shares=_load_live_shares(args.metrics))
    skipped = history.load_counted()[1]
    print(render_comparison(comparisons, attribution,
                            verbose=args.verbose))
    print(_skipped_line(skipped))
    if args.report_out is not None:
        path = write_canonical_json(args.report_out, {
            "schema_version": COMPARISON_SCHEMA_VERSION,
            "kind": "perf_comparison",
            "options": {
                "rel_tol": options.rel_tol,
                "ratio_tol": options.ratio_tol,
                "noise_sigmas": options.noise_sigmas,
            },
            "suites": [c.as_dict() for c in comparisons],
            "attribution": attribution,
            "history_skipped": skipped,
            "n_regressions": sum(len(c.regressions) for c in comparisons),
        })
        print(f"[perf] report -> {path}")
    return 1 if any(c.regressions for c in comparisons) else 0


def _fmt_value(value: float, unit: str) -> str:
    if unit == "s":
        if value >= 1.0:
            return f"{value:.3f}s"
        if value >= 1e-3:
            return f"{value * 1e3:.3f}ms"
        return f"{value * 1e6:.2f}us"
    return f"{value:g}{(' ' + unit) if unit else ''}"


def _cmd_report(args: argparse.Namespace) -> int:
    history = BenchHistory(args.history_dir)
    print(_skipped_line(history.load_counted()[1]))
    suites = args.suite if args.suite is not None else history.suites()
    if not suites:
        print("(empty history)")
        return 0
    for suite in suites:
        records = history.load(suite)[-max(1, args.last):]
        if not records:
            print(f"{suite}: no records")
            continue
        latest = records[-1]
        fingerprints = sorted({str(r.get("fingerprint_id", ""))
                               for r in records})
        print(f"{suite}: {len(records)} record(s) shown, "
              f"fingerprints {', '.join(fingerprints)}")
        for name in sorted(latest.get("metrics", {})):
            values = [r["metrics"][name]["value"] for r in records
                      if name in r.get("metrics", {})]
            metric = latest["metrics"][name]
            unit = str(metric.get("unit", ""))
            trajectory = " -> ".join(
                _fmt_value(float(v), unit) for v in values)
            print(f"  {name:42} {trajectory}")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "record":
        return _cmd_record(args)
    if args.command == "compare":
        return _cmd_compare(args)
    if args.command == "report":
        return _cmd_report(args)
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
