"""Registered experiments: paper sweeps as declarative specs.

Each :class:`CatalogEntry` pairs a point builder (profile -> the sweep's
:class:`PointSpec` list) with a report function that turns an
orchestrated run into printed series and tables and CSV artifacts.  The
specs and report output are pinned byte for byte
(``tests/test_catalog_golden.py``), and each builder keeps its figure's
seeding policy (``base + 101*i`` per grid index for Figure 8-1,
``int(snr) + tau`` for Figure 8-4, ``500 + i`` for the BSC chart).
:func:`build_spec` checks the profile and wraps the points in the
:class:`ExperimentSpec`.

Most of §8 varies one spinal knob per curve over an SNR grid (k and B, B
and d, c, tail symbols, puncturing, block length, the hash).  Those
figures are rows of one table, ``_SWEEPS``: each :class:`_Sweep` row
holds the grid, the quick/full message counts, the knob values, the
series label and spinal scheme options per value, the per-value seed
base (a point's seed is ``base(value) + int(snr)``) and whether the
report is rate vs SNR or gap to capacity.  The remaining entries mix
schemes, point kinds or seeding policies and keep a builder of their own,
written with the same :func:`_points` helper.

Every paper figure also owns its claims: ``claims(report)`` checks the
report's numbers against the paper's qualitative result (who wins, where
curves saturate or cross) and returns the message of each claim that
failed; ``python -m repro.experiments run`` exits 1 when one does.

Profiles: ``quick`` (the default, coarse grids) and ``full`` (the paper's
density).  The ``smoke`` experiments are deliberately tiny specs for CI
and tests, and have no claims.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from functools import partial
from typing import Any, Callable, Iterable, Sequence

import numpy as np

from repro.channels.capacity import (
    awgn_capacity,
    bsc_capacity,
    gap_to_capacity_db,
    rayleigh_capacity,
)
from repro.experiments.orchestrator import ExperimentRun
from repro.experiments.spec import (
    AdaptivePolicy,
    ChannelSpec,
    ExperimentSpec,
    PointSpec,
    SchemeSpec,
    grid,
)
from repro.theory import achievable_rate_bound
from repro.utils.results import (
    ExperimentResult,
    render_table,
    write_canonical_json,
)

__all__ = [
    "CatalogEntry",
    "build_spec",
    "catalog_names",
    "get_entry",
]

#: Profiles a point builder implements directly.
_BUILD_PROFILES = ("quick", "full")

#: Profiles :func:`build_spec` accepts.  ``adaptive`` is derived: the
#: ``full`` spec with every fixed-count measure point converted to
#: ratio-interval sequential sampling (see :func:`_adaptive_variant`).
PROFILES = ("quick", "full", "adaptive")


def _no_claims(report: dict) -> list[str]:
    return []


@dataclass(frozen=True)
class CatalogEntry:
    """One registered experiment.

    ``title`` is the spec title (part of the spec hash); ``points`` builds
    the sweep for a ``quick`` or ``full`` profile.  ``claims`` takes what
    ``report`` returned and returns the message of every paper claim the
    numbers fail (plain ``if`` checks, so ``python -O`` keeps them).
    """

    name: str
    title: str
    summary: str
    points: Callable[[str], list[PointSpec]]
    report: Callable[[ExperimentRun, str], dict]
    claims: Callable[[dict], list[str]] = _no_claims


def _scale(profile: str, quick: Any, full: Any) -> Any:
    return full if profile == "full" else quick


_AWGN = ChannelSpec("awgn")


def _points(
    series: str,
    scheme: SchemeSpec | None,
    snrs: Sequence[float],
    n_msgs: int,
    seed: Callable[[int, float], int],
    channel: ChannelSpec = _AWGN,
    batched: bool = True,
    **fields: Any,
) -> list[PointSpec]:
    """One series over a grid: ``seed(i, x)`` per grid index ``i``.

    Cohorts batch the whole message count; ``batched=False`` leaves
    ``batch_size`` unset (messages run one at a time).
    """
    return [
        PointSpec(
            series=series, x=x, seed=seed(i, x), scheme=scheme,
            channel=channel, n_messages=n_msgs,
            batch_size=n_msgs if batched else None, **fields,
        )
        for i, x in enumerate(snrs)
    ]


def _link_points(series: str, tag: str, snrs: Sequence[float],
                 seed: Callable[[int], int], **options: Any
                 ) -> list[PointSpec]:
    """One ``link`` series (a packet-level ARQ job per SNR)."""
    return [
        PointSpec(
            series=series, x=snr, seed=seed(i), kind="link", channel=_AWGN,
            options={"job_id": f"{tag}_snr{snr:g}", **options},
        )
        for i, snr in enumerate(snrs)
    ]


# --------------------------------------------------------------------------
# report building blocks
# --------------------------------------------------------------------------

def _finish(result: ExperimentResult, results_dir: str) -> None:
    """Print and persist one series set."""
    os.makedirs(results_dir, exist_ok=True)
    print()
    print(result.render())
    path = result.write_csv(results_dir)
    print(f"[csv] {path}")


def _series_report(
    run: ExperimentRun,
    results_dir: str,
    name: str,
    title: str,
    x_label: str = "snr_db",
    y_label: str = "rate_bits_per_symbol",
    head_series: dict[str, Callable[[float], float]] | None = None,
    tail_series: dict[str, Callable[[float], float]] | None = None,
) -> tuple[list[float], dict[str, dict[float, float]]]:
    """The common report shape: every measured series as rate-vs-x rows.

    ``head_series``/``tail_series`` add derived curves (capacity bounds)
    before/after the measured ones.  Measured series print their *own* x
    points (series need not share a grid); the returned grid is the first
    series' sorted x set, which is what the figure claims' shared-grid
    checks consume.
    """
    curves = run.rates()
    xs = sorted(next(iter(curves.values()))) if curves else []
    result = ExperimentResult(name, title, x_label, y_label)

    def derived(series: dict[str, Callable[[float], float]] | None) -> None:
        for label, fn in (series or {}).items():
            s = result.new_series(label)
            for x in xs:
                s.add(x, fn(x))

    derived(head_series)
    for label, curve in curves.items():
        s = result.new_series(label)
        for x in sorted(curve):
            s.add(x, curve[x])
    derived(tail_series)
    _finish(result, results_dir)
    return xs, curves


def _rate_report(name: str, run: ExperimentRun, results_dir: str,
                 title: str | None = None,
                 head: dict[str, Callable[[float], float]] | None = None
                 ) -> dict:
    """Rate vs SNR for every series, titled like the spec by default."""
    snrs, curves = _series_report(run, results_dir, name,
                                  title or run.spec.title, head_series=head)
    return {"snrs": snrs, "curves": curves}


def _gap_report(
    results_dir: str,
    name: str,
    title: str,
    snrs: list[float],
    labelled_curves: Iterable[tuple[str, dict[float, float]]],
    y_label: str = "gap_to_capacity_db",
) -> None:
    """Gap-to-capacity chart: one series per ``(label, rate curve)`` pair,
    with points only where the measured rate is positive (a zero rate has
    no finite gap)."""
    result = ExperimentResult(name, title, "snr_db", y_label)
    for label, curve in labelled_curves:
        s = result.new_series(label)
        for snr in snrs:
            if curve[snr] > 0:
                s.add(snr, gap_to_capacity_db(curve[snr], snr))
    _finish(result, results_dir)


def _mean_capacity_fraction(rates: dict[str, dict[float, float]],
                            series: str) -> float:
    """Mean fraction of AWGN capacity over the shared SNR grid."""
    curve = rates[series]
    snrs = sorted(next(iter(rates.values())))
    return float(np.mean([curve[snr] / awgn_capacity(snr) for snr in snrs]))


# --------------------------------------------------------------------------
# the one-knob sweep table (Figures 8-7 .. 8-12 and the ablations)
# --------------------------------------------------------------------------

def _spinal(n_bits: int = 256, B: int = 256, **options: Any) -> dict:
    """Spinal scheme options with the sweeps' usual 40-pass decoder."""
    return {"n_bits": n_bits, "decoder": {"B": B, "max_passes": 40},
            **options}


@dataclass(frozen=True)
class _Sweep:
    """One spinal knob varied per series over an SNR grid.

    Series ``label(v)`` runs ``SchemeSpec("spinal", scheme(v))`` at every
    SNR of ``grid(*snrs[:2], step)`` (``snrs[2]`` is the quick step,
    ``snrs[3]`` the full one) with seed ``seed(v) + int(snr)``.  The
    report charts the rates (``gap=False``, with optional derived
    ``head``/``tail`` curves) or the gap to capacity (``gap=True``) as
    ``<csv>.csv`` and returns ``snrs`` plus ``curves`` keyed by knob
    value; ``extra`` adds keys computed from those two.  ``claims`` checks
    that report (see :class:`CatalogEntry`).
    """

    title: str
    summary: str
    csv: str
    snrs: tuple[float, float, float, float]
    messages: tuple[int, int]
    values: tuple
    label: Callable[[Any], str]
    scheme: Callable[[Any], dict]
    seed: Callable[[Any], int]
    claims: Callable[[dict], list[str]]
    gap: bool = False
    quick_values: tuple | None = None
    head: dict[str, Callable[[float], float]] | None = None
    tail: dict[str, Callable[[float], float]] | None = None
    extra: Callable[[list[float], dict], dict] | None = None

    def knob_values(self, profile: str) -> tuple:
        """The values swept at ``profile`` (``adaptive`` derives from
        ``full``)."""
        if profile == "quick" and self.quick_values is not None:
            return self.quick_values
        return self.values

    def points(self, profile: str) -> list[PointSpec]:
        lo, hi, quick_step, full_step = self.snrs
        snrs = grid(lo, hi, _scale(profile, quick_step, full_step))
        n_msgs = _scale(profile, *self.messages)
        points: list[PointSpec] = []
        for v in self.knob_values(profile):
            base = self.seed(v)
            scheme = SchemeSpec("spinal", self.scheme(v))
            points += _points(self.label(v), scheme, snrs, n_msgs,
                              seed=lambda i, snr: base + int(snr))
        return points

    def report(self, run: ExperimentRun, results_dir: str) -> dict:
        rates = run.rates()
        # every value the spec was built with: a missing series raises
        values = self.knob_values(run.spec.profile)
        curves = {v: rates[self.label(v)] for v in values}
        if self.gap:
            snrs = sorted(next(iter(rates.values())))
            _gap_report(results_dir, self.csv, run.spec.title, snrs,
                        [(self.label(v), curves[v]) for v in values])
        else:
            snrs, _ = _series_report(run, results_dir, self.csv,
                                     run.spec.title, head_series=self.head,
                                     tail_series=self.tail)
        out = {"snrs": snrs, "curves": curves}
        if self.extra is not None:
            out.update(self.extra(snrs, curves))
        return out


def _fig8_12_avg_gap(snrs: list[float], curves: dict) -> dict:
    avg_gap = {}
    for n in sorted(curves):
        gaps = [gap_to_capacity_db(curves[n][snr], snr)
                for snr in snrs if curves[n][snr] > 0]
        avg_gap[n] = sum(gaps) / len(gaps)
    print("average gap by n:", {n: round(g, 2) for n, g in avg_gap.items()})
    return {"avg_gap": avg_gap}


def _mean_rates(curves: dict) -> dict:
    """Each curve's rate averaged over its SNR grid."""
    return {v: sum(c.values()) / len(c) for v, c in curves.items()}


def _fig8_7_claims(report: dict) -> list[str]:
    """Paper: higher-depth decoders achieve lower throughput, and B=64,
    d=2 stays close to B=512, d=1."""
    avg = _mean_rates(report["curves"])
    failed = []
    # average rates: d=1 should be the best, d=4 the worst
    if not avg[(512, 1)] >= avg[(1, 4)]:
        failed.append(f"B=512, d=1 averages {avg[(512, 1)]:.3f} bits/symbol, "
                      f"below B=1, d=4's {avg[(1, 4)]:.3f}")
    # B=64, d=2 stays within reach of the full-width decoder (paper's point)
    if not avg[(64, 2)] > 0.7 * avg[(512, 1)]:
        failed.append(f"B=64, d=2 averages {avg[(64, 2)]:.3f} bits/symbol, "
                      f"not above 0.7x B=512, d=1's {avg[(512, 1)]:.3f}")
    return failed


def _fig8_8_claims(report: dict) -> list[str]:
    """Paper: small c caps the achievable rate; c = 6 is right for the
    -5..35 dB range."""
    snrs, curves = report["snrs"], report["curves"]
    failed = []
    top, low = max(snrs), min(snrs)
    # at high SNR, larger c wins decisively (small c caps the rate)
    if not curves[6][top] > curves[2][top] > curves[1][top]:
        failed.append(f"at {top:g} dB the rates of c=6, 2, 1 "
                      f"({curves[6][top]:.3f}, {curves[2][top]:.3f}, "
                      f"{curves[1][top]:.3f}) do not strictly decrease")
    # at low SNR the choice barely matters
    if not abs(curves[6][low] - curves[3][low]) < 0.5:
        failed.append(f"at {low:g} dB c=6 and c=3 differ by 0.5 bits/symbol "
                      f"or more ({curves[6][low]:.3f} vs "
                      f"{curves[3][low]:.3f})")
    # c=6 is never much worse than the best c at any SNR
    for snr in snrs:
        best = max(curves[c][snr] for c in curves)
        if not curves[6][snr] > 0.8 * best:
            failed.append(f"at {snr:g} dB c=6 reaches {curves[6][snr]:.3f}, "
                          f"not above 0.8x the best c's {best:.3f}")
    return failed


def _fig8_9_claims(report: dict) -> list[str]:
    """Paper: two tail symbols per pass is the sweet spot; more give
    negative returns (channel time spent without changing decisions)."""
    avg = _mean_rates(report["curves"])
    failed = []
    # 2 tail symbols should beat 5 (pure overhead past the sweet spot)
    if not avg[2] > avg[5]:
        failed.append(f"2 tail symbols average {avg[2]:.3f} bits/symbol, "
                      f"not above 5's {avg[5]:.3f}")
    # and be no worse than 1 within tolerance (they're close; 2 wins by
    # improving end-of-message discrimination)
    if not avg[2] > avg[1] * 0.97:
        failed.append(f"2 tail symbols average {avg[2]:.3f} bits/symbol, "
                      f"not above 0.97x 1's {avg[1]:.3f}")
    return failed


def _fig8_10_claims(report: dict) -> list[str]:
    """Paper: finer puncturing wastes less channel time, most of all at
    high SNR, where a handful of symbols is a large share of the total."""
    snrs, curves = report["snrs"], report["curves"]
    failed = []
    # at high SNR, finer puncturing wins clearly
    top = max(snrs)
    for schedule in ("8-way", "4-way"):
        if not curves[schedule][top] > curves["none"][top]:
            failed.append(f"at {top:g} dB {schedule} puncturing reaches "
                          f"{curves[schedule][top]:.3f} bits/symbol, not "
                          f"above no puncturing's {curves['none'][top]:.3f}")
    # at low SNR the gain shrinks (few symbols vs many needed)
    low = min(snrs)
    ratio_low = curves["8-way"][low] / max(curves["none"][low], 1e-9)
    ratio_high = curves["8-way"][top] / max(curves["none"][top], 1e-9)
    if not ratio_high > ratio_low * 0.95:
        failed.append(f"8-way over no puncturing is {ratio_high:.3f}x at "
                      f"{top:g} dB, not above 0.95x its {ratio_low:.3f}x at "
                      f"{low:g} dB")
    return failed


def _fig8_12_claims(report: dict) -> list[str]:
    """Paper: at fixed B longer blocks lose the true path more often, so
    the gap to capacity widens with n."""
    avg_gap = report["avg_gap"]
    lengths = sorted(avg_gap)
    failed = []
    # short blocks closer to capacity than long ones at fixed B
    if not avg_gap[lengths[0]] > avg_gap[lengths[-1]]:
        failed.append(f"n={lengths[0]} averages a {avg_gap[lengths[0]]:.2f} "
                      "dB gap, not closer to capacity than "
                      f"n={lengths[-1]}'s {avg_gap[lengths[-1]]:.2f} dB")
    # 256 vs 2048/1024: monotone-ish trend at the extremes
    if not avg_gap[256] >= avg_gap[lengths[-1]] - 0.3:
        failed.append(f"n=256 averages a {avg_gap[256]:.2f} dB gap, more "
                      f"than 0.3 dB below n={lengths[-1]}'s "
                      f"{avg_gap[lengths[-1]]:.2f} dB")
    return failed


def _ablation_constellation_claims(report: dict) -> list[str]:
    """Theory: the Gaussian map closes the uniform map's 0.25 bit/symbol
    shaping gap asymptotically, but "in simulation with finite n, however,
    we do not see significant performance differences" (§4.6)."""
    snrs, curves = report["snrs"], report["curves"]
    failed = []
    # "no significant performance differences" at finite n
    for snr in snrs:
        u, g = curves["uniform"][snr], curves["gaussian"][snr]
        if not abs(u - g) < 0.25 * max(u, g) + 0.2:
            failed.append(f"at {snr:g} dB uniform {u:.3f} and gaussian "
                          f"{g:.3f} bits/symbol differ significantly")
    # measured rates should beat the (conservative) theorem bound wherever
    # the bound is non-vacuous at moderate SNR
    for snr in snrs:
        b = achievable_rate_bound(6, snr)
        if 0.5 < b < 4.0 and not curves["uniform"][snr] > 0.6 * b:
            failed.append(f"at {snr:g} dB uniform reaches "
                          f"{curves['uniform'][snr]:.3f} bits/symbol, not "
                          f"above 0.6x the Theorem 1 bound {b:.3f}")
    return failed


def _ablation_hash_claims(report: dict) -> list[str]:
    """Paper §7.1: Salsa20, lookup3 and one-at-a-time show "no discernible
    difference in performance"."""
    snrs, curves = report["snrs"], report["curves"]
    failed = []
    # "no discernible difference": sweep averages agree within 15% (per
    # point we allow Monte-Carlo slack at quick-profile trial counts)
    avgs = _mean_rates(curves)
    if not max(avgs.values()) < 1.15 * min(avgs.values()):
        failed.append("sweep averages differ by 15% or more: "
                      + ", ".join(f"{name} {avg:.3f}"
                                  for name, avg in avgs.items()))
    for snr in snrs:
        rates = [curves[name][snr] for name in curves]
        if not max(rates) < 1.4 * min(rates):
            failed.append(f"at {snr:g} dB the hashes' rates differ by 40% or "
                          f"more: {', '.join(f'{r:.3f}' for r in rates)}")
    return failed


#: The first Figure 8-10 script seeded each schedule's sweep with
#: ``hash(sched) % 1000`` — Python string hashing, which is randomized per
#: interpreter run, so the script never reproduced its own numbers.  The
#: spec freezes the values the formula yields under ``PYTHONHASHSEED=0``
#: (the golden-capture convention) as plain constants; the sweep is now
#: reproducible everywhere.
_FIG8_10_SEEDS = {"none": 972, "2-way": 126, "4-way": 699, "8-way": 333}

_FIG8_12_LENGTHS = (64, 128, 256, 512, 1024, 2048)

_SWEEPS: dict[str, _Sweep] = {
    "fig8_7": _Sweep(
        title="Bubble depth trade-off (Figure 8-7)",
        summary="beam width vs pruning depth at constant work: (B, d) in "
                "{(512,1)..(1,4)} (Figure 8-7)",
        csv="fig8_7_bubble_depth", snrs=(0, 30, 10.0, 5.0), messages=(2, 8),
        values=((512, 1), (64, 2), (8, 3), (1, 4)),
        label=lambda bd: f"B={bd[0]}, d={bd[1]}",
        # n/k = 85 spine values at k=3
        scheme=lambda bd: {"n_bits": 255, "params": {"k": 3},
                           "decoder": {"B": bd[0], "d": bd[1],
                                       "max_passes": 40}},
        claims=_fig8_7_claims,
        seed=lambda bd: bd[0] + bd[1], gap=True),
    "fig8_8": _Sweep(
        title="Output symbol density c (Figure 8-8)",
        summary="output symbol density c=1..6 vs the Shannon bound "
                "(Figure 8-8)",
        csv="fig8_8_density", snrs=(0, 35, 7.0, 5.0), messages=(2, 8),
        values=(1, 2, 3, 4, 5, 6), label=lambda c: f"c={c}",
        scheme=lambda c: _spinal(params={"c": c}),
        claims=_fig8_8_claims,
        seed=lambda c: c * 100, head={"shannon bound": awgn_capacity}),
    "fig8_9": _Sweep(
        title="Tail symbol count (Figure 8-9)",
        summary="tail symbol count 1..5 (Figure 8-9)",
        csv="fig8_9_tail_symbols", snrs=(5, 25, 10.0, 5.0), messages=(3, 10),
        values=(1, 2, 3, 4, 5), label=lambda t: f"{t} tail symbols",
        scheme=lambda t: _spinal(params={"tail_symbols": t}),
        claims=_fig8_9_claims,
        seed=lambda t: t * 19),
    "fig8_10": _Sweep(
        title="Puncturing schedules (Figure 8-10)",
        summary="puncturing schedules none/2/4/8-way as gap to capacity "
                "(Figure 8-10)",
        csv="fig8_10_puncturing", snrs=(5, 30, 5.0, 1.0), messages=(3, 10),
        values=("none", "2-way", "4-way", "8-way"),
        label=lambda s: f"{s} puncturing",
        scheme=lambda s: _spinal(1024, params={"puncturing": s}),
        claims=_fig8_10_claims,
        seed=_FIG8_10_SEEDS.__getitem__, gap=True),
    "fig8_12": _Sweep(
        title="Code block length (Figure 8-12)",
        summary="code block length n=64..2048 as gap to capacity "
                "(Figure 8-12)",
        csv="fig8_12_block_length", snrs=(5, 25, 10.0, 5.0), messages=(3, 10),
        # the quick profile drops n=2048
        values=_FIG8_12_LENGTHS, quick_values=_FIG8_12_LENGTHS[:5],
        label=lambda n: f"n={n}", scheme=lambda n: _spinal(n),
        claims=_fig8_12_claims,
        seed=lambda n: n, gap=True, extra=_fig8_12_avg_gap),
    "ablation_constellation": _Sweep(
        title="Constellation map ablation (§3.3, §4.6)",
        summary="uniform vs truncated-Gaussian constellation map plus the "
                "Theorem 1 bound (§3.3, §4.6)",
        csv="ablation_constellation", snrs=(0, 25, 5.0, 1.0),
        messages=(3, 10), values=("uniform", "gaussian"), label=str,
        scheme=lambda m: _spinal(params={"mapping_name": m}),
        claims=_ablation_constellation_claims,
        seed=lambda m: 5,
        tail={"theorem-1 bound (c=6)":
              partial(achievable_rate_bound, 6)}),
    "ablation_hash": _Sweep(
        title="Hash function ablation (§7.1)",
        summary="one-at-a-time vs lookup3 vs Salsa20 spine hashes (§7.1)",
        csv="ablation_hash", snrs=(5, 25, 10.0, 5.0), messages=(3, 10),
        values=("one_at_a_time", "lookup3", "salsa20"), label=str,
        scheme=lambda h: _spinal(B=128, params={"hash_name": h}),
        claims=_ablation_hash_claims,
        seed=lambda h: 0),
}


# --------------------------------------------------------------------------
# fig8_1 — rate comparison (Figure 8-1 + the intro's summary table)
# --------------------------------------------------------------------------

def _fig8_1_points(profile: str) -> list[PointSpec]:
    """Series ``j`` (from 1) seeds ``j + 101 * i`` per grid index, cohorts
    batch the full count."""
    # Scaled down from the paper: a coarser SNR grid, fewer messages per
    # point, Raptor k=2048 (paper 9500), Strider G=12 with ~160-bit layers
    # (paper G=33 with 1530-bit layers).  The claims check orderings and
    # curve shapes, which survive the scaling.
    snrs = grid(-5, 35, _scale(profile, 5.0, 1.0))
    dec = {"B": 256, "max_passes": 40}
    strider = {"n_bits": 1920, "n_layers": 12, "max_passes": 30}
    sweeps = (
        ("spinal n=256",
         SchemeSpec("spinal", {"n_bits": 256, "decoder": dec}), (3, 10)),
        ("spinal n=1024",
         SchemeSpec("spinal", {"n_bits": 1024, "decoder": dec}), (2, 6)),
        ("raptor/qam-256", SchemeSpec("raptor", {"k": 2048}), (2, 6)),
        ("strider", SchemeSpec("strider", strider), (2, 5)),
        ("strider+",
         SchemeSpec("strider", {**strider, "subpasses_per_pass": 4}), (1, 5)),
    )
    points: list[PointSpec] = []
    for base, (series, scheme, msgs) in enumerate(sweeps, start=1):
        points += _points(series, scheme, snrs, _scale(profile, *msgs),
                          seed=lambda i, snr: base + 101 * i)
    points += [
        PointSpec(
            series="ldpc envelope", x=snr, seed=6, kind="ldpc_envelope",
            options={"n_blocks": _scale(profile, 4, 20),
                     "iterations": _scale(profile, 25, 40)},
        )
        for snr in snrs
    ]
    return points


_FIG8_1_BANDS = {"< 10dB": lambda s: s < 10,
                 "10-20dB": lambda s: 10 <= s <= 20,
                 "> 20dB": lambda s: s > 20}


def _report_fig8_1(run: ExperimentRun, results_dir: str) -> dict:
    snrs, curves = _series_report(
        run, results_dir, "fig8_1_rates", run.spec.title,
        head_series={"shannon bound": awgn_capacity})
    _gap_report(results_dir, "fig8_1_gaps", "Gap to capacity (Figure 8-1)",
                snrs, curves.items(), y_label="gap_db")
    rows = []
    fractions: dict[str, dict[str, float]] = {}
    for label, curve in curves.items():
        fractions[label] = {}
        row = [label]
        for band, pred in _FIG8_1_BANDS.items():
            pts = [curve[s] / awgn_capacity(s) for s in snrs if pred(s)]
            frac = float(np.mean(pts)) if pts else float("nan")
            fractions[label][band] = frac
            row.append(f"{frac:.2f}")
        rows.append(row)
    print()
    print(render_table(["code", *_FIG8_1_BANDS.keys()], rows))
    return {"snrs": snrs, "curves": curves, "fractions": fractions}


def _fig8_1_claims(report: dict) -> list[str]:
    """The headline result: spinal beats Raptor, Strider and the LDPC
    envelope in every SNR band (the intro's "21% over Raptor / 40% over
    Strider" table)."""
    fractions = report["fractions"]
    spinal = fractions["spinal n=256"]
    failed = []
    for band in spinal:
        for rival in ("raptor/qam-256", "strider", "ldpc envelope"):
            if not spinal[band] > fractions[rival][band]:
                failed.append(f"{band}: spinal n=256 reaches "
                              f"{spinal[band]:.3f} of capacity, not above "
                              f"{rival}'s {fractions[rival][band]:.3f}")
    # spinal stays within a sane distance of capacity everywhere
    if not all(f > 0.55 for f in spinal.values()):
        failed.append("spinal n=256 falls to 0.55 of capacity or below in a "
                      "band: " + ", ".join(f"{band} {f:.3f}"
                                           for band, f in spinal.items()))
    return failed


# --------------------------------------------------------------------------
# bsc — spinal over the binary symmetric channel (§4.6 capacity claim)
# --------------------------------------------------------------------------

_BSC_FLIPS = (0.01, 0.05, 0.1, 0.2, 0.3)


def _bsc_points(profile: str) -> list[PointSpec]:
    scheme = SchemeSpec("spinal", {
        "n_bits": 256,
        "params": {"c": 1, "mapping_name": "bsc"},
        "decoder": {"B": 256, "max_passes": 64},
    })
    return _points("spinal k=4 B=256", scheme, _BSC_FLIPS,
                   _scale(profile, 3, 10), seed=lambda i, p: 500 + i,
                   channel=ChannelSpec("bsc"), capacity_reference="bsc")


def _report_bsc(run: ExperimentRun, results_dir: str) -> dict:
    rates = run.rates()["spinal k=4 B=256"]
    result = ExperimentResult("bsc_rate", run.spec.title,
                              "flip_probability", "rate_bits_per_use")
    cap = result.new_series("bsc capacity")
    meas = result.new_series("spinal k=4 B=256")
    for p in _BSC_FLIPS:
        cap.add(p, bsc_capacity(p))
        meas.add(p, rates[p])
    _finish(result, results_dir)
    return {"rates": rates}


def _bsc_claims(report: dict) -> list[str]:
    """The decoder "achieves the Shannon capacity over both AWGN and BSC
    models" (§3.3, §4.6).  §8 has no BSC figure, so this chart of rate vs
    1 - H(p) is supporting evidence."""
    rates = report["rates"]
    failed = []
    for p in _BSC_FLIPS:
        capacity = bsc_capacity(p)
        if not rates[p] <= capacity + 1e-9:
            failed.append(f"p={p:g}: rate {rates[p]:.3f} exceeds the BSC "
                          f"capacity {capacity:.3f}")
        # within a reasonable fraction of 1 - H(p) at every flip rate
        if not rates[p] > 0.55 * capacity:
            failed.append(f"p={p:g}: rate {rates[p]:.3f} is not above 0.55x "
                          f"the BSC capacity {capacity:.3f}")
    # rate decreases with noise
    if not rates[0.01] > rates[0.1] > rates[0.3]:
        failed.append(f"rates at p=0.01, 0.1, 0.3 ({rates[0.01]:.3f}, "
                      f"{rates[0.1]:.3f}, {rates[0.3]:.3f}) do not strictly "
                      "decrease")
    return failed


# --------------------------------------------------------------------------
# fig8_4 / fig8_5 — Rayleigh fading with and without fading information
# --------------------------------------------------------------------------

_FADING_TAUS = (1, 10, 100)


def _fading_points(give_csi: bool | str, lo: float,
                   profile: str) -> list[PointSpec]:
    """Spinal vs Strider+ at tau = 1/10/100.  Figure 8-5's "no fading
    information" still assumes carrier-phase recovery (a receiver with
    uniformly random uncompensated phase could decode nothing at all), so
    it runs the amplitude-blind ``"phase"`` CSI policy."""
    snrs = grid(lo, 30, _scale(profile, 10.0, 5.0))
    points: list[PointSpec] = []
    for tau in _FADING_TAUS:
        channel = ChannelSpec("rayleigh", {"coherence_time": tau})
        spinal = SchemeSpec("spinal", {
            "n_bits": 256,
            "decoder": {"B": 256, "max_passes": 48},
            "give_csi": give_csi,
            "label": f"spinal tau={tau}",
        })
        strider = SchemeSpec("strider", {
            "n_bits": 1920, "n_layers": 12, "subpasses_per_pass": 4,
            "max_passes": 30, "give_csi": give_csi,
            "label": f"strider+ tau={tau}",
        })
        points += _points(f"spinal tau={tau}", spinal, snrs,
                          _scale(profile, 2, 8),
                          seed=lambda i, snr: int(snr) + tau,
                          channel=channel)
        points += _points(f"strider+ tau={tau}", strider, snrs,
                          _scale(profile, 1, 5),
                          seed=lambda i, snr: int(snr) + tau + 7,
                          channel=channel, batched=False)
    return points


def _fig8_4_claims(report: dict) -> list[str]:
    """Paper: with exact fading information spinal performs similarly at
    all coherence times and beats Strider+ by 11-20% at 10 dB and 13-20%
    at 20 dB."""
    snrs, curves = report["snrs"], report["curves"]
    failed = []
    for tau in _FADING_TAUS:
        for snr in snrs:
            spinal = curves[f"spinal tau={tau}"][snr]
            strider = curves[f"strider+ tau={tau}"][snr]
            if not spinal <= rayleigh_capacity(snr) + 1e-9:
                failed.append(f"tau={tau}, {snr:g} dB: spinal {spinal:.3f} "
                              "exceeds the fading capacity "
                              f"{rayleigh_capacity(snr):.3f}")
            if snr >= 10 and not spinal > strider:
                failed.append(f"tau={tau}, {snr:g} dB: spinal {spinal:.3f} "
                              f"does not beat strider+ {strider:.3f}")
    # spinal performs roughly similarly across coherence times (paper)
    for snr in snrs:
        vals = [curves[f"spinal tau={t}"][snr] for t in _FADING_TAUS]
        if min(vals) > 0 and not max(vals) / min(vals) < 2.5:
            failed.append(f"{snr:g} dB: spinal's rates across coherence "
                          "times differ 2.5x or more: "
                          f"{', '.join(f'{v:.3f}' for v in vals)}")
    return failed


def _fig8_5_claims(report: dict) -> list[str]:
    """Paper: decoded without fading information, spinal degrades
    gracefully while Strider+ collapses — "spinal codes achieve much higher
    rates than Strider+"."""
    snrs, curves = report["snrs"], report["curves"]
    taus = sorted({int(label.split("tau=")[1]) for label in curves})
    failed = []
    # Without CSI the blind spinal decoder must clearly beat blind Strider+
    # (the paper's robustness point) at every coherence time and SNR.
    for tau in taus:
        for snr in snrs:
            spinal = curves[f"spinal tau={tau}"][snr]
            strider = curves[f"strider+ tau={tau}"][snr]
            if not spinal >= strider:
                failed.append(f"tau={tau}, {snr:g} dB: spinal {spinal:.3f} "
                              f"is below strider+ {strider:.3f}")
    # and spinal still delivers usable rate at high SNR
    top = max(snrs)
    if not any(curves[f"spinal tau={tau}"][top] > 0.5 for tau in taus):
        failed.append(f"at {top:g} dB spinal reaches 0.5 bits/symbol at no "
                      "coherence time")
    return failed


# --------------------------------------------------------------------------
# fig8_2 — rateless vs fixed-rate ("rated") spinal (Figure 8-2)
# --------------------------------------------------------------------------

_FIG8_2_FIXED_PASSES = (1, 2, 3, 4, 6, 8, 12)


def _fig8_2_points(profile: str) -> list[PointSpec]:
    snrs = grid(0, 30, _scale(profile, 5.0, 2.0))
    n_msgs = _scale(profile, 4, 20)
    options = {"n_bits": 256,
               "params": {"puncturing": "none", "tail_symbols": 2},
               "decoder": {"B": 256, "max_passes": 40}}
    points = _points("spinal rateless", SchemeSpec("spinal", options),
                     snrs, n_msgs, seed=lambda i, snr: 100 + i)
    for L in _FIG8_2_FIXED_PASSES:
        points += _points(f"spinal fixed L={L}",
                          SchemeSpec("spinal", {**options, "fixed_passes": L}),
                          snrs, n_msgs, seed=lambda i, snr: 200 + 17 * i + L)
    return points


def _report_fig8_2(run: ExperimentRun, results_dir: str) -> dict:
    snrs, curves = _series_report(
        run, results_dir, "fig8_2_rateless_vs_rated", run.spec.title)
    rateless = curves["spinal rateless"]
    rated = {L: curves[f"spinal fixed L={L}"] for L in _FIG8_2_FIXED_PASSES}
    return {"snrs": snrs, "rateless": rateless, "rated": rated}


def _fig8_2_claims(report: dict) -> list[str]:
    """The hedging effect: the rateless code outperforms *every* rated
    version (L passes, one decode) at *every* SNR."""
    snrs, rateless, rated = report["snrs"], report["rateless"], report["rated"]
    failed = []
    # Hedging: the rateless code matches or beats the rated envelope
    # everywhere (small slack for Monte-Carlo noise).
    for snr in snrs:
        envelope = max(curve[snr] for curve in rated.values())
        if not rateless[snr] >= envelope * 0.9:
            failed.append(f"at {snr:g} dB rateless {rateless[snr]:.3f} is "
                          f"below 0.9x the rated envelope {envelope:.3f}")
    # and it strictly beats each *individual* rated version somewhere
    for L, curve in rated.items():
        if not any(rateless[snr] > curve[snr] * 1.05 for snr in snrs):
            failed.append(f"rateless never beats fixed L={L} by 5%")
    return failed


# --------------------------------------------------------------------------
# fig8_3 — fraction of capacity at small block sizes (Figure 8-3)
# --------------------------------------------------------------------------

_FIG8_3_SIZES = (1024, 2048, 3072)
_FIG8_3_CODES = ("spinal", "raptor", "strider", "strider+")


def _strider_layers(n_bits: int) -> int:
    """Layer count whose k_layer stays near Figure 8-1's (~160 bits)."""
    for g in (12, 8, 6, 4):
        if n_bits % g == 0:
            return g
    return 4


def _fig8_3_points(profile: str) -> list[PointSpec]:
    snrs = grid(5, 25, _scale(profile, 10.0, 2.0))
    n_msgs = _scale(profile, 2, 8)
    dec = {"B": 256, "max_passes": 40}
    points: list[PointSpec] = []
    for n in _FIG8_3_SIZES:
        strider = {"n_bits": n, "n_layers": _strider_layers(n),
                   "max_passes": 30}
        per_code = (
            SchemeSpec("spinal", {"n_bits": n, "decoder": dec}),
            SchemeSpec("raptor", {"k": n}),
            SchemeSpec("strider", strider),
            SchemeSpec("strider", {**strider, "subpasses_per_pass": 4}),
        )
        # seed bases n, n+1, n+2, n+3 per code, then
        # + 31 * grid_index inside each sweep
        for j, (code, scheme) in enumerate(zip(_FIG8_3_CODES, per_code)):
            msgs = _scale(profile, 1, 6) if code == "strider+" else n_msgs
            points += _points(f"{code} n={n}", scheme, snrs, msgs,
                              seed=lambda i, snr: n + j + 31 * i)
    return points


def _report_fig8_3(run: ExperimentRun, results_dir: str) -> dict:
    rates = run.rates()
    table = {
        n: {code: _mean_capacity_fraction(rates, f"{code} n={n}")
            for code in _FIG8_3_CODES}
        for n in _FIG8_3_SIZES
    }
    result = ExperimentResult("fig8_3_short_messages", run.spec.title,
                              "message_bits", "fraction_of_capacity")
    for code in _FIG8_3_CODES:
        s = result.new_series(code)
        for n in _FIG8_3_SIZES:
            s.add(n, table[n][code])
    _finish(result, results_dir)
    rows = [[n] + [f"{table[n][c]:.2f}" for c in _FIG8_3_CODES]
            for n in _FIG8_3_SIZES]
    print(render_table(["bits", *_FIG8_3_CODES], rows))
    return {"table": table, "codes": _FIG8_3_CODES}


def _fig8_3_claims(report: dict) -> list[str]:
    """Paper: at packet sizes typical of telephony and gaming, spinal
    beats Raptor by 14-20% and Strider by 2.5x-10x."""
    table = report["table"]
    failed = []
    for n in _FIG8_3_SIZES:
        spinal, raptor, strider = (table[n][code]
                                   for code in ("spinal", "raptor", "strider"))
        if not spinal > raptor:
            failed.append(f"n={n}: spinal {spinal:.3f} of capacity does not "
                          f"beat raptor {raptor:.3f}")
        # the paper's 2.5x-10x gap over strider at small packets
        if not spinal > 2.0 * strider:
            failed.append(f"n={n}: spinal {spinal:.3f} of capacity is not "
                          f"over 2x strider {strider:.3f}")
    return failed


# --------------------------------------------------------------------------
# fig8_6 — compute budget vs performance, choosing k and B (Figure 8-6)
# --------------------------------------------------------------------------

_FIG8_6_BUDGETS = (16, 64, 256, 1024)  # branch evaluations per bit
_FIG8_6_KS = (1, 2, 3, 4, 5, 6)


def _fig8_6_points(profile: str) -> list[PointSpec]:
    snrs = grid(2, 24, _scale(profile, 11.0, 4.0))
    points: list[PointSpec] = []
    for k in _FIG8_6_KS:
        for budget in _FIG8_6_BUDGETS:
            scheme = SchemeSpec("spinal", {
                "n_bits": 240,  # divisible by every k (lcm(1..6) = 60)
                "params": {"k": k},
                "decoder": {"B": max(1, round(budget * k / (1 << k))),
                            "max_passes": 40},
            })
            points += _points(f"k={k} budget={budget}", scheme, snrs,
                              _scale(profile, 2, 6),
                              seed=lambda i, snr: 1000 * k + budget + i)
    return points


def _report_fig8_6(run: ExperimentRun, results_dir: str) -> dict:
    rates = run.rates()
    curves = {
        k: {budget: _mean_capacity_fraction(rates, f"k={k} budget={budget}")
            for budget in _FIG8_6_BUDGETS}
        for k in _FIG8_6_KS
    }
    result = ExperimentResult("fig8_6_compute_budget", run.spec.title,
                              "branch_evaluations_per_bit",
                              "fraction_of_capacity")
    for k in _FIG8_6_KS:
        s = result.new_series(f"k={k}")
        for budget in _FIG8_6_BUDGETS:
            s.add(budget, curves[k][budget])
    _finish(result, results_dir)
    return {"curves": curves}


def _fig8_6_claims(report: dict) -> list[str]:
    """Paper: k = 4 performs well across budgets, small k underperforms
    at high SNR, and B=256, k=4 is a good operating choice."""
    curves = report["curves"]
    failed = []
    top, bottom = _FIG8_6_BUDGETS[-1], _FIG8_6_BUDGETS[0]
    # k=4 is competitive at the top budget: within 15% of the best k
    best = max(curves[k][top] for k in curves)
    if not curves[4][top] > 0.85 * best:
        failed.append(f"at budget {top} k=4 reaches {curves[4][top]:.3f} of "
                      f"capacity, not above 0.85x the best k's {best:.3f}")
    # small k underperforms at high budget (can't reach high rates)
    if not curves[1][top] < curves[4][top]:
        failed.append(f"at budget {top} k=1 reaches {curves[1][top]:.3f} of "
                      f"capacity, not below k=4's {curves[4][top]:.3f}")
    # more compute should help (weak monotonicity for k=4)
    if not curves[4][top] >= curves[4][bottom] - 0.05:
        failed.append(f"k=4 reaches {curves[4][top]:.3f} of capacity at "
                      f"budget {top}, more than 0.05 below its "
                      f"{curves[4][bottom]:.3f} at budget {bottom}")
    return failed


# --------------------------------------------------------------------------
# fig8_11 — CDF of symbols needed to decode, per SNR (Figure 8-11)
# --------------------------------------------------------------------------

_FIG8_11_SNRS = (6, 10, 14, 18, 22, 26)
_FIG8_11_BITS = 256


def _fig8_11_points(profile: str) -> list[PointSpec]:
    # n=256, k=4, B=256, 8-way puncturing: full passes are ~64 symbols and
    # subpasses 8, the quantum of the counts.
    return [
        PointSpec(
            series=f"SNR={snr}dB", x=float(snr), seed=snr,
            kind="symbol_cdf", channel=_AWGN,
            n_messages=_scale(profile, 12, 60),
            options={
                "n_bits": _FIG8_11_BITS,
                "decoder": {"B": 256, "max_passes": 48},
                "probe_growth": 1.0,
            },
        )
        for snr in _FIG8_11_SNRS
    ]


def _report_fig8_11(run: ExperimentRun, results_dir: str) -> dict:
    curves = run.curves()
    counts = {
        snr: np.array(curves[f"SNR={snr}dB"][float(snr)]["counts"])
        for snr in _FIG8_11_SNRS
    }
    result = ExperimentResult("fig8_11_symbol_cdf", run.spec.title,
                              "n_symbols", "cdf")
    for snr in _FIG8_11_SNRS:
        s = result.new_series(f"SNR={snr}dB")
        data = np.sort(counts[snr])
        for i, x in enumerate(data):
            s.add(float(x), (i + 1) / data.size)
    _finish(result, results_dir)
    medians = {snr: float(np.median(counts[snr])) for snr in _FIG8_11_SNRS}
    print("medians:", medians)
    return {"counts": counts, "medians": medians}


def _fig8_11_claims(report: dict) -> list[str]:
    """The symbol counts adapt to the instantaneous noise (the hedging
    effect behind Figure 8-2): they track capacity and concentrate at
    higher SNR."""
    counts, medians = report["counts"], report["medians"]
    failed = []
    # higher SNR needs fewer symbols, monotonically across the sweep ends
    if not medians[26] < medians[14] < medians[6]:
        failed.append("median symbol counts at 26, 14, 6 dB "
                      f"({medians[26]:g}, {medians[14]:g}, {medians[6]:g}) "
                      "do not strictly increase")
    # the median tracks capacity: n/median within a factor of capacity
    for snr in _FIG8_11_SNRS:
        implied_rate = _FIG8_11_BITS / medians[snr]
        capacity = awgn_capacity(snr)
        if not 0.4 * capacity < implied_rate <= capacity:
            failed.append(f"at {snr} dB the median implies rate "
                          f"{implied_rate:.3f}, outside (0.4, 1] x capacity "
                          f"{capacity:.3f}")
    # dispersion shrinks with SNR (concentration/hedging)
    spread6 = np.percentile(counts[6], 90) - np.percentile(counts[6], 10)
    spread26 = np.percentile(counts[26], 90) - np.percentile(counts[26], 10)
    if not spread26 < spread6:
        failed.append(f"the 10-90% spread of symbol counts is {spread26:g} "
                      f"at 26 dB, not below {spread6:g} at 6 dB")
    return failed


# --------------------------------------------------------------------------
# figB_2 — the hardware parameter set in simulation (Figure B-2)
# --------------------------------------------------------------------------

_FIGB_2_HW_SERIES = "simulation, hardware parameters (B=4)"
_FIGB_2_SW_SERIES = "simulation, B=256 reference"


def _figB_2_points(profile: str) -> list[PointSpec]:
    # 0-14 dB is the range the prototype's USRP2 front-ends could reach
    snrs = grid(0, 14, _scale(profile, 2.0, 1.0))

    def scheme(B: int) -> SchemeSpec:
        return SchemeSpec("spinal", {
            "n_bits": 192,
            "params": {"k": 4, "c": 7},  # SpinalParams.hardware_profile()
            "decoder": {"B": B, "d": 1, "max_passes": 48}})

    return (_points(_FIGB_2_HW_SERIES, scheme(4), snrs,
                    _scale(profile, 5, 25), seed=lambda i, snr: 300 + i)
            + _points(_FIGB_2_SW_SERIES, scheme(256), snrs,
                      _scale(profile, 3, 10), seed=lambda i, snr: 400 + i))


def _report_figB_2(run: ExperimentRun, results_dir: str) -> dict:
    snrs, curves = _series_report(run, results_dir, "figB_2_hardware",
                                  run.spec.title)
    return {"snrs": snrs,
            "hw": curves[_FIGB_2_HW_SERIES],
            "sw": curves[_FIGB_2_SW_SERIES]}


def _figB_2_claims(report: dict) -> list[str]:
    """The Airblue FPGA prototype (n=192, k=4, c=7, d=1, B=4) ran
    over-the-air rates that track a similarly configured simulation; the
    tiny beam costs rate against the B=256 software decoder."""
    snrs, hw, sw = report["snrs"], report["hw"], report["sw"]
    lo, hi = snrs[0], snrs[-1]
    failed = []
    # the B-2 curve shape: ~0.5 bits/sym at low SNR to ~2.5-3 at 14 dB
    if not hw[lo] < 1.2:
        failed.append(f"the hardware profile reaches {hw[lo]:.3f} "
                      f"bits/symbol at {lo:g} dB, not below 1.2")
    if not hw[hi] > 1.8:
        failed.append(f"the hardware profile reaches {hw[hi]:.3f} "
                      f"bits/symbol at {hi:g} dB, not above 1.8")
    # monotone growth endpoints
    if not hw[hi] > hw[lo]:
        failed.append(f"the hardware profile does not grow from {lo:g} dB "
                      f"({hw[lo]:.3f}) to {hi:g} dB ({hw[hi]:.3f})")
    # the tiny hardware beam cannot beat the full software decoder
    for snr in snrs:
        if not hw[snr] <= sw[snr] * 1.1:
            failed.append(f"at {snr:g} dB B=4 reaches {hw[snr]:.3f}, above "
                          f"1.1x B=256's {sw[snr]:.3f}")
    return failed


# --------------------------------------------------------------------------
# table8_1 — OFDM PAPR for sparse vs dense constellations (Table 8.1)
# --------------------------------------------------------------------------

_TABLE8_1_ROWS = (
    ("QAM-4", "qam-4"),
    ("QAM-64", "qam-64"),
    ("QAM-2^20", "qam-2^20"),
    ("Trunc. Gaussian, beta=2", "gaussian"),
)


def _table8_1_points(profile: str) -> list[PointSpec]:
    # the paper ran 5M trials per row
    n_symbols = _scale(profile, 20_000, 400_000)
    return [
        PointSpec(
            series=label, x=float(i), seed=8, kind="papr",
            options={"constellation": name, "n_ofdm_symbols": n_symbols},
        )
        for i, (label, name) in enumerate(_TABLE8_1_ROWS)
    ]


def _report_table8_1(run: ExperimentRun, results_dir: str) -> dict:
    curves = run.curves()
    table = {
        label: (curves[label][float(i)]["mean_papr_db"],
                curves[label][float(i)]["p9999_papr_db"])
        for i, (label, _) in enumerate(_TABLE8_1_ROWS)
    }
    result = ExperimentResult("table8_1_papr", run.spec.title,
                              "row", "papr_db")
    mean_series = result.new_series("mean")
    tail_series = result.new_series("p99.99")
    rows = []
    for i, (label, _) in enumerate(_TABLE8_1_ROWS):
        mean, tail = table[label]
        mean_series.add(i, mean)
        tail_series.add(i, tail)
        rows.append([label, f"{mean:.2f} dB", f"{tail:.2f} dB"])
    _finish(result, results_dir)
    print(render_table(["Constellation", "Mean PAPR", "99.99% below"], rows))
    return {"table": table}


def _table8_1_claims(report: dict) -> list[str]:
    """Paper: OFDM obscures constellation density — every row lands at
    ~7.3 dB mean and ~11.4 dB p99.99 PAPR."""
    table = report["table"]
    means = {label: table[label][0] for label, _ in _TABLE8_1_ROWS}
    tails = {label: table[label][1] for label, _ in _TABLE8_1_ROWS}
    failed = []
    # all means in the paper's ~7.3 dB neighbourhood
    for label, mean in means.items():
        if not 6.8 < mean < 8.0:
            failed.append(f"{label}: mean PAPR {mean:.2f} dB is outside "
                          "(6.8, 8.0) dB")
    # density has negligible effect (paper: 7.29-7.34 dB spread)
    spread = max(means.values()) - min(means.values())
    if not spread < 0.3:
        failed.append(f"mean PAPR spreads {spread:.2f} dB across "
                      "constellations, not below 0.3 dB")
    # tails near the paper's ~11.4 dB (looser: fewer trials resolve p99.99)
    for label, tail in tails.items():
        if not 10.0 < tail < 13.0:
            failed.append(f"{label}: p99.99 PAPR {tail:.2f} dB is outside "
                          "(10, 13) dB")
    return failed


# --------------------------------------------------------------------------
# link_goodput — oracle code rate vs framed ARQ goodput (§5, §6, §8.4)
# --------------------------------------------------------------------------

_LINK_FEEDBACK_DELAY = 256  # symbol times; a LAN-ish RTT
_LINK_REF_SERIES = "oracle session (paper metric)"
_LINK_SERIES = (
    ("oracle link (shared seeds)", "oracle", {"framing": False}),
    ("framed link", "framed", {"max_block_bits": 512}),
    (f"framed + {_LINK_FEEDBACK_DELAY}-symbol feedback", "delayed",
     {"max_block_bits": 512, "feedback_delay": _LINK_FEEDBACK_DELAY}),
)


def _link_goodput_points(profile: str) -> list[PointSpec]:
    snrs = grid(5, 25, _scale(profile, 5.0, 1.0))
    n_packets = _scale(profile, 3, 8)
    payload_bytes = _scale(profile, 16, 64)
    dec = {"B": 64, "max_passes": 32}
    # paper-standard reference curve (independent seeds; plotted only)
    points = _points(
        _LINK_REF_SERIES,
        SchemeSpec("spinal", {"n_bits": payload_bytes * 8, "decoder": dec}),
        snrs, n_packets, seed=lambda i, snr: 300 + i)
    # the three link sweeps share per-point seeds, so the oracle-mode jobs
    # see the same payload bytes and channel RNG stream as the framed jobs
    # — the comparison isolates protocol overhead, not sampling noise
    for series, tag, config in _LINK_SERIES:
        points += _link_points(series, tag, snrs, lambda i: 500 + 17 * i,
                               n_packets=n_packets,
                               payload_bytes=payload_bytes,
                               decoder=dec, config=config)
    return points


def _link_records(curve: dict[float, dict]) -> list[dict]:
    """Store records in sweep order, minus the orchestrator's series/x keys
    (the JSON artifact holds raw ``run_job`` dicts)."""
    return [
        {k: v for k, v in curve[snr].items() if k not in ("series", "x")}
        for snr in sorted(curve)
    ]


def _report_link_goodput(run: ExperimentRun, results_dir: str) -> dict:
    curves = run.curves()
    reference = {snr: rec["rate"]
                 for snr, rec in curves[_LINK_REF_SERIES].items()}
    snrs = sorted(reference)
    oracle, framed, delayed = (
        _link_records(curves[series]) for series, _, _ in _LINK_SERIES)
    result = ExperimentResult("link_goodput", run.spec.title,
                              "snr_db", "bits_per_symbol")
    s_ref = result.new_series(_LINK_REF_SERIES)
    series = [result.new_series(label) for label, _, _ in _LINK_SERIES]
    for i, snr in enumerate(snrs):
        s_ref.add(snr, reference[snr])
        for s, batch in zip(series, (oracle, framed, delayed)):
            s.add(snr, batch[i]["goodput"])
    _finish(result, results_dir)
    payload = {
        "experiment": "link_goodput",
        "feedback_delay": _LINK_FEEDBACK_DELAY,
        "snrs_db": [float(s) for s in snrs],
        "oracle_session_rate": {f"{s:g}": reference[s] for s in snrs},
        "oracle": oracle,
        "framed": framed,
        "framed_delayed": delayed,
    }
    path = write_canonical_json(
        os.path.join(results_dir, "BENCH_link_goodput.json"), payload)
    print(f"[json] {path}")
    return {"snrs": snrs, "reference": reference,
            "oracle": oracle, "framed": framed, "delayed": delayed}


def _sweep_goodput(batch: list[dict]) -> float:
    """Aggregate goodput across a whole SNR sweep (bits / symbols)."""
    bits = sum(r["payload_bits_delivered"] for r in batch)
    symbols = sum(r["symbols"] for r in batch)
    return bits / symbols if symbols else 0.0


def _link_goodput_claims(report: dict) -> list[str]:
    """What the protocol costs over the oracle rate: framing (§6) and
    feedback delay (§8.4) each take goodput, within sane bounds."""
    framed, delayed = report["framed"], report["delayed"]
    failed = []
    for f, d in zip(framed, delayed):
        if d["n_delivered"] == d["n_packets"] == f["n_delivered"]:
            # Same seeds: feedback delay only ever removes goodput.
            if not d["goodput"] <= f["goodput"]:
                failed.append(f"{d['snr_db']:g} dB: delayed feedback "
                              f"goodput {d['goodput']:.3f} is above the "
                              f"framed link's {f['goodput']:.3f}")
            if not d["wasted_symbols"] >= f["wasted_symbols"]:
                failed.append(f"{d['snr_db']:g} dB: delayed feedback wastes "
                              f"{d['wasted_symbols']} symbols, fewer than "
                              f"the framed link's {f['wasted_symbols']}")
    oracle_goodput = _sweep_goodput(report["oracle"])
    framed_goodput = _sweep_goodput(framed)
    # Framing overhead is real: over the sweep, CRC+padding must cost
    # goodput relative to the seed-matched oracle link.
    if not framed_goodput < oracle_goodput:
        failed.append(f"framed goodput {framed_goodput:.3f} over the sweep "
                      f"is not below the oracle link's {oracle_goodput:.3f}")
    # ... but not implausibly much at these block sizes (sanity bound).
    if not framed_goodput > 0.5 * oracle_goodput:
        failed.append(f"framed goodput {framed_goodput:.3f} over the sweep "
                      "is not above 0.5x the oracle link's "
                      f"{oracle_goodput:.3f}")
    # The protocol must still deliver: goodput grows with SNR overall.
    if not framed[-1]["goodput"] > framed[0]["goodput"]:
        failed.append("framed goodput does not grow from the lowest SNR "
                      f"({framed[0]['goodput']:.3f}) to the highest "
                      f"({framed[-1]['goodput']:.3f})")
    return failed


# --------------------------------------------------------------------------
# smoke — deliberately tiny specs for CI and the test suite
# --------------------------------------------------------------------------

_TINY = {"n_bits": 16, "decoder": {"B": 4, "max_passes": 8}}


def _smoke_points(profile: str) -> list[PointSpec]:
    return _points("spinal tiny", SchemeSpec("spinal", _TINY), (5.0, 15.0),
                   2, seed=lambda i, snr: 9000 + i)


def _smoke_adaptive_points(profile: str) -> list[PointSpec]:
    policy = AdaptivePolicy(
        target_half_width=0.25, confidence=0.95,
        initial_messages=4, growth=2.0, max_messages=32)
    return [PointSpec(
        series="spinal tiny adaptive", x=10.0, seed=9100,
        scheme=SchemeSpec("spinal", _TINY), channel=_AWGN,
        batch_size=4, adaptive=policy,
    )]


def _smoke_fading_points(profile: str) -> list[PointSpec]:
    return _points("spinal tiny fading",
                   SchemeSpec("spinal", {**_TINY, "give_csi": "full"}),
                   (10.0, 20.0), 2, seed=lambda i, snr: 9200 + i,
                   channel=ChannelSpec("rayleigh", {"coherence_time": 10}),
                   capacity_reference="rayleigh")


def _smoke_link_points(profile: str) -> list[PointSpec]:
    return _link_points("link tiny", "smoke", (8.0, 18.0),
                        lambda i: 9300 + i, n_packets=1, payload_bytes=4,
                        decoder=_TINY["decoder"],
                        config={"max_block_bits": 64})


def _report_generic(run: ExperimentRun, results_dir: str) -> dict:
    """Plain rate-vs-x dump for experiments without a paper figure."""
    _, curves = _series_report(
        run, results_dir, run.spec.experiment_id, run.spec.title,
        x_label="x", y_label="rate")
    return {"curves": curves}


def _report_link_generic(run: ExperimentRun, results_dir: str) -> dict:
    """Goodput-vs-x dump for link specs (their records have no ``rate``)."""
    curves = run.curves()
    result = ExperimentResult(
        run.spec.experiment_id, run.spec.title,
        "snr_db", "goodput_bits_per_symbol")
    for label, curve in curves.items():
        s = result.new_series(label)
        for x in sorted(curve):
            s.add(x, curve[x]["goodput"])
    _finish(result, results_dir)
    return {"curves": curves}


# --------------------------------------------------------------------------

CATALOG: dict[str, CatalogEntry] = {
    entry.name: entry for entry in (
        CatalogEntry(
            "fig8_1", "Rate comparison (Figure 8-1)",
            "rate vs SNR for all schemes + gap panel + capacity-fraction "
            "table (Figure 8-1)",
            _fig8_1_points, _report_fig8_1, _fig8_1_claims),
        CatalogEntry(
            "bsc", "Spinal over BSC (§4.6)",
            "spinal rate vs BSC flip probability against 1 - H(p) (§4.6)",
            _bsc_points, _report_bsc, _bsc_claims),
        CatalogEntry(
            "fig8_2", "Rateless vs rated spinal (Figure 8-2)",
            "rateless spinal vs every fixed-rate version of itself "
            "(Figure 8-2)",
            _fig8_2_points, _report_fig8_2, _fig8_2_claims),
        CatalogEntry(
            "fig8_4", "Rayleigh fading with CSI (Figure 8-4)",
            "Rayleigh fading with CSI: spinal vs Strider+ at tau=1/10/100 "
            "(Figure 8-4)",
            partial(_fading_points, True, 0),
            partial(_rate_report, "fig8_4_fading_csi",
                    head={"fading capacity": rayleigh_capacity}),
            _fig8_4_claims),
        CatalogEntry(
            "fig8_5", "Rayleigh fading without CSI (Figure 8-5)",
            "Rayleigh fading decoded blind (phase-only CSI): spinal vs "
            "Strider+ at tau=1/10/100 (Figure 8-5)",
            partial(_fading_points, "phase", 10),
            partial(_rate_report, "fig8_5_fading_nocsi",
                    title="Rayleigh fading, AWGN decoders / no CSI "
                          "(Figure 8-5)"),
            _fig8_5_claims),
        CatalogEntry(
            "fig8_3", "Fraction of capacity at small block sizes (Figure 8-3)",
            "fraction of capacity at 1024/2048/3072-bit blocks for all "
            "schemes (Figure 8-3)",
            _fig8_3_points, _report_fig8_3, _fig8_3_claims),
        CatalogEntry(
            "fig8_6", "Compute budget vs fraction of capacity (Figure 8-6)",
            "compute budget (branch evaluations per bit) vs fraction of "
            "capacity, one curve per k (Figure 8-6)",
            _fig8_6_points, _report_fig8_6, _fig8_6_claims),
        CatalogEntry(
            "fig8_11", "CDF of symbols to decode (Figure 8-11)",
            "per-message symbol-count CDFs at six SNRs (Figure 8-11; "
            "distributional symbol_cdf points)",
            _fig8_11_points, _report_fig8_11, _fig8_11_claims),
        CatalogEntry(
            "figB_2", "Hardware profile simulation (Figure B-2)",
            "the Airblue FPGA parameter set (B=4) vs the B=256 reference "
            "in simulation (Figure B-2)",
            _figB_2_points, _report_figB_2, _figB_2_claims),
        CatalogEntry(
            "table8_1", "OFDM PAPR (Table 8.1)",
            "OFDM PAPR, mean and p99.99, for sparse vs dense "
            "constellations (Table 8.1; papr points)",
            _table8_1_points, _report_table8_1, _table8_1_claims),
        CatalogEntry(
            "link_goodput", "Oracle rate vs framed link goodput",
            "oracle code rate vs CRC-framed ARQ goodput with and without "
            "feedback delay (§5, §6, §8.4; link points)",
            _link_goodput_points, _report_link_goodput,
            _link_goodput_claims),
        CatalogEntry(
            "smoke_fading", "Tiny batched-fading spec (CI smoke)",
            "tiny Rayleigh spec exercising the batched fading/CSI decode "
            "path end-to-end",
            _smoke_fading_points, _report_generic),
        CatalogEntry(
            "smoke", "Tiny end-to-end spec (CI smoke)",
            "tiny fixed-count spec: two AWGN points, seconds to run",
            _smoke_points, _report_generic),
        CatalogEntry(
            "smoke_adaptive", "Tiny adaptive-sampling spec (CI smoke)",
            "tiny adaptive-sampling spec: one point, sequential stopping",
            _smoke_adaptive_points, _report_generic),
        CatalogEntry(
            "smoke_link", "Tiny packet-level link spec (CI smoke)",
            "tiny packet-level link spec: two ARQ points through the "
            "link point kind",
            _smoke_link_points, _report_link_generic),
        *(CatalogEntry(name, row.title, row.summary, row.points, row.report,
                       row.claims)
          for name, row in _SWEEPS.items()),
    )
}


def catalog_names() -> list[str]:
    return sorted(CATALOG)


def get_entry(name: str) -> CatalogEntry:
    try:
        return CATALOG[name]
    except KeyError:
        raise ValueError(
            f"unknown experiment {name!r}; "
            f"known: {', '.join(catalog_names())}"
        ) from None


def _adaptive_variant(spec: ExperimentSpec) -> ExperimentSpec:
    """The ``adaptive`` profile: a full-density spec whose fixed-count
    measure points instead sample sequentially to a ratio-estimator
    (delta-method) half-width on the pooled bits/symbols rate.

    Non-measure kinds (link, symbol_cdf, papr, ldpc_envelope) keep their
    fixed budgets — their payloads are not pooled rates.  The profile
    string participates in the spec hash, so adaptive runs get their own
    store files and never disturb the byte-stable quick/full caches.
    """
    points = []
    for p in spec.points:
        if p.kind == "measure" and p.adaptive is None and p.n_messages >= 2:
            initial = max(4, p.n_messages)
            policy = AdaptivePolicy(
                target_half_width=0.1,
                confidence=0.95,
                initial_messages=initial,
                growth=2.0,
                max_messages=max(8 * initial, 64),
                interval="ratio",
            )
            points.append(replace(p, adaptive=policy))
        else:
            points.append(p)
    return replace(spec, profile="adaptive", points=tuple(points))


def build_spec(name: str, profile: str = "quick") -> ExperimentSpec:
    """The registered experiment ``name`` as a spec at ``profile``."""
    entry = get_entry(name)
    if profile == "adaptive":
        return _adaptive_variant(build_spec(name, "full"))
    if profile not in _BUILD_PROFILES:
        raise ValueError(
            f"unknown profile {profile!r}; expected one of {_BUILD_PROFILES}")
    return ExperimentSpec(experiment_id=entry.name, title=entry.title,
                          profile=profile, points=tuple(entry.points(profile)))
