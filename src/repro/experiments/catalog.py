"""Registered experiments: paper sweeps as declarative specs.

Each :class:`CatalogEntry` pairs a point builder (profile -> the sweep's
:class:`PointSpec` list) with a report function that turns an
orchestrated run back into the exact printed series, tables, and CSV
artifacts its legacy ``benchmarks/`` script produced — the migration
contract is byte-identical series output at the same seeds, so the
builders encode the legacy scripts' seeding policies verbatim
(``base + 101*i`` per grid index for Figure 8-1, ``int(snr) + tau`` for
Figure 8-4, ``500 + i`` for the BSC chart).  :func:`build_spec` checks
the profile and wraps the points in the :class:`ExperimentSpec`.

Most of §8 varies one spinal knob per curve over an SNR grid (k and B, B
and d, c, tail symbols, puncturing, block length, the hash).  Those
figures are rows of one table, ``_SWEEPS``: each :class:`_Sweep` row
holds the grid, the quick/full message counts, the knob values, the
series label and spinal scheme options per value, the per-value seed
base (a point's seed is ``base(value) + int(snr)``) and whether the
report is rate vs SNR or gap to capacity.  The remaining entries mix
schemes, point kinds or seeding policies and keep a builder of their own,
written with the same :func:`_points` helper.

Profiles mirror ``benchmarks/_common.py``: ``quick`` (the default, coarse
grids) and ``full`` (the paper's density).  The ``smoke`` experiments are
deliberately tiny specs for CI and tests.
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


@dataclass(frozen=True)
class CatalogEntry:
    """One registered experiment.

    ``title`` is the spec title (part of the spec hash); ``points`` builds
    the sweep for a ``quick`` or ``full`` profile.
    """

    name: str
    title: str
    summary: str
    points: Callable[[str], list[PointSpec]]
    report: Callable[[ExperimentRun, str], dict]


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
    """Print and persist one series set (mirrors ``benchmarks/_common``)."""
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
    before/after the measured ones, exactly where the legacy benches
    printed them.  Measured series print their *own* x points (series
    need not share a grid); the returned grid is the first series' sorted
    x set, which is what the figure reports' shared-grid assertions
    consume.
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
    value; ``extra`` adds keys computed from those two.
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


#: The legacy Figure 8-10 bench seeded each schedule's sweep with
#: ``hash(sched) % 1000`` — Python string hashing, which is randomized per
#: interpreter run, so the bench never reproduced its own numbers.  The
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
        seed=lambda bd: bd[0] + bd[1], gap=True),
    "fig8_8": _Sweep(
        title="Output symbol density c (Figure 8-8)",
        summary="output symbol density c=1..6 vs the Shannon bound "
                "(Figure 8-8)",
        csv="fig8_8_density", snrs=(0, 35, 7.0, 5.0), messages=(2, 8),
        values=(1, 2, 3, 4, 5, 6), label=lambda c: f"c={c}",
        scheme=lambda c: _spinal(params={"c": c}),
        seed=lambda c: c * 100, head={"shannon bound": awgn_capacity}),
    "fig8_9": _Sweep(
        title="Tail symbol count (Figure 8-9)",
        summary="tail symbol count 1..5 (Figure 8-9)",
        csv="fig8_9_tail_symbols", snrs=(5, 25, 10.0, 5.0), messages=(3, 10),
        values=(1, 2, 3, 4, 5), label=lambda t: f"{t} tail symbols",
        scheme=lambda t: _spinal(params={"tail_symbols": t}),
        seed=lambda t: t * 19),
    "fig8_10": _Sweep(
        title="Puncturing schedules (Figure 8-10)",
        summary="puncturing schedules none/2/4/8-way as gap to capacity "
                "(Figure 8-10)",
        csv="fig8_10_puncturing", snrs=(5, 30, 5.0, 1.0), messages=(3, 10),
        values=("none", "2-way", "4-way", "8-way"),
        label=lambda s: f"{s} puncturing",
        scheme=lambda s: _spinal(1024, params={"puncturing": s}),
        seed=_FIG8_10_SEEDS.__getitem__, gap=True),
    "fig8_12": _Sweep(
        title="Code block length (Figure 8-12)",
        summary="code block length n=64..2048 as gap to capacity "
                "(Figure 8-12)",
        csv="fig8_12_block_length", snrs=(5, 25, 10.0, 5.0), messages=(3, 10),
        # the legacy bench drops n=2048 in the quick profile
        values=_FIG8_12_LENGTHS, quick_values=_FIG8_12_LENGTHS[:5],
        label=lambda n: f"n={n}", scheme=lambda n: _spinal(n),
        seed=lambda n: n, gap=True, extra=_fig8_12_avg_gap),
    "ablation_constellation": _Sweep(
        title="Constellation map ablation (§3.3, §4.6)",
        summary="uniform vs truncated-Gaussian constellation map plus the "
                "Theorem 1 bound (§3.3, §4.6)",
        csv="ablation_constellation", snrs=(0, 25, 5.0, 1.0),
        messages=(3, 10), values=("uniform", "gaussian"), label=str,
        scheme=lambda m: _spinal(params={"mapping_name": m}),
        seed=lambda m: 5,
        tail={"theorem-1 bound (c=6)":
              partial(achievable_rate_bound, 6)}),
    "ablation_hash": _Sweep(
        title="Hash function ablation (§7.1)",
        summary="one-at-a-time vs lookup3 vs Salsa20 spine hashes (§7.1)",
        csv="ablation_hash", snrs=(5, 25, 10.0, 5.0), messages=(3, 10),
        values=("one_at_a_time", "lookup3", "salsa20"), label=str,
        scheme=lambda h: _spinal(B=128, params={"hash_name": h}),
        seed=lambda h: 0),
}


# --------------------------------------------------------------------------
# fig8_1 — rate comparison (Figure 8-1 + the intro's summary table)
# --------------------------------------------------------------------------

def _fig8_1_points(profile: str) -> list[PointSpec]:
    """The legacy ``_measure_rateless`` loops: series ``j`` (from 1) seeds
    ``j + 101 * i`` per grid index, cohorts batch the full count."""
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


# --------------------------------------------------------------------------
# fig8_4 / fig8_5 — Rayleigh fading with and without fading information
# --------------------------------------------------------------------------

def _fading_points(give_csi: bool | str, lo: float,
                   profile: str) -> list[PointSpec]:
    """Spinal vs Strider+ at tau = 1/10/100.  Figure 8-5's "no fading
    information" still assumes carrier-phase recovery (a receiver with
    uniformly random uncompensated phase could decode nothing at all), so
    it runs the amplitude-blind ``"phase"`` CSI policy — the legacy
    bench's exact configuration."""
    snrs = grid(lo, 30, _scale(profile, 10.0, 5.0))
    points: list[PointSpec] = []
    for tau in (1, 10, 100):
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


# --------------------------------------------------------------------------
# fig8_3 — fraction of capacity at small block sizes (Figure 8-3)
# --------------------------------------------------------------------------

_FIG8_3_SIZES = (1024, 2048, 3072)
_FIG8_3_CODES = ("spinal", "raptor", "strider", "strider+")


def _strider_layers(n_bits: int) -> int:
    """Layer count whose k_layer stays near the bench profile (~160 bits)."""
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
        # the legacy bench's seed bases: n, n+1, n+2, n+3 per code, then
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


# --------------------------------------------------------------------------
# fig8_11 — CDF of symbols needed to decode, per SNR (Figure 8-11)
# --------------------------------------------------------------------------

_FIG8_11_SNRS = (6, 10, 14, 18, 22, 26)


def _fig8_11_points(profile: str) -> list[PointSpec]:
    return [
        PointSpec(
            series=f"SNR={snr}dB", x=float(snr), seed=snr,
            kind="symbol_cdf", channel=_AWGN,
            n_messages=_scale(profile, 12, 60),
            options={
                "n_bits": 256,
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


# --------------------------------------------------------------------------
# figB_2 — the hardware parameter set in simulation (Figure B-2)
# --------------------------------------------------------------------------

_FIGB_2_HW_SERIES = "simulation, hardware parameters (B=4)"
_FIGB_2_SW_SERIES = "simulation, B=256 reference"


def _figB_2_points(profile: str) -> list[PointSpec]:
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
    (the legacy JSON artifact holds raw ``run_job`` dicts)."""
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
            _fig8_1_points, _report_fig8_1),
        CatalogEntry(
            "bsc", "Spinal over BSC (§4.6)",
            "spinal rate vs BSC flip probability against 1 - H(p) (§4.6)",
            _bsc_points, _report_bsc),
        CatalogEntry(
            "fig8_2", "Rateless vs rated spinal (Figure 8-2)",
            "rateless spinal vs every fixed-rate version of itself "
            "(Figure 8-2)",
            _fig8_2_points, _report_fig8_2),
        CatalogEntry(
            "fig8_4", "Rayleigh fading with CSI (Figure 8-4)",
            "Rayleigh fading with CSI: spinal vs Strider+ at tau=1/10/100 "
            "(Figure 8-4)",
            partial(_fading_points, True, 0),
            partial(_rate_report, "fig8_4_fading_csi",
                    head={"fading capacity": rayleigh_capacity})),
        CatalogEntry(
            "fig8_5", "Rayleigh fading without CSI (Figure 8-5)",
            "Rayleigh fading decoded blind (phase-only CSI): spinal vs "
            "Strider+ at tau=1/10/100 (Figure 8-5)",
            partial(_fading_points, "phase", 10),
            partial(_rate_report, "fig8_5_fading_nocsi",
                    title="Rayleigh fading, AWGN decoders / no CSI "
                          "(Figure 8-5)")),
        CatalogEntry(
            "fig8_3", "Fraction of capacity at small block sizes (Figure 8-3)",
            "fraction of capacity at 1024/2048/3072-bit blocks for all "
            "schemes (Figure 8-3)",
            _fig8_3_points, _report_fig8_3),
        CatalogEntry(
            "fig8_6", "Compute budget vs fraction of capacity (Figure 8-6)",
            "compute budget (branch evaluations per bit) vs fraction of "
            "capacity, one curve per k (Figure 8-6)",
            _fig8_6_points, _report_fig8_6),
        CatalogEntry(
            "fig8_11", "CDF of symbols to decode (Figure 8-11)",
            "per-message symbol-count CDFs at six SNRs (Figure 8-11; "
            "distributional symbol_cdf points)",
            _fig8_11_points, _report_fig8_11),
        CatalogEntry(
            "figB_2", "Hardware profile simulation (Figure B-2)",
            "the Airblue FPGA parameter set (B=4) vs the B=256 reference "
            "in simulation (Figure B-2)",
            _figB_2_points, _report_figB_2),
        CatalogEntry(
            "table8_1", "OFDM PAPR (Table 8.1)",
            "OFDM PAPR, mean and p99.99, for sparse vs dense "
            "constellations (Table 8.1; papr points)",
            _table8_1_points, _report_table8_1),
        CatalogEntry(
            "link_goodput", "Oracle rate vs framed link goodput",
            "oracle code rate vs CRC-framed ARQ goodput with and without "
            "feedback delay (§5, §6, §8.4; link points)",
            _link_goodput_points, _report_link_goodput),
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
        *(CatalogEntry(name, row.title, row.summary, row.points, row.report)
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
