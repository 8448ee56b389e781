"""Decode hot-path throughput: one-message sessions vs batched cohorts.

Measures messages/second through the full rateless Monte-Carlo loop
(encode, channel, probe + bisect decode) on AWGN, for the one pipeline
run two ways:

- ``scalar`` — one message at a time (``measure_scheme`` without
  ``batch_size``): each message is a one-row cohort;
- ``batch`` — ``measure_scheme(batch_size=...)``: whole cohorts decoded by
  one vectorised bubble search;

and the same pair on Rayleigh block fading with full CSI at the receiver
(the Figure 8-4 configuration), the paper's slowest sweeps.

Both runs produce the *same* :class:`RateMeasurement` (asserted), so this
is a pure speed comparison.  Writes
``bench_results/BENCH_decoder_throughput.json`` including the speedups,
and exits 1 if a speedup falls below its floor (the constants below).
The speedups are ratios of two timings on one host, so the floors hold on
any machine.  The decoder runs the compiled C kernels where they build
(see :mod:`repro.backend.ckernels`).
"""

import argparse
import sys

from repro.backend import ckernels, get_backend
from repro.channels import AWGNChannel, RayleighBlockFadingChannel
from repro.core.params import DecoderParams, SpinalParams
from repro.obs import clock
from repro.simulation import SpinalScheme, measure_scheme

from _common import write_json

#: Speedup floors; a run exits 1 below one.  The batch floors are 40% of
#: the first recorded speedups (3.386x AWGN, 3.878x fading), headroom for
#: slower CI runners.
MIN_SPEEDUP_BATCH_VS_SCALAR = 1.3544
MIN_FADING_SPEEDUP_BATCH_VS_SCALAR = 1.5512


def _timed(fn):
    # benchmarks time through repro.obs.clock like library code: no
    # repro.lint policy exempts them from no-wallclock
    t0 = clock()
    out = fn()
    return out, clock() - t0


def run(quick: bool) -> dict:
    n_messages = 48 if quick else 192
    batch_size = 48
    n_bits, snr_db, seed, probe_growth = 128, 8.0, 0, 1.5
    params = SpinalParams()
    dec = DecoderParams(B=64, max_passes=16)
    scheme = SpinalScheme(params, dec, n_bits, probe_growth=probe_growth)

    scalar, t_scalar = _timed(lambda: measure_scheme(
        scheme, lambda rng: AWGNChannel(snr_db, rng=rng), snr_db,
        n_messages, seed=seed))
    batch, t_batch = _timed(lambda: measure_scheme(
        scheme, lambda rng: AWGNChannel(snr_db, rng=rng), snr_db,
        n_messages, seed=seed, batch_size=batch_size))

    # Both runs are the same measurement — only speed may differ.
    assert scalar == batch

    payload = {
        "config": {
            "n_bits": n_bits, "snr_db": snr_db, "B": dec.B,
            "max_passes": dec.max_passes, "probe_growth": probe_growth,
            "n_messages": n_messages, "batch_size": batch_size,
            "profile": "quick" if quick else "full",
            "backend": get_backend().name,
            "compiled_kernels": ckernels.load() is not None,
        },
        "rate_bits_per_symbol": round(batch.rate, 9),
        "scalar_msgs_per_sec": round(n_messages / t_scalar, 3),
        "batch_msgs_per_sec": round(n_messages / t_batch, 3),
        "speedup_batch_vs_scalar": round(t_scalar / t_batch, 3),
    }
    payload.update(run_fading(quick=quick))
    return payload


def run_fading(quick: bool) -> dict:
    """Rayleigh + full CSI (the Figure 8-4 shape): scalar vs batch."""
    n_messages = 48 if quick else 192
    batch_size = 48
    n_bits, snr_db, tau, seed, probe_growth = 128, 13.0, 10, 0, 1.5
    params = SpinalParams()
    dec = DecoderParams(B=64, max_passes=16)
    scheme = SpinalScheme(params, dec, n_bits, give_csi="full",
                          probe_growth=probe_growth)
    factory = lambda rng: RayleighBlockFadingChannel(  # noqa: E731
        snr_db, coherence_time=tau, rng=rng)

    scalar, t_scalar = _timed(lambda: measure_scheme(
        scheme, factory, snr_db, n_messages, seed=seed,
        capacity_reference="rayleigh"))
    batch, t_batch = _timed(lambda: measure_scheme(
        scheme, factory, snr_db, n_messages, seed=seed,
        batch_size=batch_size, capacity_reference="rayleigh"))

    # Batching must not change the fading measurement by one bit.
    assert scalar == batch

    return {
        "fading_config": {
            "n_bits": n_bits, "snr_db": snr_db, "coherence_time": tau,
            "give_csi": "full", "B": dec.B, "max_passes": dec.max_passes,
            "probe_growth": probe_growth, "n_messages": n_messages,
            "batch_size": batch_size,
            "profile": "quick" if quick else "full",
        },
        "fading_rate_bits_per_symbol": round(batch.rate, 9),
        "fading_scalar_msgs_per_sec": round(n_messages / t_scalar, 3),
        "fading_batch_msgs_per_sec": round(n_messages / t_batch, 3),
        "fading_speedup_batch_vs_scalar": round(t_scalar / t_batch, 3),
    }


def _missed_floors(payload: dict, floors: dict[str, float]) -> bool:
    """Print every speedup below its floor; True if there was one."""
    missed = [key for key, floor in floors.items() if payload[key] < floor]
    for key in missed:
        print(f"FAIL: {key} {payload[key]}x is below its floor "
              f"{floors[key]}x", file=sys.stderr)
    return bool(missed)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--quick", action="store_true",
                    help="small message count (the CI smoke profile)")
    args = ap.parse_args(argv)

    payload = run(quick=args.quick)
    for key, value in payload.items():
        print(f"{key}: {value}")
    write_json("BENCH_decoder_throughput", payload)
    if _missed_floors(payload, {
            "speedup_batch_vs_scalar": MIN_SPEEDUP_BATCH_VS_SCALAR,
            "fading_speedup_batch_vs_scalar":
                MIN_FADING_SPEEDUP_BATCH_VS_SCALAR}):
        return 1
    print(f"ok: batch path {payload['speedup_batch_vs_scalar']}x over "
          f"one message at a time, fading batch "
          f"{payload['fading_speedup_batch_vs_scalar']}x")
    return 0


if __name__ == "__main__":
    sys.exit(main())
