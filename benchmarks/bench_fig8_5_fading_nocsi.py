"""E5 — Figure 8-5: Rayleigh fading decoded *without* fading information.

Both decoders run their AWGN variants on the fading channel — the paper's
robustness experiment.  "No fading information" means no knowledge of the
per-symbol channel gains; standard carrier-phase recovery is still assumed
(a receiver with uniformly random uncompensated phase could decode nothing
at all), so both schemes run in the amplitude-blind ``phase`` CSI mode.
Paper finding reproduced: spinal degrades gracefully while Strider+
collapses — "spinal codes achieve much higher rates than Strider+".

The sweep lives in the ``fig8_5`` entry of ``repro.experiments.catalog``
(same grids and the ``int(snr) + tau`` seeding policy as the
pre-migration script, spinal points decoded by the batched fading
pipeline); reruns are served from ``bench_results/store/``.
"""

from _common import run_catalog, run_once


def _run():
    report = run_catalog("fig8_5")
    return report["snrs"], report["curves"]


def test_bench_fig8_5(benchmark):
    snrs, curves = run_once(benchmark, _run)

    taus = sorted({int(label.split("tau=")[1]) for label in curves})
    # Without CSI the blind spinal decoder must clearly beat blind Strider+
    # (the paper's robustness point) at every coherence time and SNR.
    for tau in taus:
        for snr in snrs:
            spinal = curves[f"spinal tau={tau}"][snr]
            strider = curves[f"strider+ tau={tau}"][snr]
            assert spinal >= strider, (tau, snr)
    # and spinal still delivers usable rate at high SNR
    assert any(curves[f"spinal tau={tau}"][max(snrs)] > 0.5 for tau in taus)


if __name__ == "__main__":
    test_bench_fig8_5(None)
