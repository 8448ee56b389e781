"""E4 — Figure 8-4: Rayleigh fading with exact fading information.

Spinal vs Strider+ on the (sigma^2, tau) Rayleigh model at coherence times
tau = 1, 10, 100 symbols, with both decoders given the per-symbol channel
coefficients.  Paper: spinal performs similarly at all coherence times and
beats Strider+ by 11-20% at 10 dB and 13-20% at 20 dB.

The sweep lives in the ``fig8_4`` entry of ``repro.experiments.catalog``
(same grids and the ``int(snr) + tau`` seeding policy as the
pre-migration script); reruns are served from ``bench_results/store/``.
"""

from repro.channels import rayleigh_capacity

from _common import run_catalog, run_once

TAUS = (1, 10, 100)


def _run():
    report = run_catalog("fig8_4")
    return report["snrs"], report["curves"]


def test_bench_fig8_4(benchmark):
    snrs, curves = run_once(benchmark, _run)

    for tau in TAUS:
        for snr in snrs:
            spinal = curves[f"spinal tau={tau}"][snr]
            strider = curves[f"strider+ tau={tau}"][snr]
            assert spinal <= rayleigh_capacity(snr) + 1e-9
            if snr >= 10:
                assert spinal > strider, (tau, snr)
    # spinal performs roughly similarly across coherence times (paper)
    for snr in snrs:
        vals = [curves[f"spinal tau={t}"][snr] for t in TAUS]
        if min(vals) > 0:
            assert max(vals) / min(vals) < 2.5


if __name__ == "__main__":
    test_bench_fig8_4(None)
