"""E8 — Figure 8-8: output symbol density (choosing c).

Small c caps the achievable rate (too few bits per symbol); the paper
concludes c = 6 is right for the -5..35 dB range.

The sweep lives in the ``fig8_8`` entry of ``repro.experiments.catalog``
(same grid and ``c * 100 + int(snr)`` seeds as the pre-migration script);
reruns are served from ``bench_results/store/``.
"""

from _common import run_catalog, run_once

CS = (1, 2, 3, 4, 5, 6)


def _run():
    report = run_catalog("fig8_8")
    return report["snrs"], report["curves"]


def test_bench_fig8_8(benchmark):
    snrs, curves = run_once(benchmark, _run)

    top = max(snrs)
    # at high SNR, larger c wins decisively (small c caps the rate)
    assert curves[6][top] > curves[2][top] > curves[1][top]
    # at low SNR the choice barely matters
    low = min(snrs)
    assert abs(curves[6][low] - curves[3][low]) < 0.5
    # c=6 is never much worse than the best c at any SNR
    for snr in snrs:
        best = max(curves[c][snr] for c in CS)
        assert curves[6][snr] > 0.8 * best


if __name__ == "__main__":
    test_bench_fig8_8(None)
