"""E12 — Figure 8-12: effect of code block length (k=4, B=256).

Longer code blocks give the decoder more chances to lose the true path
(once pruned, resynchronisation is unlikely), so at fixed B they need more
symbols per bit: the gap to capacity widens with n.

The sweep lives in the ``fig8_12`` entry of ``repro.experiments.catalog``
(same grid and ``n + int(snr)`` seeds as the pre-migration script; the
quick profile drops n=2048 exactly as the script did); reruns are served
from ``bench_results/store/``.
"""

from _common import run_catalog, run_once


def _run():
    return run_catalog("fig8_12")["avg_gap"]


def test_bench_fig8_12(benchmark):
    avg_gap = run_once(benchmark, _run)

    lengths = sorted(avg_gap)
    # short blocks closer to capacity than long ones at fixed B
    assert avg_gap[lengths[0]] > avg_gap[lengths[-1]]
    # 256 vs 2048/1024: monotone-ish trend at the extremes
    assert avg_gap[256] >= avg_gap[lengths[-1]] - 0.3


if __name__ == "__main__":
    test_bench_fig8_12(None)
