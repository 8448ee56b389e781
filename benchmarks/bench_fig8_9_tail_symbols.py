"""E9 — Figure 8-9: number of tail symbols.

Tail symbols sharpen path costs at the end of the message; the paper finds
two per pass is the sweet spot, with more giving negative returns (channel
time spent without changing decisions).

The sweep lives in the ``fig8_9`` entry of ``repro.experiments.catalog``
(same grid and ``tail * 19 + int(snr)`` seeds as the pre-migration
script); reruns are served from ``bench_results/store/``.
"""

from _common import run_catalog, run_once


def _run():
    return run_catalog("fig8_9")["curves"]


def test_bench_fig8_9(benchmark):
    curves = run_once(benchmark, _run)

    avg = {t: sum(c.values()) / len(c) for t, c in curves.items()}
    # 2 tail symbols should beat 5 (pure overhead past the sweet spot)
    assert avg[2] > avg[5]
    # and be no worse than 1 within tolerance (they're close; 2 wins by
    # improving end-of-message discrimination)
    assert avg[2] > avg[1] * 0.97


if __name__ == "__main__":
    test_bench_fig8_9(None)
