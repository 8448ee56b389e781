"""E6 — Figure 8-6: compute budget vs performance, choosing k and B.

x axis: branch evaluations per bit (B 2^k / k); y axis: average fraction
of capacity over the 2-24 dB range, one curve per k.  Paper conclusions
asserted: k = 4 performs well across budgets; small k underperforms at
high SNR; the B=256, k=4 point is a good operating choice.

The sweep lives in the ``fig8_6`` entry of ``repro.experiments.catalog``
(same grids and ``1000 * k + budget + i`` seeds as the pre-migration
script); reruns are served from ``bench_results/store/``.
"""

from _common import run_catalog, run_once

BUDGETS = (16, 64, 256, 1024)  # branch evaluations per bit


def _run():
    return run_catalog("fig8_6")["curves"]


def test_bench_fig8_6(benchmark):
    curves = run_once(benchmark, _run)

    top_budget = BUDGETS[-1]
    # k=4 is competitive at the top budget: within 10% of the best k
    best = max(curves[k][top_budget] for k in curves)
    assert curves[4][top_budget] > 0.85 * best
    # small k underperforms at high budget (can't reach high rates)
    assert curves[1][top_budget] < curves[4][top_budget]
    # more compute should help (weak monotonicity for k=4)
    assert curves[4][BUDGETS[-1]] >= curves[4][BUDGETS[0]] - 0.05


if __name__ == "__main__":
    test_bench_fig8_6(None)
