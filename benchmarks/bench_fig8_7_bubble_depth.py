"""E7 — Figure 8-7: beam width vs pruning depth at constant work.

Decoders with k=3, n=256 and (B, d) in {(512,1), (64,2), (8,3), (1,4)} all
explore B 2^(kd) = 4096 nodes per step, but deeper pruning selects whole
subtrees, trading throughput for much cheaper selection (hardware
motivation).  Paper: higher-depth decoders achieve lower throughput;
B=64, d=2 stays close to B=512, d=1.

The sweep lives in the ``fig8_7`` entry of ``repro.experiments.catalog``
(same grid and ``b + d + int(snr)`` seeds as the pre-migration script);
reruns are served from ``bench_results/store/``.
"""

from _common import run_catalog, run_once


def _run():
    report = run_catalog("fig8_7")
    return report["snrs"], report["curves"]


def test_bench_fig8_7(benchmark):
    snrs, curves = run_once(benchmark, _run)

    # average rates: d=1 should be the best, d=4 the worst
    avg = {cfg: sum(c.values()) / len(c) for cfg, c in curves.items()}
    assert avg[(512, 1)] >= avg[(1, 4)]
    # B=64, d=2 stays within reach of the full-width decoder (paper's point)
    assert avg[(64, 2)] > 0.7 * avg[(512, 1)]


if __name__ == "__main__":
    test_bench_fig8_7(None)
