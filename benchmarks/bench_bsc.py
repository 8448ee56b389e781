"""Extra — BSC operation (§3.3, §4.6 capacity claim).

The paper's decoder "achieves the Shannon capacity over both AWGN and BSC
models"; there is no BSC figure in §8, so this bench charts rate vs the
BSC capacity 1 - H(p) across flip probabilities as supporting evidence.

The sweep lives in the ``bsc`` entry of ``repro.experiments.catalog``
(same flip grid, seeds ``500 + i``, batched cohorts, and
``capacity_reference="bsc"`` as the pre-migration script); reruns are
served from ``bench_results/store/``.
"""

from repro.channels import bsc_capacity

from _common import run_catalog, run_once

FLIPS = (0.01, 0.05, 0.1, 0.2, 0.3)


def _run():
    return run_catalog("bsc")["rates"]


def test_bench_bsc(benchmark):
    rates = run_once(benchmark, _run)

    for p in FLIPS:
        capacity = bsc_capacity(p)
        assert rates[p] <= capacity + 1e-9
        # within a reasonable fraction of 1 - H(p) at every flip rate
        assert rates[p] > 0.55 * capacity, (p, rates[p], capacity)
    # rate decreases with noise
    assert rates[0.01] > rates[0.1] > rates[0.3]


if __name__ == "__main__":
    test_bench_bsc(None)
