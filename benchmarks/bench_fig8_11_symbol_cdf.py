"""E11 — Figure 8-11: CDF of symbols needed to decode, per SNR.

n=256, k=4, B=256, 8-way puncturing: full passes are ~64 symbols and
subpasses 8.  The per-message symbol counts show the instantaneous-noise
adaptation behind the hedging effect (complements Figure 8-2), with
concentration at higher SNR and subpass quantisation artifacts.

The sweep lives in the ``fig8_11`` entry of ``repro.experiments.catalog``
as ``symbol_cdf`` points — the store record is the distribution itself
(every successful message's symbol count), not a pooled rate.  Seeds
(``seed = snr``) and the per-message RNG stream match the pre-migration
script; reruns are served from ``bench_results/store/``.
"""

import numpy as np

from repro.channels import awgn_capacity

from _common import run_catalog, run_once

SNRS = (6, 10, 14, 18, 22, 26)
N_BITS = 256


def _run():
    report = run_catalog("fig8_11")
    return report["counts"], report["medians"]


def test_bench_fig8_11(benchmark):
    counts, medians = run_once(benchmark, _run)

    # higher SNR needs fewer symbols, monotonically across the sweep ends
    assert medians[26] < medians[14] < medians[6]
    # the median tracks capacity: n/median within a factor of capacity
    for snr in SNRS:
        implied_rate = N_BITS / medians[snr]
        assert 0.4 * awgn_capacity(snr) < implied_rate <= awgn_capacity(snr)
    # dispersion shrinks with SNR (concentration/hedging)
    spread6 = np.percentile(counts[6], 90) - np.percentile(counts[6], 10)
    spread26 = np.percentile(counts[26], 90) - np.percentile(counts[26], 10)
    assert spread26 < spread6


if __name__ == "__main__":
    test_bench_fig8_11(None)
