"""Ablation — hash function choice (paper §7.1).

The paper tried Salsa20, lookup3, and one-at-a-time and saw "no
discernible difference in performance"; one-at-a-time (the cheapest) is
used everywhere.  This bench re-checks that claim.

The sweep lives in the ``ablation_hash`` entry of
``repro.experiments.catalog`` (same grid and ``int(snr)`` seeds as the
pre-migration script); reruns are served from ``bench_results/store/``.
"""

from _common import run_catalog, run_once

HASHES = ("one_at_a_time", "lookup3", "salsa20")


def _run():
    report = run_catalog("ablation_hash")
    return report["snrs"], report["curves"]


def test_bench_ablation_hash(benchmark):
    snrs, curves = run_once(benchmark, _run)

    # "no discernible difference": sweep averages agree within 15% (per
    # point we allow Monte-Carlo slack at quick-profile trial counts)
    avgs = {name: sum(curves[name].values()) / len(snrs) for name in HASHES}
    assert max(avgs.values()) < 1.15 * min(avgs.values()), avgs
    for snr in snrs:
        rates = [curves[name][snr] for name in HASHES]
        assert max(rates) < 1.4 * min(rates), (snr, rates)


if __name__ == "__main__":
    test_bench_ablation_hash(None)
