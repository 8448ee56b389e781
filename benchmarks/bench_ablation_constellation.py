"""Ablation — uniform vs truncated-Gaussian constellation map (§4.6).

Theory: the Gaussian map closes the uniform map's 0.25 bit/symbol shaping
gap asymptotically; "in simulation with finite n, however, we do not see
significant performance differences" — re-checked here.  Also prints the
Theorem 1 bound alongside the measured rates.

The sweep lives in the ``ablation_constellation`` entry of
``repro.experiments.catalog`` (same grid and ``int(snr) + 5`` seeds as
the pre-migration script); reruns are served from
``bench_results/store/``.
"""

from repro.theory import achievable_rate_bound

from _common import run_catalog, run_once


def _run():
    report = run_catalog("ablation_constellation")
    return report["snrs"], report["curves"]


def test_bench_ablation_constellation(benchmark):
    snrs, curves = run_once(benchmark, _run)

    # "no significant performance differences" at finite n
    for snr in snrs:
        u, g = curves["uniform"][snr], curves["gaussian"][snr]
        assert abs(u - g) < 0.25 * max(u, g) + 0.2, (snr, u, g)
    # measured rates should beat the (conservative) theorem bound wherever
    # the bound is non-vacuous at moderate SNR
    for snr in snrs:
        b = achievable_rate_bound(6, snr)
        if 0.5 < b < 4.0:
            assert curves["uniform"][snr] > 0.6 * b


if __name__ == "__main__":
    test_bench_ablation_constellation(None)
