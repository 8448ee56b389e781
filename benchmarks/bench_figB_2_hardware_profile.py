"""E14 — Figure B-2: the hardware parameter set in simulation.

The Airblue FPGA prototype ran n=192, k=4, c=7, d=1, B=4; the thesis shows
its over-the-air rates track a similarly-configured software simulation.
We reproduce the simulation side over the 0-14 dB range the USRP2
front-ends could reach, and sanity-check it against the full-strength
B=256 software configuration (the hardware's tiny beam costs rate).

The sweep lives in the ``figB_2`` entry of ``repro.experiments.catalog``
(same grid and ``300 + i`` / ``400 + i`` seeds as the pre-migration
script); reruns are served from ``bench_results/store/``.
"""

from _common import run_catalog, run_once


def _run():
    report = run_catalog("figB_2")
    return report["snrs"], report["hw"], report["sw"]


def test_bench_figB_2(benchmark):
    snrs, hw, sw = run_once(benchmark, _run)

    # the B-2 curve shape: ~0.5 bits/sym at low SNR to ~2.5-3 at 14 dB
    assert hw[snrs[0]] < 1.2
    assert hw[snrs[-1]] > 1.8
    # monotone growth endpoints
    assert hw[snrs[-1]] > hw[snrs[0]]
    # the tiny hardware beam cannot beat the full software decoder
    for snr in snrs:
        assert hw[snr] <= sw[snr] * 1.1


if __name__ == "__main__":
    test_bench_figB_2(None)
