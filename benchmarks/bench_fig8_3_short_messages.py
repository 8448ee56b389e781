"""E3 — Figure 8-3: small code block sizes (1024/2048/3072 bits).

Average fraction of capacity over the 5-25 dB range for spinal, Raptor,
and Strider(+) at packet sizes typical of telephony/gaming.  The paper's
findings: spinal beats Raptor by 14-20% and Strider by 2.5x-10x here.

The sweep lives in the ``fig8_3`` entry of ``repro.experiments.catalog``
(same grids and per-code seed bases ``n``/``n+1``/``n+2``/``n+3`` with
``+ 31 * i`` per grid index as the pre-migration script); reruns are
served from ``bench_results/store/``.
"""

from _common import run_catalog, run_once

SIZES = (1024, 2048, 3072)


def _run():
    return run_catalog("fig8_3")["table"]


def test_bench_fig8_3(benchmark):
    table = run_once(benchmark, _run)

    for n in SIZES:
        assert table[n]["spinal"] > table[n]["raptor"]
        # the paper's 2.5x-10x gap over strider at small packets
        assert table[n]["spinal"] > 2.0 * table[n]["strider"]


if __name__ == "__main__":
    test_bench_fig8_3(None)
