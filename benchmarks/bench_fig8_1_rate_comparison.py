"""E1 — Figure 8-1 + the introduction's summary table.

Rate vs SNR for spinal codes (n=256 and n=1024, k=4, B=256), Raptor over
dense QAM, Strider and Strider+, and the LDPC best envelope; plus the
gap-to-capacity panel and the fraction-of-capacity aggregation by SNR
band (the intro's "21% over Raptor / 40% over Strider" table).

Scaling vs the paper: coarser SNR grid, fewer messages per point, Raptor
k=2048 (paper 9500), Strider G=12 with ~160-bit layers (paper G=33 with
1530-bit layers).  Orderings and curve shapes are what this bench asserts.

The sweep itself lives in the ``fig8_1`` entry of
``repro.experiments.catalog`` (same grids, seeds, and batching as the
pre-migration script); completed points are served from
``bench_results/store/``, so reruns — here or via ``python -m
repro.experiments run fig8_1`` — recompute nothing.
"""

from _common import run_catalog, run_once


def _run():
    report = run_catalog("fig8_1")
    return report["curves"], report["fractions"]


def test_bench_fig8_1(benchmark):
    curves, fractions = run_once(benchmark, _run)

    spinal = fractions["spinal n=256"]
    for band in spinal:
        # headline result: spinal beats raptor, strider, and the envelope
        assert spinal[band] > fractions["raptor/qam-256"][band]
        assert spinal[band] > fractions["strider"][band]
        assert spinal[band] > fractions["ldpc envelope"][band]
    # spinal stays within a sane distance of capacity everywhere
    assert all(f > 0.55 for f in spinal.values())


if __name__ == "__main__":
    test_bench_fig8_1(None)
