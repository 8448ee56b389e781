"""E-link — oracle code rate vs. framed link goodput across SNR (§5, §8.4).

The §8.1 rate curves charge no protocol cost: success is oracle-judged and
feedback is free.  This bench quantifies what the *protocol* costs at each
SNR by running the same code three ways:

- ``oracle session``: :class:`SpinalSession` rate (the paper's metric);
- ``framed link``: CRC-framed ARQ goodput with ideal (zero-delay) feedback
  — isolates the §6 framing overhead (CRC-16 + padding);
- ``framed + delay``: the same with a feedback latency in symbol times —
  adds §8.4's wasted-symbols overhead.

The sweep lives in the ``link_goodput`` entry of
``repro.experiments.catalog`` as ``link`` points — each is one
:class:`repro.link.runner.LinkJob` through the orchestrator's
deterministic worker pool, with the three protocol variants sharing
per-point seeds (``500 + 17 * i``) so the comparison isolates protocol
overhead, not sampling noise.  Output: CSV series plus machine-readable
``BENCH_link_goodput.json``, byte-identical to the pre-migration script;
reruns are served from ``bench_results/store/``.
"""

from _common import run_catalog, run_once


def _run():
    report = run_catalog("link_goodput")
    return (report["snrs"], report["reference"], report["oracle"],
            report["framed"], report["delayed"])


def _sweep_goodput(batch):
    """Aggregate goodput across a whole SNR sweep (bits / symbols)."""
    bits = sum(r["payload_bits_delivered"] for r in batch)
    symbols = sum(r["symbols"] for r in batch)
    return bits / symbols if symbols else 0.0


def test_bench_link_goodput(benchmark):
    snrs, reference, oracle, framed, delayed = run_once(benchmark, _run)

    for f, d in zip(framed, delayed):
        if d["n_delivered"] == d["n_packets"] == f["n_delivered"]:
            # Same seeds: feedback delay only ever removes goodput.
            assert d["goodput"] <= f["goodput"]
            assert d["wasted_symbols"] >= f["wasted_symbols"]
    # Framing overhead is real: over the sweep, CRC+padding must cost
    # goodput relative to the seed-matched oracle link.
    assert _sweep_goodput(framed) < _sweep_goodput(oracle)
    # ... but not implausibly much at these block sizes (sanity bound).
    assert _sweep_goodput(framed) > 0.5 * _sweep_goodput(oracle)
    # The protocol must still deliver: goodput grows with SNR overall.
    assert framed[-1]["goodput"] > framed[0]["goodput"]


if __name__ == "__main__":
    test_bench_link_goodput(None)
