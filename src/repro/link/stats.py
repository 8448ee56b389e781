"""Link-level performance accounting (paper §8.1, §8.4).

The paper's headline metric is *rate* — message bits per symbol under the
oracle success test.  At the link layer the honest analogue is **goodput**:
application payload bits delivered per channel symbol consumed, where the
denominator includes CRC and padding bits (§6 framing overhead), symbols a
give-up burned, and symbols the sender wasted because the ACK was still in
flight (§8.4 feedback delay).  Latency is reported in symbol times on the
shared clock, which converts to wall time by the symbol period of whatever
PHY carries the link.

:meth:`FlowStats.as_dict` is one fold over a flow's :class:`~repro.link.
protocol.PacketResult` records into a JSON-safe dict, so the experiment store
and its JSON artifacts can persist machine-readable output.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.link.protocol import PacketResult

__all__ = ["FlowStats"]

_PCTS = (50.0, 90.0, 99.0)


@dataclass
class FlowStats:
    """Aggregated outcomes of one flow's packets."""

    flow: str
    results: list[PacketResult] = field(default_factory=list)

    def add(self, result: PacketResult) -> None:
        self.results.append(result)

    def as_dict(self) -> dict:
        """JSON-safe summary from one fold over the results.

        Goodput is delivered payload bits per channel symbol consumed;
        framing overhead is the fraction of coded bits that are CRC or
        padding; latencies are percentiles over the delivered packets.
        The key order is fixed, so dumps are byte-identical.
        """
        n_delivered = offered = delivered = symbols = wasted = 0
        retrans = coded = 0
        latencies = []
        for r in self.results:
            offered += r.payload_bits
            coded += r.coded_bits
            symbols += r.symbols
            wasted += r.wasted_symbols
            retrans += r.retransmissions
            if r.success:
                n_delivered += 1
                delivered += r.payload_bits
                latencies.append(r.latency)
        goodput = delivered / symbols if symbols else 0.0
        overhead = 1.0 - offered / coded if coded else 0.0
        out = {
            "flow": self.flow,
            "n_packets": len(self.results),
            "n_delivered": n_delivered,
            "payload_bits_delivered": delivered,
            "symbols": symbols,
            "wasted_symbols": wasted,
            "retransmissions": retrans,
            "goodput": round(goodput, 9),
            "framing_overhead": round(overhead, 9),
        }
        pcts = (np.percentile(latencies, _PCTS) if latencies
                else [None] * len(_PCTS))
        for q, val in zip(_PCTS, pcts):
            out[f"latency_p{int(q)}"] = (None if val is None
                                         else round(float(val), 3))
        return out
