"""Link-level performance accounting (paper §8.1, §8.4).

The paper's headline metric is *rate* — message bits per symbol under the
oracle success test.  At the link layer the honest analogue is **goodput**:
application payload bits delivered per channel symbol consumed, where the
denominator includes CRC and padding bits (§6 framing overhead), symbols a
give-up burned, and symbols the sender wasted because the ACK was still in
flight (§8.4 feedback delay).  Latency is reported in symbol times on the
shared clock, which converts to wall time by the symbol period of whatever
PHY carries the link.

Everything here is a plain fold over :class:`~repro.link.protocol.
PacketResult` records, and every summary renders to JSON-safe dicts so the
experiment store and its JSON artifacts can persist machine-readable output.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.link.protocol import PacketResult

__all__ = ["FlowStats"]

_PCTS = (50.0, 90.0, 99.0)


@dataclass
class FlowStats:
    """Aggregated outcomes of one flow's packets.

    Every counter comes from one single-pass fold over ``results``
    (:meth:`_totals`); :meth:`as_dict` folds once for all of them.
    """

    flow: str
    results: list[PacketResult] = field(default_factory=list)

    def add(self, result: PacketResult) -> None:
        self.results.append(result)

    def _totals(self) -> dict:
        n_delivered = offered = delivered = 0
        symbols = wasted = retrans = coded = 0
        for r in self.results:
            offered += r.payload_bits
            symbols += r.symbols
            wasted += r.wasted_symbols
            retrans += r.retransmissions
            coded += r.coded_bits
            if r.success:
                n_delivered += 1
                delivered += r.payload_bits
        return {
            "n_packets": len(self.results),
            "n_delivered": n_delivered,
            "payload_bits_offered": offered,
            "payload_bits_delivered": delivered,
            "symbols": symbols,
            "wasted_symbols": wasted,
            "retransmissions": retrans,
            "coded_bits": coded,
        }

    # -- counters ---------------------------------------------------------

    @property
    def n_packets(self) -> int:
        return len(self.results)

    @property
    def n_delivered(self) -> int:
        return self._totals()["n_delivered"]

    @property
    def payload_bits_offered(self) -> int:
        return self._totals()["payload_bits_offered"]

    @property
    def payload_bits_delivered(self) -> int:
        return self._totals()["payload_bits_delivered"]

    @property
    def symbols(self) -> int:
        """Channel symbols this flow consumed (including waste)."""
        return self._totals()["symbols"]

    @property
    def wasted_symbols(self) -> int:
        return self._totals()["wasted_symbols"]

    @property
    def retransmissions(self) -> int:
        return self._totals()["retransmissions"]

    # -- derived metrics --------------------------------------------------

    @property
    def goodput(self) -> float:
        """Delivered payload bits per channel symbol consumed."""
        t = self._totals()
        if t["symbols"] == 0:
            return 0.0
        return t["payload_bits_delivered"] / t["symbols"]

    @property
    def framing_overhead(self) -> float:
        """Fraction of coded bits that are CRC/padding rather than payload."""
        t = self._totals()
        if t["coded_bits"] == 0:
            return 0.0
        return 1.0 - t["payload_bits_offered"] / t["coded_bits"]

    def _latencies(self) -> list[int]:
        """Delivery latencies (symbol times) of the delivered packets."""
        return [r.latency for r in self.results if r.success]

    def latency_percentile(self, q: float) -> float:
        """Latency percentile (symbol times) over delivered packets."""
        lats = self._latencies()
        if not lats:
            return float("nan")
        return float(np.percentile(lats, q))

    def as_dict(self) -> dict:
        """JSON-safe summary (stable key order for byte-identical dumps).

        One fold over the results plus one latency collection — not one
        pass per reported field.
        """
        t = self._totals()
        out = {
            "flow": self.flow,
            "n_packets": t["n_packets"],
            "n_delivered": t["n_delivered"],
            "payload_bits_delivered": t["payload_bits_delivered"],
            "symbols": t["symbols"],
            "wasted_symbols": t["wasted_symbols"],
            "retransmissions": t["retransmissions"],
            "goodput": round(self.goodput, 9),
            "framing_overhead": round(self.framing_overhead, 9),
        }
        lats = self._latencies()
        pcts = np.percentile(lats, _PCTS) if lats else [float("nan")] * len(_PCTS)
        for q, val in zip(_PCTS, pcts):
            val = float(val)
            out[f"latency_p{int(q)}"] = None if np.isnan(val) else round(val, 3)
        return out
