"""Raptor codec over noisy channels and its rateless scheme adapter (§8).

Encoding: message -> LDPC precode -> intermediate block -> LT output bits
-> Gray-QAM symbols (the paper reports QAM-256 as the strongest variant).

Decoding is joint belief propagation over one factor graph containing both
layers (Palanki & Yedidia): every received LT output bit becomes a parity
check over its intermediate neighbours *with the demapped LLR attached as
the check observation*, and every precode constraint is a hard parity
check.  Intermediate variables carry no direct channel observation.
"""

from __future__ import annotations

import numpy as np

from repro.channels.base import Channel
from repro.fountain.lt import LTStream
from repro.fountain.precode import LdpcPrecode
from repro.ldpc.bp import BeliefPropagation
from repro.modulation.demapper import soft_demap
from repro.modulation.qam import make_constellation
from repro.simulation.sweep import RatelessScheme

__all__ = ["RaptorCodec", "RaptorScheme"]


class RaptorCodec:
    """Raptor encoder/decoder for one message length.

    Parameters
    ----------
    k: message bits.
    constellation: modulation for output bits ('qam-256' in the paper's
        headline comparison; 'qam-64' also evaluated).
    precode_rate / left_degree: outer code parameters (paper: 0.95 / 4).
    lt_seed / precode_seed: shared randomness (frame-header material).
    """

    def __init__(
        self,
        k: int,
        constellation: str = "qam-256",
        precode_rate: float = 0.95,
        left_degree: int = 4,
        lt_seed: int = 1,
        precode_seed: int = 7,
    ):
        self.k = k
        self.constellation = make_constellation(constellation)
        self.precode = LdpcPrecode(k, rate=precode_rate,
                                   left_degree=left_degree, seed=precode_seed)
        self.lt = LTStream(self.precode.n_intermediate, seed=lt_seed)
        # Precode edges in (check, var) order, sorted once: with the LT
        # edges (one check per output, sorted neighbours) ahead of them,
        # every decode graph arrives sorted and BP skips its lexsort.
        pc_checks, pc_vars = self.precode.check_edges()
        order = np.lexsort((pc_vars, pc_checks))
        self._pc_checks, self._pc_vars = pc_checks[order], pc_vars[order]

    @property
    def bits_per_symbol(self) -> int:
        return self.constellation.bits_per_symbol

    def encode_intermediate(self, message_bits: np.ndarray) -> np.ndarray:
        return self.precode.encode(message_bits)

    def symbols(
        self, intermediate_bits: np.ndarray, start_symbol: int, count: int
    ) -> np.ndarray:
        """Channel symbols ``start_symbol .. start_symbol+count-1``."""
        bps = self.bits_per_symbol
        bits = self.lt.encode_range(
            intermediate_bits, start_symbol * bps, count * bps
        )
        return self.constellation.modulate(bits)

    def decode(
        self,
        bit_llrs: np.ndarray,
        iterations: int = 40,
    ) -> tuple[np.ndarray, bool]:
        """Joint BP decode from the first ``len(bit_llrs)`` output-bit LLRs.

        Returns (message bits, precode-satisfied flag).  The flag is a
        practical convergence signal; final acceptance in the harness is by
        message comparison (or CRC in a deployed stack).
        """
        n_outputs = bit_llrs.size
        lt_neighbours = self.lt.neighbour_range(0, n_outputs)
        degrees = np.fromiter(map(len, lt_neighbours), dtype=np.int64,
                              count=n_outputs)
        lt_checks = np.repeat(np.arange(n_outputs, dtype=np.int64), degrees)
        lt_vars = (np.concatenate(lt_neighbours)
                   if n_outputs else np.empty(0, dtype=np.int64))

        n_pc = self.precode.n_parity
        checks = np.concatenate([lt_checks, self._pc_checks + n_outputs])
        vars_ = np.concatenate([lt_vars, self._pc_vars])
        bp = BeliefPropagation(
            checks, vars_, n_outputs + n_pc, self.precode.n_intermediate
        )
        obs = np.concatenate([
            np.asarray(bit_llrs, dtype=np.float64),
            np.full(n_pc, np.inf),
        ])
        chan = np.zeros(self.precode.n_intermediate)
        intermediate, _ = bp.decode(
            chan, iterations=iterations, check_obs_llrs=obs, early_exit=False
        )
        return intermediate[: self.k], self.precode.satisfied(intermediate)


class RaptorScheme(RatelessScheme):
    """Raptor plugged into the shared rateless measurement engine.

    Transmits symbol chunks until joint BP recovers the message; like the
    spinal session, the minimal successful prefix is found by geometric
    probing plus bisection (decode attempts dominate runtime).
    """

    def __init__(
        self,
        k: int,
        constellation: str = "qam-256",
        chunk_symbols: int | None = None,
        iterations: int = 40,
        max_symbols: int | None = None,
        probe_growth: float = 1.25,
        label: str | None = None,
    ):
        self.k = k
        self.constellation_name = constellation
        bps = make_constellation(constellation).bits_per_symbol
        # Default chunk: ~5% of the symbols an ideal code needs at rate 1.
        self.chunk_symbols = chunk_symbols or max(8, k // bps // 20)
        self.iterations = iterations
        self.max_symbols = max_symbols or 4 * k
        self.probe_growth = probe_growth
        self.name = label or f"raptor/{constellation} n={k}"

    def run_message(
        self, channel: Channel, rng: np.random.Generator
    ) -> tuple[int, int]:
        codec = RaptorCodec(
            self.k, self.constellation_name,
            lt_seed=int(rng.integers(0, 2**62)),
            precode_seed=int(rng.integers(0, 2**62)),
        )
        message = rng.integers(0, 2, size=self.k, dtype=np.uint8)
        intermediate = codec.encode_intermediate(message)
        max_chunks = max(1, self.max_symbols // self.chunk_symbols)

        received: list[np.ndarray] = []
        noise_power = getattr(channel, "noise_power", 1.0)
        csi_parts: list[np.ndarray] = []
        has_csi = False

        def ensure_chunks(count: int) -> None:
            nonlocal has_csi
            while len(received) < count:
                start = len(received) * self.chunk_symbols
                syms = codec.symbols(intermediate, start, self.chunk_symbols)
                out = channel.transmit(syms)
                received.append(out.values)
                if out.csi is not None:
                    csi_parts.append(out.csi)
                    has_csi = True

        def attempt(count: int) -> bool:
            ensure_chunks(count)
            values = np.concatenate(received[:count])
            csi = np.concatenate(csi_parts[:count]) if has_csi else None
            llrs = soft_demap(codec.constellation, values, noise_power, csi=csi)
            decoded, _ = codec.decode(llrs, iterations=self.iterations)
            return bool(np.array_equal(decoded, message))

        lo, hi, g = 0, None, 1
        while g <= max_chunks:
            if attempt(g):
                hi = g
                break
            lo = g
            nxt = min(max(g + 1, int(np.ceil(g * self.probe_growth))), max_chunks)
            if nxt == g:
                break
            g = nxt
        if hi is None:
            return 0, max_chunks * self.chunk_symbols
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if attempt(mid):
                hi = mid
            else:
                lo = mid
        return self.k, hi * self.chunk_symbols
