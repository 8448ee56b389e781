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

from repro.channels.base import Channel, ChannelOutput
from repro.fountain.lt import LTStream
from repro.fountain.precode import LdpcPrecode
from repro.ldpc.bp import BeliefPropagation
from repro.modulation.demapper import soft_demap
from repro.modulation.qam import make_constellation
from repro.simulation.engine import rateless_search
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
        # Precode edges in (check, var) order, sorted once.  Precode checks
        # come first and LT output i is check n_parity + i, so every decode
        # graph arrives sorted (BP skips its lexsort) and is an edge prefix
        # of the largest graph built so far (see _graph).
        pc_checks, pc_vars = self.precode.check_edges()
        order = np.lexsort((pc_vars, pc_checks))
        self._pc_checks, self._pc_vars = pc_checks[order], pc_vars[order]
        self._largest = -1  # outputs in the largest graph built so far
        self._checks = self._vars = self._var_order = None

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
        n_pc = self.precode.n_parity
        obs = np.concatenate([
            np.full(n_pc, np.inf),
            np.asarray(bit_llrs, dtype=np.float64),
        ])
        chan = np.zeros(self.precode.n_intermediate)
        intermediate, _ = self._graph(n_outputs).decode(
            chan, iterations=iterations, check_obs_llrs=obs, early_exit=False
        )
        return intermediate[: self.k], self.precode.satisfied(intermediate)

    def _graph(self, n_outputs: int) -> BeliefPropagation:
        """The joint graph of the precode and the first ``n_outputs`` LT
        outputs.

        Outputs only append, so the graph is an edge prefix of the largest
        one built so far: its edges are slices, and its variable order
        masks the largest graph's.  Each variable sums its LT edges, in
        output order, before its precode edges; the posteriors' rounding,
        and so the store's bytes, depend on that order.
        """
        offsets, lt_vars = self.lt.neighbour_range(0, n_outputs)
        n_pc, n_pc_edges = self.precode.n_parity, self._pc_vars.size
        if n_outputs > self._largest:
            lt_checks = np.repeat(
                np.arange(n_pc, n_pc + n_outputs, dtype=np.int64),
                np.diff(offsets))
            self._checks = np.concatenate([self._pc_checks, lt_checks])
            self._vars = np.concatenate([self._pc_vars, lt_vars])
            # The narrowest unsigned key: numpy's stable sort is a radix
            # sort on 8- and 16-bit keys, and a stable order is unique.
            keys = np.concatenate([lt_vars, self._pc_vars]).astype(
                np.min_scalar_type(self.precode.n_intermediate - 1))
            lt_first = np.argsort(keys, kind="stable")
            # positions in the LT-first layout -> in the precode-first one
            self._var_order = np.where(lt_first < lt_vars.size,
                                       lt_first + n_pc_edges,
                                       lt_first - lt_vars.size)
            self._largest = n_outputs
        n_edges = n_pc_edges + lt_vars.size
        var_order = (self._var_order if n_outputs == self._largest
                     else self._var_order[self._var_order < n_edges])
        return BeliefPropagation(
            self._checks[:n_edges], self._vars[:n_edges], n_pc + n_outputs,
            self.precode.n_intermediate, var_order=var_order)


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

        noise_power = getattr(channel, "noise_power", 1.0)
        received: list[ChannelOutput] = []
        # The LLRs of the chunks demapped so far.  Each chunk is demapped
        # once, with the others new to the attempt that first needs it:
        # demapping is per symbol, so the LLRs match a demap of the prefix.
        llrs = np.empty(0)
        chunk_bits = self.chunk_symbols * codec.bits_per_symbol

        def attempt(rows: np.ndarray, count: int) -> np.ndarray:
            nonlocal llrs
            while len(received) < count:
                start = len(received) * self.chunk_symbols
                syms = codec.symbols(intermediate, start, self.chunk_symbols)
                received.append(channel.transmit(syms))
            new = received[llrs.size // chunk_bits:count]
            if new:
                csi = (None if new[0].csi is None
                       else np.concatenate([out.csi for out in new]))
                llrs = np.concatenate([llrs, soft_demap(
                    codec.constellation,
                    np.concatenate([out.values for out in new]),
                    noise_power, csi=csi)])
            decoded, _ = codec.decode(llrs[:count * chunk_bits],
                                      iterations=self.iterations)
            return np.array([np.array_equal(decoded, message)])

        [hi] = rateless_search(attempt, 1, 1, self.probe_growth, max_chunks)
        if hi is None:
            return 0, max_chunks * self.chunk_symbols
        return self.k, hi * self.chunk_symbols
