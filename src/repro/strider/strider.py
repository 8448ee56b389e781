"""Strider codec: layered rateless transmission with MMSE-SIC decoding.

Encoding (§8): the message splits into G layers; each layer is rate-1/5
turbo coded and QPSK modulated into a block of T symbols.  Transmitted
pass p is the per-symbol linear combination ``sum_l R[p,l] x_l[t]`` with
unit-modulus coefficients ``R[p,l] = exp(j theta) / sqrt(G)`` drawn from a
seeded matrix shared by both ends (the substitution for Strider's
structured matrix is documented in DESIGN.md; SIC behaviour depends on the
layering, not the particular unitary phases).

Decoding: for each layer in order, MMSE-combine all received passes
(treating undecoded layers as coloured interference), demap QPSK LLRs,
turbo-decode, re-encode, and subtract.  The combiner is batched over time
so fading channels (per-symbol equalised noise) run through the same path.

Strider+ (the paper's puncturing enhancement) transmits each pass in
``subpasses_per_pass`` contiguous chunks and allows decode attempts after
any chunk, giving rates finer than the (2/5) G/L staircase.
"""

from __future__ import annotations

import numpy as np

from repro.channels.base import Channel
from repro.modulation.demapper import soft_demap
from repro.modulation.qam import QPSK
from repro.simulation.engine import rateless_search
from repro.simulation.sweep import RatelessScheme
from repro.strider.turbo import TurboCodec

__all__ = ["StriderCodec", "StriderScheme"]


class StriderCodec:
    """Layered rateless codec for one message length.

    Parameters
    ----------
    n_bits: total message bits (divisible by n_layers).
    n_layers: G, the number of layers (paper default 33; benchmark
        profiles use fewer — see DESIGN.md scaling notes).
    max_passes: coefficient matrix height (upper bound on passes).
    iterations: turbo iterations per layer decode.
    coeff_seed / interleaver_seed: shared randomness.
    """

    def __init__(
        self,
        n_bits: int,
        n_layers: int,
        max_passes: int = 27,
        iterations: int = 6,
        coeff_seed: int = 42,
        interleaver_seed: int = 0,
        design_threshold_sinr: float = 0.45,
        design_passes: int = 2,
    ):
        if n_bits % n_layers:
            raise ValueError("n_bits must divide evenly into layers")
        self.n_bits = n_bits
        self.n_layers = n_layers
        self.k_layer = n_bits // n_layers
        self.max_passes = max_passes
        self.turbo = TurboCodec(self.k_layer, interleaver_seed, iterations)
        self.qpsk = QPSK()
        coded = self.turbo.n_coded
        self._pad = (-coded) % 2
        self.symbols_per_layer = (coded + self._pad) // 2
        powers = self._layer_powers(
            n_layers, design_threshold_sinr, design_passes
        )
        rng = np.random.default_rng(coeff_seed)
        phases = rng.uniform(0.0, 2.0 * np.pi, size=(max_passes, n_layers))
        # Rotate the ladder by one layer per pass: a few passes still see a
        # clean geometric ladder (SIC bootstraps at the design point), while
        # many passes average to equal per-layer energy, which is what keeps
        # the code working far below the design SNR.
        rotated = np.stack([np.roll(powers, -p) for p in range(max_passes)])
        self.coeffs = np.exp(1j * phases) * np.sqrt(rotated)

    @staticmethod
    def _layer_powers(n_layers: int, s_star: float, ell: int) -> np.ndarray:
        """Geometric SIC power allocation (Erez–Trott–Wornell layering).

        Strider's published coefficient matrix is designed so every layer is
        successively decodable; we reproduce that property with the layered
        rateless design the paper cites as Strider's foundation [8]: layer
        powers form a geometric ladder ``P_l ∝ r^(G-l)`` with
        ``r = 1 + s*/ell``, so that with ``ell`` passes combined, every
        layer sees SINR >= the base turbo's threshold ``s*`` once stronger
        layers are cancelled, for all noise levels up to the design point
        ``SNR_design = r^G - 1``.  More layers therefore both raise the peak
        rate ((2/5) G / ell) and push the design SNR upward — with G = 33
        the design point lands at ~40 dB, matching Strider's published
        ceiling of 6.6 bits/symbol at 2 passes.
        """
        ratio = 1.0 + s_star / ell
        powers = ratio ** np.arange(n_layers - 1, -1, -1, dtype=np.float64)
        return powers / powers.sum()

    # NOTE on the default s* = 0.45 with ell = 2: the single-pass per-layer
    # SINR is then s*/2 = 0.225, whose Gaussian capacity (0.29 bits/symbol)
    # sits below the per-layer rate of 0.4 bits/symbol - so one pass is
    # information-theoretically undecodable and the minimum pass count is 2,
    # matching Strider's published ceiling behaviour.

    # -- encoding ----------------------------------------------------------

    def _layer_symbols(self, layer_bits: np.ndarray) -> np.ndarray:
        coded = self.turbo.encode(layer_bits)
        if self._pad:
            coded = np.concatenate([coded, np.zeros(self._pad, np.uint8)])
        return self.qpsk.modulate(coded)

    def encode_layers(self, message_bits: np.ndarray) -> np.ndarray:
        """Message -> (G, T) matrix of per-layer QPSK blocks."""
        message_bits = np.asarray(message_bits, dtype=np.uint8)
        if message_bits.size != self.n_bits:
            raise ValueError(f"message must have {self.n_bits} bits")
        blocks = message_bits.reshape(self.n_layers, self.k_layer)
        return np.stack([self._layer_symbols(b) for b in blocks])

    def pass_symbols(
        self, layer_symbols: np.ndarray, pass_index: int,
        start: int = 0, stop: int | None = None,
    ) -> np.ndarray:
        """Transmitted symbols of (a slice of) pass ``pass_index``."""
        if pass_index >= self.max_passes:
            raise ValueError("pass index exceeds coefficient matrix")
        stop = self.symbols_per_layer if stop is None else stop
        return self.coeffs[pass_index] @ layer_symbols[:, start:stop]

    # -- decoding ----------------------------------------------------------

    def decode(
        self,
        pass_values: list[np.ndarray],
        noise_power: np.ndarray | float,
    ) -> np.ndarray:
        """MMSE-SIC decode from (possibly partial) received passes.

        Parameters
        ----------
        pass_values: pass_values[p] holds the first ``len(pass_values[p])``
            symbols of pass p (equalised when CSI is in use).
        noise_power: scalar, or per-pass list of per-symbol noise variance
            arrays aligned with ``pass_values`` (fading).

        Returns the concatenated hard message estimate (all layers).
        """
        t_total = self.symbols_per_layer
        n_passes = len(pass_values)
        lens = np.array([len(v) for v in pass_values])
        if np.isscalar(noise_power):
            noise = [np.full(int(n), float(noise_power)) for n in lens]
        else:
            noise = [np.asarray(v, dtype=np.float64) for v in noise_power]
        resid = [np.asarray(v, dtype=np.complex128).copy() for v in pass_values]

        decoded = np.zeros((self.n_layers, self.k_layer), dtype=np.uint8)
        boundaries = sorted({0, t_total, *lens.tolist()})
        # SIC order: strongest accumulated received power first (the
        # rotating ladder makes this order depend on which passes arrived).
        fractions = lens / t_total
        accumulated = (np.abs(self.coeffs[:n_passes]) ** 2
                       * fractions[:, None]).sum(axis=0)
        order = np.argsort(-accumulated)
        pending = set(range(self.n_layers))
        for layer in order:
            pending.discard(int(layer))
            interferers = np.array(sorted(pending), dtype=np.intp)
            z_over_s = np.zeros(t_total, dtype=np.complex128)
            inv_sinr = np.full(t_total, 1e12)
            for lo, hi in zip(boundaries, boundaries[1:]):
                cover = np.flatnonzero(lens >= hi)
                if cover.size == 0 or hi <= lo:
                    continue
                self._mmse_segment(
                    resid, noise, layer, interferers, cover, lo, hi,
                    z_over_s, inv_sinr,
                )
            llrs = soft_demap(self.qpsk, z_over_s, inv_sinr)
            layer_bits = self.turbo.decode(llrs[: self.turbo.n_coded])
            decoded[layer] = layer_bits
            if pending:
                x_hat = self._layer_symbols(layer_bits)
                for p in range(n_passes):
                    n = lens[p]
                    resid[p] -= self.coeffs[p, layer] * x_hat[:n]
        return decoded.reshape(-1)

    def _mmse_segment(
        self, resid, noise, layer, interferers, cover, lo, hi,
        z_over_s, inv_sinr,
    ) -> None:
        """Batched per-time MMSE combining for times [lo, hi).

        The system at time t is ``cc + diag(v[:, t])``, so times whose
        noise columns hold the same bits share one system.  One system is
        solved per run of such columns and its combiner repeated over the
        run: AWGN's scalar noise makes the whole segment one run, CSI one
        run per coherence block.  LAPACK solves each matrix of a batch on
        its own, so the combiners are bit for bit the per-time solve's.
        """
        c_all = self.coeffs[cover]                      # (P, G)
        c_l = c_all[:, layer]                           # (P,)
        interf = c_all[:, interferers]                  # (P, |pending|)
        cc = interf @ interf.conj().T                   # (P, P)
        seg = hi - lo
        p = cover.size
        v = np.stack([noise[q][lo:hi] for q in cover])  # (P, seg)
        bits = v.view(np.uint64)
        starts = np.flatnonzero(np.concatenate(
            ([True], (bits[:, 1:] != bits[:, :-1]).any(axis=0))))
        b = np.broadcast_to(cc, (starts.size, p, p)).copy()
        idx = np.arange(p)
        b[:, idx, idx] += v[:, starts].T
        rhs = np.broadcast_to(c_l[:, None], (starts.size, p, 1))
        w = np.repeat(np.linalg.solve(b, rhs)[..., 0],          # (seg, P)
                      np.diff(starts, append=seg), axis=0)
        y = np.stack([resid[q][lo:hi] for q in cover])          # (P, seg)
        z = np.einsum("tp,pt->t", w.conj(), y)
        sinr = np.maximum(np.einsum("tp,p->t", w.conj(), c_l).real, 1e-12)
        z_over_s[lo:hi] = z / sinr
        inv_sinr[lo:hi] = 1.0 / sinr


class StriderScheme(RatelessScheme):
    """Strider / Strider+ plugged into the shared measurement engine.

    ``subpasses_per_pass=1`` reproduces plain Strider (whole-pass
    granularity); larger values reproduce Strider+ puncturing.
    """

    def __init__(
        self,
        n_bits: int,
        n_layers: int = 33,
        subpasses_per_pass: int = 1,
        max_passes: int = 27,
        iterations: int = 6,
        give_csi: bool | str = False,
        label: str | None = None,
    ):
        from repro.simulation.engine import csi_mode

        self.n_bits = n_bits
        self.n_layers = n_layers
        self.subpasses_per_pass = subpasses_per_pass
        self.max_passes = max_passes
        self.iterations = iterations
        self.csi_mode = csi_mode(give_csi)
        suffix = "+" if subpasses_per_pass > 1 else ""
        self.name = label or f"strider{suffix} n={n_bits} G={n_layers}"

    def run_message(
        self, channel: Channel, rng: np.random.Generator
    ) -> tuple[int, int]:
        codec = StriderCodec(
            self.n_bits, self.n_layers, self.max_passes, self.iterations,
            coeff_seed=int(rng.integers(0, 2**62)),
            interleaver_seed=int(rng.integers(0, 2**62)),
        )
        message = rng.integers(0, 2, size=self.n_bits, dtype=np.uint8)
        layers = codec.encode_layers(message)
        t_total = codec.symbols_per_layer
        sub = self.subpasses_per_pass
        cuts = [round(t_total * j / sub) for j in range(sub + 1)]
        base_noise = getattr(channel, "noise_power", 1.0)

        # chunks[g] = (values, noise_variances) for global subpass g
        chunks: list[tuple[np.ndarray, np.ndarray]] = []

        def ensure(count: int) -> None:
            while len(chunks) < count:
                g = len(chunks)
                p, j = divmod(g, sub)
                lo, hi = cuts[j], cuts[j + 1]
                x = codec.pass_symbols(layers, p, lo, hi)
                out = channel.transmit(x)
                values = out.values
                nv = np.full(values.size, base_noise)
                if out.csi is not None:
                    if self.csi_mode == "full":
                        values = values / out.csi
                        nv = base_noise / np.abs(out.csi) ** 2
                    elif self.csi_mode == "phase":
                        values = values * np.exp(-1j * np.angle(out.csi))
                chunks.append((values, nv))

        def attempt(rows: np.ndarray, count: int) -> np.ndarray:
            ensure(count)
            n_pass = (count + sub - 1) // sub
            pass_values, pass_noise = [], []
            for p in range(n_pass):
                parts = chunks[p * sub: min(count, (p + 1) * sub)]
                pass_values.append(np.concatenate([c[0] for c in parts]))
                pass_noise.append(np.concatenate([c[1] for c in parts]))
            decoded = codec.decode(pass_values, pass_noise)
            return np.array([np.array_equal(decoded, message)])

        symbols_per_chunk = [cuts[j + 1] - cuts[j] for j in range(sub)]

        def symbols_in(count: int) -> int:
            full, part = divmod(count, sub)
            return full * t_total + sum(symbols_per_chunk[:part])

        max_chunks = self.max_passes * sub
        # first attempt: one full pass
        [hi] = rateless_search(attempt, 1, max(1, sub), 1.3, max_chunks)
        if hi is None:
            return 0, symbols_in(max_chunks)
        return self.n_bits, symbols_in(hi)
