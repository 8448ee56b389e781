"""Shared-medium time model for link-level simulation (paper §5, §8.4).

The paper's protocol reasoning is in *symbol times*: every constellation
symbol occupies one channel use, and feedback comes back after a
configurable number of symbol times.  :class:`SharedChannel` wraps any
:class:`~repro.channels.base.Channel` with exactly that bookkeeping for a
:class:`~repro.link.LinkSession`:

- a monotone **symbol clock** (``time``) that advances by one per symbol
  transmitted, and can be advanced explicitly while the medium idles
  (a sender with nothing to send waiting out its feedback delay);
- a **conservation counter** (``symbols_sent``), so a flow's per-packet
  symbol counts can be checked to sum to the channel total.

Because the wrapped channel is driven in strict transmission order, stateful
models (Rayleigh block fading) evolve across a session's packets exactly as
they do across one packet's subpasses.
"""

from __future__ import annotations

import numpy as np

from repro.channels.base import Channel, ChannelOutput

__all__ = ["SharedChannel"]


class SharedChannel(Channel):
    """A channel plus the symbol clock every link-layer entity reads.

    Parameters
    ----------
    inner: the physical channel model all traffic passes through.
    """

    memoryless = False
    private_state = False  # the link layer reads its symbol clock: never batch

    def __init__(self, inner: Channel):
        self.inner = inner
        self.complex_valued = inner.complex_valued
        self.reports_csi = inner.reports_csi
        self.time = 0           # symbol clock (symbol times since start)
        self.symbols_sent = 0   # total symbols transmitted

    def transmit(self, symbols: np.ndarray) -> ChannelOutput:
        """Transmit a block; the clock advances one unit per symbol."""
        out = self.inner.transmit(symbols)
        n = int(np.asarray(symbols).size)
        self.time += n
        self.symbols_sent += n
        return out

    def advance(self, dt: int) -> None:
        """Let the medium idle for ``dt`` symbol times (no symbols sent)."""
        if dt < 0:
            raise ValueError("cannot advance the symbol clock backwards")
        self.time += int(dt)

    def reset(self) -> None:
        """Reset the clock, the counters, and the wrapped channel."""
        self.inner.reset()
        self.time = 0
        self.symbols_sent = 0
