"""Linear modulation: QAM/PSK constellations, Gray mapping, soft demapping.

The baseline codes (LDPC, Raptor, Strider) modulate coded *bits* onto
standard constellations and demap soft information at the receiver — unlike
spinal codes, which map hash output directly to symbols.  The paper's
Raptor baseline uses dense QAM-256 with a careful soft demapper (§8.2);
LDPC uses the 802.11n modulations; Strider uses QPSK.
"""

from repro.modulation.qam import (
    BPSK,
    QAM,
    QPSK,
    Constellation,
    make_constellation,
)
from repro.modulation.demapper import soft_demap

__all__ = [
    "Constellation",
    "QAM",
    "QPSK",
    "BPSK",
    "make_constellation",
    "soft_demap",
]
