"""Raptor codes over noisy channels: the paper's fountain-code baseline.

Follows the construction the paper compares against (§8): an inner LT code
with the RFC 5053 degree distribution, an outer high-rate LDPC precode
(rate 0.95, regular left degree 4) per Shokrollahi, and joint belief
propagation over soft demapped information from a dense QAM constellation
(Palanki & Yedidia style decoding for noisy channels).
"""

from repro.fountain.distributions import (
    RFC5053_DEGREES,
    sample_rfc5053_degree,
)
from repro.fountain.lt import LTStream
from repro.fountain.precode import LdpcPrecode
from repro.fountain.raptor import RaptorCodec, RaptorScheme

__all__ = [
    "RFC5053_DEGREES",
    "sample_rfc5053_degree",
    "LTStream",
    "LdpcPrecode",
    "RaptorCodec",
    "RaptorScheme",
]
