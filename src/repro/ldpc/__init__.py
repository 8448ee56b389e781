"""LDPC codes: the paper's fixed-rate baseline (§8, "LDPC envelope").

The paper uses the 802.11n LDPC family (n = 648, rates 1/2..5/6) with a
40-iteration belief-propagation decoder and reports the best envelope over
(code rate, modulation) combinations at each SNR.  We build a QC-LDPC
family with the same block length, rates, and dual-diagonal encoding
structure (see DESIGN.md for the substitution rationale), the same decoder,
and the same envelope procedure.
"""

from repro.ldpc.gf2 import gf2_rref, generator_from_parity
from repro.ldpc.bp import BeliefPropagation
from repro.ldpc.construction import make_qc_ldpc
from repro.ldpc.code import LdpcCode, wifi_ldpc_family
from repro.ldpc.envelope import LdpcOperatingPoint, WIFI_OPERATING_POINTS, ldpc_envelope

__all__ = [
    "gf2_rref",
    "generator_from_parity",
    "BeliefPropagation",
    "make_qc_ldpc",
    "LdpcCode",
    "wifi_ldpc_family",
    "LdpcOperatingPoint",
    "WIFI_OPERATING_POINTS",
    "ldpc_envelope",
]
