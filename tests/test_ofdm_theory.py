"""Tests for OFDM/PAPR (Table 8.1 substrate) and the Theorem 1 bounds."""

import numpy as np
import pytest

from repro.ofdm import OfdmModulator, papr_db, papr_experiment
from repro.ofdm.papr import constellation_sampler
from repro.theory import (
    achievable_rate_bound,
    delta_gap,
    uniform_constellation_gap,
)
from repro.channels.capacity import awgn_capacity


class TestOfdmModulator:
    def test_output_length(self):
        mod = OfdmModulator(oversampling=4)
        wf = mod.modulate(np.ones((3, 48)))
        assert wf.shape == (3, 256)

    def test_power_preserved(self):
        mod = OfdmModulator(oversampling=1)
        rng = np.random.default_rng(0)
        data = (rng.standard_normal((200, 48))
                + 1j * rng.standard_normal((200, 48))) / np.sqrt(2)
        wf = mod.modulate(data)
        # 52 active carriers of unit-ish power in 64 bins
        expected = 52 / 64
        assert np.mean(np.abs(wf) ** 2) == pytest.approx(expected, rel=0.05)

    def test_wrong_width_rejected(self):
        with pytest.raises(ValueError):
            OfdmModulator().modulate(np.ones((1, 10)))

    def test_single_carrier_is_tone(self):
        mod = OfdmModulator(oversampling=1)
        data = np.zeros(48, dtype=complex)
        data[0] = 1.0
        wf = mod.modulate(data, pilot_polarity=0)[0]
        assert np.allclose(np.abs(wf), np.abs(wf[0]))  # constant envelope


class TestPapr:
    def test_papr_of_constant_envelope(self):
        wf = np.exp(1j * np.linspace(0, 10, 256))[None, :]
        assert papr_db(wf)[0] == pytest.approx(0.0, abs=1e-9)

    def test_papr_of_impulse_high(self):
        wf = np.zeros((1, 256), dtype=complex)
        wf[0, 7] = 1.0
        assert papr_db(wf)[0] == pytest.approx(10 * np.log10(256))

    @pytest.mark.parametrize("name", ["qam-4", "qam-64", "qam-2^20", "gaussian"])
    def test_samplers_unit_power(self, name):
        rng = np.random.default_rng(1)
        x = constellation_sampler(name)(rng, 50_000)
        assert np.mean(np.abs(x) ** 2) == pytest.approx(1.0, rel=0.03)

    def test_table81_shape(self):
        """OFDM PAPR is ~7.3 dB mean regardless of constellation density."""
        mean4, tail4 = papr_experiment("qam-4", n_ofdm_symbols=2_000, seed=0)
        mean_g, tail_g = papr_experiment("gaussian", n_ofdm_symbols=2_000, seed=0)
        assert 6.5 < mean4 < 8.2
        assert 6.5 < mean_g < 8.2
        assert abs(mean4 - mean_g) < 0.3  # the table's point
        assert tail4 > mean4


class TestTheoremBounds:
    def test_uniform_gap_value(self):
        """(1/2) log2(pi e / 6) ≈ 0.2546 bits (§4.6)."""
        assert uniform_constellation_gap() == pytest.approx(0.2546, abs=1e-3)

    def test_delta_decreases_with_c(self):
        assert delta_gap(6, 10) > delta_gap(8, 10) > delta_gap(12, 10)

    def test_delta_limit_is_shaping_gap(self):
        assert delta_gap(30, 10) == pytest.approx(
            uniform_constellation_gap(), abs=1e-4
        )

    def test_bound_below_capacity(self):
        for snr in (0, 10, 20, 30):
            assert achievable_rate_bound(10, snr) < awgn_capacity(snr)

    def test_c_must_scale_with_snr(self):
        """At high SNR a small c makes the bound vacuous (§4.6)."""
        assert achievable_rate_bound(4, 30) == 0.0
        assert achievable_rate_bound(12, 30) > 8.0
