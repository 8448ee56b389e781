"""Tests for channel models and capacity metrics (§8.1, §8.3)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.channels import (
    AWGNChannel,
    BSCChannel,
    RayleighBlockFadingChannel,
    awgn_capacity,
    bsc_capacity,
    fraction_of_capacity,
    gap_to_capacity_db,
    rayleigh_capacity,
    snr_db_for_rate,
)
from repro.channels.capacity import binary_entropy


class TestAWGN:
    def test_noise_power_matches_snr(self):
        ch = AWGNChannel(snr_db=10, rng=0)
        x = np.zeros(200_000, dtype=np.complex128)
        y = ch.transmit(x).values
        measured = np.mean(np.abs(y) ** 2)
        assert measured == pytest.approx(0.1, rel=0.02)

    def test_no_csi(self):
        ch = AWGNChannel(10, rng=0)
        assert ch.transmit(np.ones(4, complex)).csi is None

    def test_noise_is_circular(self):
        """Real and imaginary noise parts carry sigma^2/2 each."""
        ch = AWGNChannel(snr_db=0, rng=1)
        y = ch.transmit(np.zeros(100_000, complex)).values
        assert np.var(y.real) == pytest.approx(0.5, rel=0.05)
        assert np.var(y.imag) == pytest.approx(0.5, rel=0.05)
        assert abs(np.mean(y.real * y.imag)) < 0.01

    def test_reproducible(self):
        a = AWGNChannel(5, rng=7).transmit(np.ones(10, complex)).values
        b = AWGNChannel(5, rng=7).transmit(np.ones(10, complex)).values
        assert np.array_equal(a, b)

    def test_high_snr_nearly_clean(self):
        ch = AWGNChannel(60, rng=2)
        x = np.ones(100, complex)
        y = ch.transmit(x).values
        assert np.max(np.abs(y - x)) < 0.01


class TestBSC:
    def test_flip_rate(self):
        ch = BSCChannel(0.1, rng=0)
        bits = np.zeros(100_000, dtype=np.uint8)
        out = ch.transmit(bits).values
        assert out.mean() == pytest.approx(0.1, rel=0.05)

    def test_zero_flip_clean(self):
        ch = BSCChannel(0.0, rng=1)
        bits = np.array([0, 1, 1, 0], dtype=np.uint8)
        assert np.array_equal(ch.transmit(bits).values, bits.astype(float))

    def test_p_one_flips_all(self):
        ch = BSCChannel(1.0, rng=2)
        bits = np.zeros(100, dtype=np.uint8)
        assert (ch.transmit(bits).values == 1.0).all()

    def test_invalid_p(self):
        with pytest.raises(ValueError):
            BSCChannel(1.5)


class TestRayleighFading:
    def test_unit_average_gain(self):
        ch = RayleighBlockFadingChannel(20, coherence_time=1, rng=0)
        h = ch._coefficients(200_000)
        assert np.mean(np.abs(h) ** 2) == pytest.approx(1.0, rel=0.02)

    def test_coherence_blocks(self):
        ch = RayleighBlockFadingChannel(20, coherence_time=10, rng=1)
        h = ch._coefficients(100)
        blocks = h.reshape(10, 10)
        for row in blocks:
            assert np.allclose(row, row[0])
        # consecutive blocks differ
        assert not np.allclose(blocks[0, 0], blocks[1, 0])

    def test_blocks_span_transmit_calls(self):
        """Coherence must persist across subpass boundaries."""
        ch = RayleighBlockFadingChannel(100, coherence_time=8, rng=2)
        first = ch.transmit(np.ones(5, complex))
        second = ch.transmit(np.ones(5, complex))
        # symbols 0..7 share h: last 3 of call 1 == first 3 of call 2
        assert np.allclose(first.csi[:5], first.csi[0])
        assert np.allclose(second.csi[:3], first.csi[0])
        assert not np.allclose(second.csi[3], first.csi[0])

    def test_reset(self):
        ch = RayleighBlockFadingChannel(10, coherence_time=50, rng=3)
        a = ch.transmit(np.ones(10, complex)).csi
        ch.reset()
        b = ch.transmit(np.ones(10, complex)).csi
        assert not np.allclose(a[0], b[0])

    def test_csi_reported(self):
        ch = RayleighBlockFadingChannel(10, coherence_time=4, rng=4)
        out = ch.transmit(np.ones(8, complex))
        assert out.csi is not None and out.csi.shape == (8,)

    def test_phase_uniform(self):
        ch = RayleighBlockFadingChannel(10, coherence_time=1, rng=5)
        h = ch._coefficients(50_000)
        phases = np.angle(h)
        hist, _ = np.histogram(phases, bins=8, range=(-np.pi, np.pi))
        assert hist.min() > 0.8 * 50_000 / 8


class TestCapacity:
    def test_awgn_known_points(self):
        assert awgn_capacity(0) == pytest.approx(1.0)
        assert awgn_capacity(10 * np.log10(3)) == pytest.approx(2.0)

    def test_paper_gap_example(self):
        """§8.1: rate 3 at 12 dB -> gap = 8.45 - 12 = -3.55 dB."""
        assert gap_to_capacity_db(3.0, 12.0) == pytest.approx(-3.55, abs=0.02)

    def test_snr_for_rate_inverts_capacity(self):
        for r in (0.5, 1.0, 3.0, 8.0):
            assert awgn_capacity(snr_db_for_rate(r)) == pytest.approx(r)

    def test_bsc_capacity(self):
        assert bsc_capacity(0.0) == 1.0
        assert bsc_capacity(0.5) == pytest.approx(0.0)
        assert bsc_capacity(0.11) == pytest.approx(1 - binary_entropy(0.11))

    def test_binary_entropy_edges(self):
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0
        assert binary_entropy(0.5) == pytest.approx(1.0)

    def test_rayleigh_below_awgn(self):
        """Fading destroys capacity at fixed average SNR."""
        for snr in (0.0, 10.0, 20.0):
            assert rayleigh_capacity(snr) < awgn_capacity(snr)

    def test_rayleigh_matches_monte_carlo(self):
        rng = np.random.default_rng(0)
        h2 = (rng.standard_normal(400_000)**2 +
              rng.standard_normal(400_000)**2) / 2
        snr = 10.0 ** (10.0 / 10.0)
        mc = np.mean(np.log2(1 + h2 * snr))
        assert rayleigh_capacity(10.0) == pytest.approx(mc, rel=0.01)

    def test_fraction_of_capacity(self):
        assert fraction_of_capacity(0.5, 0.0) == pytest.approx(0.5)

    @given(st.floats(min_value=-10, max_value=40))
    @settings(max_examples=30)
    def test_capacity_monotone(self, snr):
        assert awgn_capacity(snr + 1.0) > awgn_capacity(snr)


class TestChannelRegistry:
    """The shared channel-family registry (used by every point kind)."""

    def test_families_registered(self):
        from repro.channels import make_channel
        for name in ("awgn", "bsc", "rayleigh"):
            assert make_channel(name, 0.1, rng=0) is not None

    def test_make_awgn(self):
        from repro.channels import make_channel
        ch = make_channel("awgn", 10.0, rng=0)
        assert isinstance(ch, AWGNChannel)
        assert ch.snr_db == 10.0

    def test_make_rayleigh_honours_coherence_time(self):
        from repro.channels import make_channel
        ch = make_channel("rayleigh", 10.0, rng=0,
                          options={"coherence_time": 25})
        assert isinstance(ch, RayleighBlockFadingChannel)
        assert ch.coherence_time == 25

    def test_rayleigh_coherence_time_defaults_to_ten(self):
        """A fading point without ``coherence_time`` gets the family
        default, which link points rely on."""
        from repro.channels import make_channel
        assert make_channel("rayleigh", 10.0, rng=0).coherence_time == 10

    def test_make_bsc_point_is_flip_probability(self):
        from repro.channels import make_channel
        ch = make_channel("bsc", 0.1, rng=0)
        assert isinstance(ch, BSCChannel)
        assert ch.flip_probability == 0.1

    def test_unknown_family_raises(self):
        from repro.channels import make_channel
        with pytest.raises(ValueError, match="unknown channel kind"):
            make_channel("laplace", 10.0)

    def test_unknown_option_raises_unless_ignored(self):
        from repro.channels import make_channel
        with pytest.raises(ValueError, match="does not accept options"):
            make_channel("awgn", 10.0, rng=0,
                         options={"coherence_time": 5})

    def test_channel_factory_validates_eagerly(self):
        from repro.channels import channel_factory
        with pytest.raises(ValueError):
            channel_factory("rayleigh", 10.0, {"coherence": 5})  # typo
        factory = channel_factory("rayleigh", 10.0, {"coherence_time": 5})
        ch = factory(np.random.default_rng(0))
        assert ch.coherence_time == 5

