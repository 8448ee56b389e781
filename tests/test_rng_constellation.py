"""Tests for the spinal RNG and the constellation mappings (§3.2, §3.3)."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.stats import norm

from repro.core.constellation import (
    BscMapping,
    TruncatedGaussianMapping,
    UniformMapping,
    make_mapping,
)
from repro.core.hashes import one_at_a_time
from repro.core.rng import SpinalRNG


class TestSpinalRNG:
    def test_deterministic(self):
        rng = SpinalRNG(one_at_a_time, c=6)
        seeds = np.array([1, 2, 3], dtype=np.uint32)
        a = rng.words(seeds, 0)
        b = rng.words(seeds, 0)
        assert np.array_equal(a, b)

    def test_index_addressable(self):
        """Symbol t is h(seed, t): computing t=5 must not need t=0..4 (§7.1)."""
        rng = SpinalRNG(one_at_a_time, c=6)
        seed = np.array([42], dtype=np.uint32)
        direct = rng.words(seed, 5)
        sequential = [rng.words(seed, t) for t in range(6)]
        assert int(direct[0]) == int(sequential[5][0])

    def test_iq_fields(self):
        rng = SpinalRNG(one_at_a_time, c=6)
        seeds = np.array([7], dtype=np.uint32)
        word = int(rng.words(seeds, 3)[0])
        i_vals, q_vals = rng.iq_values(seeds, 3)
        assert int(i_vals[0]) == word & 0x3F
        assert int(q_vals[0]) == (word >> 6) & 0x3F

    def test_bits_mode(self):
        rng = SpinalRNG(one_at_a_time, c=1)
        seeds = np.arange(100, dtype=np.uint32)
        bits = rng.bits(seeds, 0)
        assert bits.dtype == np.uint8
        assert set(np.unique(bits)) <= {0, 1}

    def test_accepts_name(self):
        assert SpinalRNG("lookup3", c=4).c == 4

    def test_c_bounds(self):
        with pytest.raises(ValueError):
            SpinalRNG(one_at_a_time, c=0)
        with pytest.raises(ValueError):
            SpinalRNG(one_at_a_time, c=17)

    def test_outputs_look_uniform(self):
        """c-bit outputs should be near-uniform (capacity proof assumption)."""
        rng = SpinalRNG(one_at_a_time, c=4)
        seeds = np.arange(50_000, dtype=np.uint32)
        i_vals, _ = rng.iq_values(seeds, 1)
        counts = np.bincount(i_vals, minlength=16)
        expected = 50_000 / 16
        assert (np.abs(counts - expected) < 5 * np.sqrt(expected)).all()


class TestUniformMapping:
    def test_levels_count(self):
        m = UniformMapping(c=6)
        assert m.levels.shape == (64,)

    def test_symmetric(self):
        m = UniformMapping(c=6)
        assert np.allclose(m.levels, -m.levels[::-1])

    def test_range(self):
        m = UniformMapping(c=6, power=1.0)
        half = np.sqrt(6.0) / 2.0
        assert (np.abs(m.levels) < half).all()

    def test_average_power_half_P(self):
        """Each dimension carries P/2 so the complex symbol carries P."""
        for c in (4, 6, 8):
            m = UniformMapping(c=c, power=1.0)
            assert m.average_power_per_dimension == pytest.approx(0.5, rel=0.02)

    def test_formula(self):
        m = UniformMapping(c=2, power=2.0)
        u = (np.arange(4) + 0.5) / 4
        assert np.allclose(m.levels, (u - 0.5) * np.sqrt(12.0))

    def test_map_lookup(self):
        m = UniformMapping(c=3)
        vals = np.array([0, 7, 3])
        assert np.allclose(m.map(vals), m.levels[[0, 7, 3]])


class TestTruncatedGaussianMapping:
    def test_range_bounded(self):
        """Levels stay within the (power-renormalised) ±beta clip."""
        m = TruncatedGaussianMapping(c=6, power=1.0, beta=2.0)
        raw_bound = 2.0 * np.sqrt(0.5)
        renorm = raw_bound / np.sqrt(0.774)  # truncation variance deficit
        assert (np.abs(m.levels) <= renorm * 1.01).all()

    def test_average_power_exactly_half_P(self):
        """Figure 3-2: both maps have the same average power."""
        m = TruncatedGaussianMapping(c=8, power=1.0, beta=2.0)
        assert m.average_power_per_dimension == pytest.approx(0.5, rel=1e-9)

    def test_monotone_levels(self):
        m = TruncatedGaussianMapping(c=6)
        assert (np.diff(m.levels) > 0).all()

    def test_formula_up_to_power_normalisation(self):
        m = TruncatedGaussianMapping(c=2, power=1.0, beta=2.0)
        gamma = norm.cdf(-2.0)
        u = (np.arange(4) + 0.5) / 4
        raw = norm.ppf(gamma + (1 - 2 * gamma) * u)
        expected = raw * np.sqrt(0.5 / np.mean(raw**2))
        assert np.allclose(m.levels, expected)

    def test_level_bytes_golden(self):
        """The levels' exact bits over c = 1..16, seven clips and three
        powers: the Gaussian-mapping points in the result store depend on
        every one of them."""
        h = hashlib.sha256()
        for c in range(1, 17):
            for beta in (0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 4.0):
                for power in (1.0, 2.0, 0.5):
                    h.update(TruncatedGaussianMapping(c, power, beta)
                             .levels.tobytes())
        assert h.hexdigest() == (
            "dcafd8d47760c936fcadb0f4fb0734087f9dce9ecb5deb5cef25c72bdcd416eb")

    def test_denser_near_zero_than_uniform(self):
        """The Gaussian map concentrates points near the origin."""
        g = TruncatedGaussianMapping(c=6)
        u = UniformMapping(c=6)
        g_near = (np.abs(g.levels) < 0.3).sum()
        u_near = (np.abs(u.levels) < 0.3).sum()
        assert g_near > u_near


class TestBscMapping:
    def test_levels(self):
        m = BscMapping()
        assert m.levels.tolist() == [0.0, 1.0]
        assert m.dimensions == 1

    def test_requires_c1(self):
        with pytest.raises(ValueError):
            BscMapping(c=2)


class TestFactory:
    @pytest.mark.parametrize(
        "name,cls",
        [("uniform", UniformMapping),
         ("gaussian", TruncatedGaussianMapping),
         ("bsc", BscMapping)],
    )
    def test_dispatch(self, name, cls):
        c = 1 if name == "bsc" else 6
        assert isinstance(make_mapping(name, c), cls)

    def test_unknown(self):
        with pytest.raises(ValueError):
            make_mapping("qam", 6)

    @given(st.integers(min_value=4, max_value=10))
    @settings(max_examples=7)
    def test_uniform_and_gaussian_power_match(self, c):
        """Figure 3-2: 'same average power' (up to uniform-map quantisation,
        whose discrete power is (1 - 2^-2c) * P/2)."""
        u = UniformMapping(c=c).average_power_per_dimension
        g = TruncatedGaussianMapping(c=c).average_power_per_dimension
        assert abs(u - g) < 0.01
