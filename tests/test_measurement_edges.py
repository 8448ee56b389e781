"""Edge-case coverage for RateMeasurement and the experiments' SNR grids.

Zero-success points must report rate 0 without dividing by zero, the
``capacity_reference="bsc"`` knob must keep the dB-based gap metric off
limits while the dimensionless fraction still works, and sweep grids must
include their endpoints (a classic ``arange`` float-edge bug).
"""

import numpy as np
import pytest

from repro.channels import bsc_capacity
from repro.simulation.sweep import RateMeasurement


def zero_success(total_symbols=500, reference="awgn"):
    return RateMeasurement(
        label="giveup", snr_db=0.0, n_messages=10, n_success=0,
        total_bits=0, total_symbols=total_symbols,
        capacity_reference=reference)


class TestZeroSuccess:
    def test_rate_is_zero_not_nan(self):
        m = zero_success()
        assert m.rate == 0.0
        assert m.n_success == 0

    def test_no_symbols_at_all(self):
        # nothing transmitted (e.g. an empty cohort) must not divide by 0
        m = RateMeasurement("empty", 0.0, 0, 0, 0, 0)
        assert m.rate == 0.0
        assert m.n_success == 0

    def test_gap_db_is_minus_inf(self):
        assert zero_success().gap_db == float("-inf")

    def test_fraction_of_capacity_is_zero(self):
        assert zero_success().fraction_of_capacity == 0.0


class TestBscReferenceSemantics:
    def test_gap_db_raises_off_awgn(self):
        m = zero_success(reference="bsc")
        with pytest.raises(ValueError, match="AWGN capacity only"):
            m.gap_db
        with pytest.raises(ValueError, match="AWGN capacity only"):
            zero_success(reference="rayleigh").gap_db

    def test_capacity_is_one_minus_entropy(self):
        m = RateMeasurement("bsc", 0.1, 4, 4, 400, 500,
                            capacity_reference="bsc")
        assert m.capacity == pytest.approx(bsc_capacity(0.1))
        assert m.fraction_of_capacity == \
            pytest.approx((400 / 500) / bsc_capacity(0.1))

    def test_useless_channel_zero_capacity(self):
        # p = 0.5: capacity 0.  A zero rate is 0 of capacity, any
        # positive rate is infinitely above it (and must not divide by 0).
        silent = RateMeasurement("bsc", 0.5, 4, 0, 0, 500,
                                 capacity_reference="bsc")
        assert silent.fraction_of_capacity == 0.0
        loud = RateMeasurement("bsc", 0.5, 4, 4, 400, 500,
                               capacity_reference="bsc")
        assert loud.fraction_of_capacity == float("inf")

    def test_unknown_reference_rejected(self):
        with pytest.raises(ValueError, match="unknown capacity reference"):
            RateMeasurement("x", 0.0, 1, 1, 8, 8,
                            capacity_reference="laplace")


class TestSnrSweepGrid:
    def test_arange_style_grid_keeps_endpoint(self):
        # the experiments grid helper guards the arange float edge
        from repro.experiments import grid
        g = grid(0.0, 30.0, 10.0)
        assert g[0] == 0.0 and g[-1] == 30.0
        assert np.allclose(np.diff(g), 10.0)
