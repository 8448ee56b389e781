"""Tests for QAM/PSK constellations and the soft demapper."""

import hashlib

import numpy as np
import pytest
import scipy
from hypothesis import given, settings, strategies as st
from scipy.special import logsumexp

from repro.channels.awgn import AWGNChannel
from repro.modulation import BPSK, QAM, QPSK, make_constellation, soft_demap
from repro.modulation.demapper import _logsumexp
from repro.modulation.qam import gray_code


def hard_demap(constellation, received):
    """Nearest-point hard decisions, returned as bits (MSB-first)."""
    received = np.asarray(received, dtype=np.complex128)
    diff = received[:, None] - constellation.points[None, :]
    labels = np.argmin(diff.real**2 + diff.imag**2, axis=1)
    bps = constellation.bits_per_symbol
    shifts = np.arange(bps - 1, -1, -1, dtype=np.int64)
    return ((labels[:, None] >> shifts) & 1).astype(np.uint8).reshape(-1)


class TestGrayCode:
    def test_first_values(self):
        assert [gray_code(i) for i in range(4)] == [0, 1, 3, 2]

    def test_adjacent_differ_one_bit(self):
        for i in range(63):
            diff = gray_code(i) ^ gray_code(i + 1)
            assert bin(diff).count("1") == 1

    def test_bijection(self):
        vals = {gray_code(i) for i in range(256)}
        assert vals == set(range(256))


class TestConstellations:
    @pytest.mark.parametrize("order", [4, 16, 64, 256])
    def test_unit_power(self, order):
        q = QAM(order)
        assert np.mean(np.abs(q.points) ** 2) == pytest.approx(1.0)

    @pytest.mark.parametrize("order", [4, 16, 64, 256])
    def test_distinct_points(self, order):
        q = QAM(order)
        assert np.unique(q.points).size == order

    def test_qpsk_points(self):
        q = QPSK()
        expected = {(1 + 1j), (1 - 1j), (-1 + 1j), (-1 - 1j)}
        got = {complex(round(p.real * np.sqrt(2)), round(p.imag * np.sqrt(2)))
               for p in q.points}
        assert got == expected

    def test_bpsk(self):
        b = BPSK()
        assert b.bits_per_symbol == 1
        assert np.allclose(sorted(b.points.real), [-1.0, 1.0])

    def test_gray_neighbours_qam16(self):
        """Physically adjacent QAM points should differ in one label bit."""
        q = QAM(16)
        pts = q.points
        d_min = np.sort(np.unique(np.abs(pts[:, None] - pts[None, :])))[1]
        for a in range(16):
            for b in range(a + 1, 16):
                if abs(pts[a] - pts[b]) < d_min * 1.01:
                    assert bin(a ^ b).count("1") == 1

    def test_odd_bits_rejected(self):
        with pytest.raises(ValueError):
            QAM(8)

    def test_factory(self):
        assert make_constellation("qam-256").size == 256
        assert make_constellation("QPSK").name == "QPSK"
        with pytest.raises(ValueError):
            make_constellation("pam-8")

    def test_modulate_roundtrip_noiseless(self):
        q = QAM(64)
        rng = np.random.default_rng(0)
        bits = rng.integers(0, 2, size=600, dtype=np.uint8)
        symbols = q.modulate(bits)
        assert np.array_equal(hard_demap(q, symbols), bits)

    def test_modulate_rejects_misaligned(self):
        with pytest.raises(ValueError):
            QAM(16).modulate(np.zeros(5, dtype=np.uint8))


class TestSoftDemap:
    @pytest.mark.parametrize("name", ["bpsk", "qpsk", "qam-16", "qam-64", "qam-256"])
    def test_noiseless_signs_match_bits(self, name):
        c = make_constellation(name)
        rng = np.random.default_rng(1)
        bits = rng.integers(0, 2, size=40 * c.bits_per_symbol, dtype=np.uint8)
        y = c.modulate(bits)
        llrs = soft_demap(c, y, noise_power=1e-3)
        hard = (llrs < 0).astype(np.uint8)
        assert np.array_equal(hard, bits)

    def test_llr_magnitude_grows_with_snr(self):
        c = QPSK()
        bits = np.array([0, 0, 1, 1], dtype=np.uint8)
        y = c.modulate(bits)
        weak = np.abs(soft_demap(c, y, noise_power=1.0))
        strong = np.abs(soft_demap(c, y, noise_power=0.01))
        assert (strong > weak).all()

    def test_separable_matches_generic_qam16(self):
        """The fast per-dimension QAM path must equal the generic path."""
        c = QAM(16)
        generic = make_constellation("qam-16")
        generic.__class__ = type(  # force the generic branch
            "NonSeparable", (generic.__class__,), {"is_separable": False}
        )
        rng = np.random.default_rng(2)
        y = rng.standard_normal(50) + 1j * rng.standard_normal(50)
        fast = soft_demap(c, y, noise_power=0.5)
        slow = soft_demap(generic, y, noise_power=0.5)
        assert np.allclose(fast, slow, atol=1e-8)

    def test_csi_equalisation(self):
        """Demapping with CSI on a rotated channel equals the AWGN case."""
        c = QPSK()
        rng = np.random.default_rng(3)
        bits = rng.integers(0, 2, size=100, dtype=np.uint8)
        x = c.modulate(bits)
        h = np.exp(1j * 0.7) * 1.5 * np.ones(x.size)
        y = h * x
        llrs = soft_demap(c, y, noise_power=0.1, csi=h)
        hard = (llrs < 0).astype(np.uint8)
        assert np.array_equal(hard, bits)

    def test_llrs_calibrated(self):
        """E[bit | llr] should match the LLR's implied probability
        (coarse check on a noisy QPSK stream)."""
        c = QPSK()
        rng = np.random.default_rng(4)
        bits = rng.integers(0, 2, size=40_000, dtype=np.uint8)
        x = c.modulate(bits)
        ch = AWGNChannel(3, rng=5)
        y = ch.transmit(x).values
        llrs = soft_demap(c, y, ch.noise_power)
        band = (np.abs(llrs) > 1.0) & (np.abs(llrs) < 2.0)
        p_implied = 1.0 / (1.0 + np.exp(-np.abs(llrs[band])))
        hard = (llrs < 0).astype(np.uint8)
        agree = (hard[band] == bits[band]).mean()
        assert agree == pytest.approx(p_implied.mean(), abs=0.03)

    @given(st.integers(0, 2**31))
    @settings(max_examples=10, deadline=None)
    def test_hard_demap_property(self, seed):
        c = QAM(16)
        rng = np.random.default_rng(seed)
        bits = rng.integers(0, 2, size=64, dtype=np.uint8)
        assert np.array_equal(hard_demap(c, c.modulate(bits)), bits)


# The last bits of float64 exp, log, log1p and complex abs vary with
# numpy's CPU dispatch (and the C library), and so do soft_demap's.  These
# are the SHA-256 digests of ``_golden_llrs()`` under each implementation
# they were computed on (numpy 2.4.6 with its AVX-512 loops, with its AVX2
# loops, and with its baseline loops; glibc), keyed by
# ``_libm_fingerprint()``.  They were computed with the earlier demapper,
# which called scipy 1.17.1's logsumexp once per bit.
_GOLDEN_DIGESTS = {
    "8c63e9c70d109a7c":
        "c2a86151ec2279c81b8d9a68c34bcc7a0ff94c6c6bfba6c224b9edd848500dd4",
    "3a5c68a78f8e6eaf":
        "f184bb6cc6182f4fa3844d9d62b9b82db0deb92a0772bcd78b3e051220aeec3f",
    "d15b89b9a1a2d83c":
        "6a4493b0505a1db49b87ed139ac80082e93159f6b375859ae865f14c570379b0",
}
# The digest of the same LLRs through ``_rounded``, which any of them gives.
_GOLDEN_ROUNDED = "f78b263f0965665c697439a003e91cf5c81ee00252c901bef3f721e4b7228b26"


def _golden_llrs():
    """soft_demap outputs over every path: the separable QAMs and the
    generic BPSK, with and without CSI, one symbol and many, and the two
    inputs that give NaN LLRs (a zero CSI entry, zero noise power)."""
    rng = np.random.default_rng(20120813)
    for name in ("bpsk", "qpsk", "qam-16", "qam-64", "qam-256"):
        c = make_constellation(name)
        bits = rng.integers(0, 2, size=24 * c.bits_per_symbol, dtype=np.uint8)
        x = c.modulate(bits)
        y = x + 0.3 * (rng.standard_normal(x.size)
                       + 1j * rng.standard_normal(x.size))
        y[::5] = x[::5]  # exact constellation hits
        h = (rng.standard_normal(x.size)
             + 1j * rng.standard_normal(x.size)) / np.sqrt(2)
        for noise_power in (1e-3, 0.1, 2.0):
            yield soft_demap(c, y, noise_power)
            yield soft_demap(c, h * y, noise_power, csi=h)
        yield soft_demap(c, y, 0.05 + rng.random(x.size))
        yield soft_demap(c, y[1:2], 0.1)
        yield soft_demap(c, h[1:2] * y[1:2], 0.1, csi=h[1:2])
        h[3] = 0.0
        yield soft_demap(c, h * y, 0.1, csi=h)
        yield soft_demap(c, y, 0.0)


def _digest(arrays):
    digest = hashlib.sha256()
    for a in arrays:
        digest.update(np.ascontiguousarray(a, dtype="<f8").tobytes())
    return digest.hexdigest()


def _rounded(llrs):
    """Four decimals, one NaN and no negative zero: the same on any
    correctly working exp and log, to the odd last-digit tie."""
    return np.where(np.isnan(llrs), np.nan, np.round(llrs, 4) + 0.0)


def _libm_fingerprint():
    """Which float64 exp, log, log1p and complex abs this numpy runs: their
    last bits vary with its CPU dispatch and the C library."""
    rng = np.random.default_rng(0)
    x = rng.uniform(0.0, 1.0, 4096)
    z = rng.standard_normal(4096) + 1j * rng.standard_normal(4096)
    return _digest([np.exp(-800.0 * x), np.log(1e-300 + 1e3 * x),
                    np.log1p(200.0 * x), np.abs(z)])[:16]


class TestSoftDemapGolden:
    def test_golden_digest(self):
        """soft_demap's bytes, NaN LLRs included, are those pinned above:
        exactly wherever exp, log, log1p and abs are one of the pinned
        implementations, and to four decimals everywhere."""
        with np.errstate(all="ignore"):
            llrs = list(_golden_llrs())
        assert sum(int(np.isnan(a).sum()) for a in llrs) == 525
        assert _digest(map(_rounded, llrs)) == _GOLDEN_ROUNDED
        expected = _GOLDEN_DIGESTS.get(_libm_fingerprint())
        if expected is not None:
            assert _digest(llrs) == expected


# scipy 1.17 computes logsumexp as _logsumexp replays it; another release
# (scipy >= 1.16 needs Python >= 3.11) may round differently.
_SCIPY_REPLAYED = scipy.__version__.split(".")[:2] == ["1", "17"]
_EDGES = (0.0, -0.0, np.inf, -np.inf, np.nan, 1e300, -1e300, 1e-300,
          -1e-300, 709.0, -745.0)


@st.composite
def _lse_arrays(draw):
    """Rows of 1-128 values, C- or F-ordered.  Values come from a short
    drawn pool (so maxima tie), mixed with the edge cases and, half the
    time, with random values of one magnitude up to 1e+-300; a row may be
    all -inf."""
    rows, k = draw(st.integers(1, 4)), draw(st.integers(1, 128))
    value = st.one_of(st.floats(-50.0, 50.0), st.sampled_from(_EDGES),
                      st.floats(allow_nan=True, allow_infinity=True))
    pool = np.array(draw(st.lists(value, min_size=1, max_size=8)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = pool[rng.integers(0, pool.size, (rows, k))]
    if draw(st.booleans()):
        spread = rng.standard_normal((rows, k)) * 10.0 ** draw(
            st.integers(-300, 300))
        a = np.where(rng.random((rows, k)) < 0.5, a, spread)
    if draw(st.booleans()):
        a[draw(st.integers(0, rows - 1))] = -np.inf
    return np.asarray(a, order=draw(st.sampled_from("CF")))


class TestLogSumExp:
    @given(a=_lse_arrays())
    @settings(max_examples=300, deadline=None)
    def test_matches_scipy(self, a):
        """_logsumexp equals scipy's logsumexp over the last axis of the
        same array: to the bit on scipy 1.17, to rounding otherwise."""
        ours = _logsumexp(a)
        # scipy's own ``a - a_max`` overflows on some of these rows
        with np.errstate(over="ignore"):
            theirs = logsumexp(a, axis=-1)
        if _SCIPY_REPLAYED:
            assert ours.tobytes() == theirs.tobytes()
        else:
            finite = np.abs(a[np.isfinite(a)])
            scale = max(1.0, float(finite.max())) if finite.size else 1.0
            np.testing.assert_allclose(ours, theirs, rtol=1e-13,
                                       atol=1e-13 * scale, equal_nan=True)

    def test_edge_rows(self):
        """Tied maxima, -inf rows, +inf and NaN take scipy's values."""
        a = np.array([[1.0, 1.0, 1.0], [-np.inf] * 3,
                      [np.inf, 0.0, -np.inf], [np.nan, 0.0, 1.0],
                      [-0.0, -0.0, -np.inf]])
        out = _logsumexp(a)
        assert out[0] == 1.0 + np.log(3.0)
        assert out[1] == -np.inf and out[2] == np.inf and np.isnan(out[3])
        assert out[4] == np.log(2.0)
