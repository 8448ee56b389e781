"""Tests for the Raptor stack: degree distribution, LT, precode, codec."""

from unittest import mock

import numpy as np
import pytest

from repro.backend import ckernels
from repro.channels.awgn import AWGNChannel
from repro.fountain import (
    LdpcPrecode,
    LTStream,
    RaptorCodec,
    RaptorScheme,
    sample_rfc5053_degree,
)
from repro.modulation import soft_demap
from repro.simulation import measure_scheme

from deadline import deadline


def ideal_soliton(n: int) -> np.ndarray:
    """Ideal soliton distribution rho(d) over degrees 1..n (Luby's LT
    paper), the textbook reference for the RFC 5053 table."""
    if n < 1:
        raise ValueError("n must be >= 1")
    p = np.zeros(n + 1)
    p[1] = 1.0 / n
    d = np.arange(2, n + 1)
    p[2:] = 1.0 / (d * (d - 1))
    return p[1:]


class TestDegreeDistribution:
    def test_rfc_degrees_valid(self):
        rng = np.random.default_rng(0)
        degrees = sample_rfc5053_degree(rng, size=20_000)
        assert set(np.unique(degrees)) <= {1, 2, 3, 4, 10, 11, 40}

    def test_rfc_probabilities(self):
        rng = np.random.default_rng(1)
        degrees = sample_rfc5053_degree(rng, size=200_000)
        p2 = (degrees == 2).mean()
        # P(2) = (491582-10241)/2^20 = 0.459
        assert p2 == pytest.approx(0.459, abs=0.01)
        p1 = (degrees == 1).mean()
        assert p1 == pytest.approx(10241 / 2**20, abs=0.002)

    def test_mean_degree(self):
        """RFC 5053 average output degree is ~4.6."""
        rng = np.random.default_rng(2)
        degrees = sample_rfc5053_degree(rng, size=100_000)
        assert 4.4 < degrees.mean() < 4.9

    def test_ideal_soliton_sums_to_one(self):
        assert ideal_soliton(100).sum() == pytest.approx(1.0)

    def test_soliton_shapes(self):
        p = ideal_soliton(50)
        assert p[1] == pytest.approx(0.5)  # P(d=2) = 1/2


class TestLTStream:
    def test_deterministic(self):
        a = LTStream(100, seed=3)
        b = LTStream(100, seed=3)
        for i in (0, 5, 17):
            assert np.array_equal(a.neighbours(i), b.neighbours(i))

    def test_neighbours_distinct_and_bounded(self):
        s = LTStream(50, seed=4)
        for i in range(200):
            nbrs = s.neighbours(i)
            assert np.unique(nbrs).size == nbrs.size
            assert nbrs.max() < 50

    def test_encode_is_xor(self):
        s = LTStream(20, seed=5)
        rng = np.random.default_rng(0)
        block = rng.integers(0, 2, size=20, dtype=np.uint8)
        out = s.encode_range(block, 0, 30)
        for i in range(30):
            assert out[i] == block[s.neighbours(i)].sum() % 2
        assert out.dtype == np.uint8
        assert s.encode_range(block, 5, 0).size == 0

    def test_range_consistency(self):
        s = LTStream(30, seed=6)
        block = np.ones(30, dtype=np.uint8)
        whole = s.encode_range(block, 0, 20)
        parts = np.concatenate([
            s.encode_range(block, 0, 7),
            s.encode_range(block, 7, 13),
        ])
        assert np.array_equal(whole, parts)


#: The first six LT neighbour sets for (seed, n_intermediate), as numpy's
#: own integers() and choice(replace=False) calls draw them.
GOLDEN_NEIGHBOURS = {
    (1, 2): [[0, 1], [0, 1], [0, 1], [0, 1], [0, 1], [0, 1]],
    (1, 3): [[0, 1, 2], [1, 2], [1, 2], [0, 1, 2], [0, 2], [0, 1, 2]],
    (1, 50): [[24, 37, 47], [10, 12, 13, 19, 20, 32, 38, 43, 46, 47],
              [6, 38], [22, 48], [19, 45], [0, 12, 37]],
    (1, 2156): [[1102, 1627, 2049],
                [535, 553, 587, 670, 881, 910, 1388, 1782, 1868, 2036],
                [267, 1699], [977, 2106], [868, 1948], [42, 565, 1617]],
    (7, 2): [[0, 1], [0, 1], [0, 1], [0, 1], [0, 1], [0, 1]],
    (7, 3): [[0, 1, 2], [0, 1, 2], [1, 2], [0, 1, 2], [0, 1], [0, 1]],
    (7, 50): [[2, 10, 13, 14, 24, 25, 28, 34, 37, 43, 44], [13, 35],
              [0, 1, 3, 4, 5, 6, 7, 8, 11, 13, 14, 15, 16, 17, 18, 19, 21,
               22, 24, 25, 26, 27, 28, 30, 31, 32, 33, 34, 35, 36, 38, 39,
               41, 42, 43, 44, 45, 46, 47, 49],
              [16, 18, 29], [20, 40], [19, 29, 46]],
    (7, 2156): [[119, 484, 614, 646, 1242, 1341, 1468, 1667, 1793, 1883,
                 1927],
                [600, 1551],
                [25, 76, 93, 209, 245, 302, 341, 458, 532, 572, 725, 816,
                 942, 948, 950, 993, 999, 1012, 1068, 1069, 1081, 1102,
                 1104, 1173, 1234, 1307, 1323, 1350, 1488, 1684, 1715,
                 1733, 1767, 1801, 1829, 1967, 2078, 2105, 2113, 2139],
                [696, 834, 1289], [864, 1759], [845, 1272, 2108]],
    (2**61 + 3, 2): [[0, 1], [0, 1], [0, 1], [0, 1], [0, 1], [0, 1]],
    (2**61 + 3, 3): [[0, 1, 2], [0, 1], [0, 1, 2], [0, 1], [0, 1, 2],
                     [0, 2]],
    (2**61 + 3, 50): [[0, 3, 5, 11, 12, 13, 17, 20, 37, 44], [3, 8, 24],
                      [16, 32], [1, 2, 4, 8, 23, 25, 30, 33, 35, 45],
                      [19, 32], [23, 34]],
    (2**61 + 3, 2156): [[35, 187, 261, 502, 566, 668, 803, 1077, 1637,
                         2095],
                        [142, 397, 1077], [731, 1388],
                        [50, 108, 192, 437, 1165, 1193, 1346, 1698, 1777,
                         2103],
                        [832, 1420], [1021, 1509]],
}


def _paths():
    """The draws' paths here: numpy's own calls always (the compiled
    kernels hidden), the C kernel when it builds."""
    return ("numpy", "compiled") if ckernels.load() is not None else (
        "numpy",)


def _on_path(path):
    return mock.patch.object(
        ckernels, "load", ckernels.load if path == "compiled" else
        lambda: None)


@pytest.mark.parametrize("seed, n", sorted(GOLDEN_NEIGHBOURS))
def test_golden_lt_neighbours(seed, n):
    """Both paths draw the pinned neighbour sets, then 500 more outputs in
    two ranges, and leave the generator in the same state."""
    ends = {}
    with deadline(60):
        for path in _paths():
            with _on_path(path):
                stream = LTStream(n, seed)
                got = [stream.neighbours(i).tolist() for i in range(6)]
                assert got == GOLDEN_NEIGHBOURS[seed, n], path
                offsets, flat = stream.neighbour_range(200, 306)
                ends[path] = (offsets, flat,
                              stream._rng.bit_generator.state)
    if "compiled" in ends:
        (o1, f1, s1), (o2, f2, s2) = ends["compiled"], ends["numpy"]
        assert np.array_equal(o1, o2) and np.array_equal(f1, f2)
        assert s1 == s2


@pytest.mark.parametrize("k, seed", [(80, 1), (2048, 7)])
def test_precode_assignments_on_both_paths(k, seed):
    """The precode's choice(replace=False) rows, in numpy's shuffled
    order."""
    rows = {}
    with deadline(60):
        for path in _paths():
            with _on_path(path):
                rows[path] = LdpcPrecode(k, seed=seed)._assignments
    assert all(np.array_equal(r, rows["numpy"]) for r in rows.values())


@pytest.mark.parametrize("n, size", [(1, 1), (5, 5), (15000, 4),
                                     (15000, 300)])
def test_choice_draws_match_numpy(n, size):
    """The C draws on both sides of numpy's n > 10000 cut-over, up to the
    largest size it still serves by the Floyd loop."""
    lib = ckernels.load()
    if lib is None:
        pytest.skip("compiled kernels unavailable here")
    want_rng, got_rng = np.random.default_rng(5), np.random.default_rng(5)
    want = [want_rng.choice(n, size=size, replace=False) for _ in range(40)]
    got = ckernels.choice_draw(lib, got_rng, n, size, 40)
    assert np.array_equal(got, np.array(want).reshape(40, size))
    assert got_rng.bit_generator.state == want_rng.bit_generator.state

class TestPrecode:
    def test_rate(self):
        p = LdpcPrecode(k=950, rate=0.95)
        assert p.n_intermediate == 1000
        assert p.n_parity == 50

    def test_systematic(self):
        p = LdpcPrecode(k=100, seed=1)
        rng = np.random.default_rng(0)
        msg = rng.integers(0, 2, size=100, dtype=np.uint8)
        inter = p.encode(msg)
        assert np.array_equal(inter[:100], msg)

    def test_satisfied(self):
        p = LdpcPrecode(k=100, seed=2)
        rng = np.random.default_rng(1)
        inter = p.encode(rng.integers(0, 2, size=100, dtype=np.uint8))
        assert p.satisfied(inter)
        inter[3] ^= 1
        assert not p.satisfied(inter)

    def test_check_edges_cover_left_degree(self):
        p = LdpcPrecode(k=200, left_degree=4, seed=3)
        checks, vars_ = p.check_edges()
        msg_edges = (vars_ < 200).sum()
        assert msg_edges == 200 * 4
        parity_edges = (vars_ >= 200).sum()
        assert parity_edges == p.n_parity

    def test_too_short_message(self):
        with pytest.raises(ValueError):
            LdpcPrecode(k=10, rate=0.95)


class TestRaptorCodec:
    def test_noiseless_roundtrip(self):
        codec = RaptorCodec(k=256, constellation="qam-16", lt_seed=1)
        rng = np.random.default_rng(0)
        msg = rng.integers(0, 2, size=256, dtype=np.uint8)
        inter = codec.encode_intermediate(msg)
        n_sym = 120  # 480 bits for 270 intermediate: ample overhead
        y = codec.symbols(inter, 0, n_sym)
        llrs = soft_demap(codec.constellation, y, 1e-4)
        decoded, converged = codec.decode(llrs, iterations=30)
        assert converged
        assert np.array_equal(decoded, msg)

    def test_prefix_graphs_match_fresh_ones(self):
        """A graph masked out of a larger one is the graph a fresh codec
        builds, down to the order each variable sums its edges in."""
        grown = RaptorCodec(k=256, constellation="qam-16", lt_seed=3)
        grown._graph(90)
        for n in (0, 1, 40, 89, 90):
            fresh = RaptorCodec(k=256, constellation="qam-16", lt_seed=3)
            a, b = grown._graph(n), fresh._graph(n)
            for name in ("check_index", "var_index", "_to_var_order"):
                assert np.array_equal(getattr(a, name), getattr(b, name))
            # by variable; within one, its LT edges (stored after the
            # precode's) come first, each group in edge order
            edge = np.arange(a.n_edges)
            is_pc = edge < grown._pc_vars.size
            assert np.array_equal(a._to_var_order,
                                  np.lexsort((edge, is_pc, a.var_index)))

    @pytest.mark.parametrize("k, key", [
        (243, np.uint8), (244, np.uint16),          # n_intermediate - 1:
        (62259, np.uint16), (62260, np.uint32)])    # 255, 256, 65535, 65536
    def test_graph_order_on_narrow_keys(self, k, key):
        """The variable order sorted on the narrowest unsigned keys is the
        int64 stable sort's: by variable, LT edges (stored after the
        precode's) first, each group in edge order."""
        codec = RaptorCodec(k=k, constellation="qam-16", lt_seed=5)
        assert np.min_scalar_type(codec.precode.n_intermediate - 1) == key
        for n in (6, 2):
            graph = codec._graph(n)
            edge = np.arange(graph.n_edges)
            is_pc = edge < codec._pc_vars.size
            assert np.array_equal(
                graph._to_var_order,
                np.lexsort((edge, is_pc, graph.var_index.astype(np.int64))))

    def test_noisy_roundtrip(self):
        codec = RaptorCodec(k=256, constellation="qam-16", lt_seed=2)
        rng = np.random.default_rng(1)
        msg = rng.integers(0, 2, size=256, dtype=np.uint8)
        inter = codec.encode_intermediate(msg)
        ch = AWGNChannel(12, rng=3)
        y = ch.transmit(codec.symbols(inter, 0, 160)).values
        llrs = soft_demap(codec.constellation, y, ch.noise_power)
        decoded, _ = codec.decode(llrs, iterations=40)
        assert np.array_equal(decoded, msg)

    def test_insufficient_symbols_fail(self):
        codec = RaptorCodec(k=256, constellation="qam-16", lt_seed=4)
        rng = np.random.default_rng(2)
        msg = rng.integers(0, 2, size=256, dtype=np.uint8)
        inter = codec.encode_intermediate(msg)
        y = codec.symbols(inter, 0, 30)  # 120 bits << 256
        llrs = soft_demap(codec.constellation, y, 1e-4)
        decoded, _ = codec.decode(llrs, iterations=20)
        assert not np.array_equal(decoded, msg)

    # Hard bits and precode-satisfied flag of a small seeded code (k=64,
    # qam-16), pinned from the reference decoder: two failures, one of
    # them 8 bits off, and one success.
    GOLDEN = {
        (10.0, 30): ("00010000111110010011001001101000"
                     "11011101110000000110110000011100", False),
        (10.0, 40): ("01000110000111100001111111011000"
                     "11001010001010110101000000111100", True),
        (14.0, 24): ("01001010000110000001111011011001"
                     "11001010011010110101010000111100", False),
    }

    @pytest.mark.parametrize("snr_db, n_symbols", sorted(GOLDEN))
    def test_literal_decode(self, snr_db, n_symbols):
        codec = RaptorCodec(64, "qam-16", lt_seed=3, precode_seed=5)
        msg = np.random.default_rng(11).integers(0, 2, size=64,
                                                 dtype=np.uint8)
        inter = codec.encode_intermediate(msg)
        ch = AWGNChannel(snr_db, rng=4)
        y = ch.transmit(codec.symbols(inter, 0, n_symbols)).values
        llrs = soft_demap(codec.constellation, y, ch.noise_power)
        bits, satisfied = codec.decode(llrs)
        want_bits, want_satisfied = self.GOLDEN[snr_db, n_symbols]
        assert "".join(map(str, bits.tolist())) == want_bits
        assert satisfied is want_satisfied

    def test_decode_graph_arrives_sorted(self):
        """LT edges then presorted precode edges: BP needs no lexsort."""
        codec = RaptorCodec(64, "qam-16", lt_seed=3, precode_seed=5)
        checks, vars_ = codec._pc_checks, codec._pc_vars
        assert np.array_equal(np.lexsort((vars_, checks)),
                              np.arange(checks.size))


class TestRaptorScheme:
    def test_rate_reasonable_at_high_snr(self):
        scheme = RaptorScheme(k=512, constellation="qam-64")
        m = measure_scheme(
            scheme, lambda rng: AWGNChannel(20, rng=rng), 20,
            n_messages=2, seed=0,
        )
        assert m.n_success == 2
        assert 2.0 < m.rate <= 6.0

    def test_rate_increases_with_snr(self):
        lo = measure_scheme(
            RaptorScheme(k=512), lambda rng: AWGNChannel(6, rng=rng), 6,
            n_messages=2, seed=1,
        )
        hi = measure_scheme(
            RaptorScheme(k=512), lambda rng: AWGNChannel(22, rng=rng), 22,
            n_messages=2, seed=1,
        )
        assert hi.rate > lo.rate
