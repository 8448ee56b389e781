"""Hash functions used to build the spine (paper §3.2, §7.1).

The paper requires a pairwise-independent-style hash ``h`` mapping a ν-bit
state plus k message bits to a new ν-bit state.  Its implementation fixes
ν = 32 and evaluates three concrete functions (§7.1):

- Jenkins *one-at-a-time* — the one used for all experiments (cheapest);
- Jenkins *lookup3*;
- the *Salsa20* core, a cryptographic-strength mixer.

The paper reports no measurable performance difference between them, a claim
the ``ablation_hash`` experiment re-checks.

All three are implemented here with one unified signature::

    h(state: uint32 ndarray, data: uint32 ndarray) -> uint32 ndarray

where ``data`` carries either the k message bits of an edge (spine
construction) or a symbol index (RNG use, see :mod:`repro.core.rng`).  The
implementations are fully vectorised: the bubble decoder hashes beams of
thousands of candidate states per call, so every operation is an elementwise
numpy ``uint32`` op with natural mod-2^32 wrap-around.

These are the **reference** kernels — the bit-exactness contract of the
decode kernels (:mod:`repro.backend`).  :func:`get_hash` returns the
compiled C hash where it built and the reference otherwise, bit for bit
the same words; :func:`reference_hashes` always returns the numpy
implementations below.
"""

from __future__ import annotations

import numpy as np

from repro.backend import HashFn, hash_kernel

__all__ = [
    "one_at_a_time",
    "lookup3",
    "salsa20",
    "get_hash",
    "available_hashes",
    "reference_hashes",
    "HashFn",
]

_U32 = np.uint32
_MASK8 = _U32(0xFF)


def _as_u32(x: np.ndarray | int) -> np.ndarray:
    """Coerce to a uint32 ndarray (scalars become 0-d arrays)."""
    return np.asarray(x, dtype=np.uint32)


def _rotl32(x: np.ndarray, k: int, out: np.ndarray,
            scratch: np.ndarray) -> np.ndarray:
    """32-bit left rotation ``(x << k) | (x >> (32 - k))`` into ``out``.

    ``scratch`` takes the right shift.  ``x`` is never modified, unless the
    caller passes ``scratch is x`` because it no longer needs ``x``, which
    is legal: the left shift reads ``x`` before the right shift overwrites
    it.
    """
    np.left_shift(x, _U32(k), out=out)
    np.right_shift(x, _U32(32 - k), out=scratch)
    np.bitwise_or(out, scratch, out=out)
    return out


def _oaat_mix(h: np.ndarray, scratch: np.ndarray) -> None:
    """One-at-a-time byte mixing ``h += h << 10; h ^= h >> 6``, in place."""
    h *= _U32(1 + (1 << 10))
    np.right_shift(h, _U32(6), out=scratch)
    h ^= scratch


def one_at_a_time(state: np.ndarray, data: np.ndarray) -> np.ndarray:
    """Jenkins one-at-a-time hash of (state, data), 4+4 little-endian bytes.

    This is the hash used in the paper's software implementation and FPGA
    prototype: "6 XORs, 15 bit shifts and 10 additions per application".

    The decoder hashes a few distinct operands against many:
    ``h(states[None, :], slots[:, None])`` for branch costs and
    ``h(leaf_states[..., None], edges)`` for tree expansion.  So the state
    is absorbed first, and its four byte rounds run at the state's own
    shape; only the first data byte's add widens ``h`` to the broadcast
    shape, where the four data rounds and the finish run.  Each
    ``h += h << n`` is written ``h *= 2^n + 1``: one pass instead of two,
    and exact, because uint32 multiplication wraps mod 2^32 just as the
    shift-and-add does.  The rounds run in place over a scratch buffer of
    each shape, so a call makes ~20 output-sized passes rather than ~46.
    """
    state = _as_u32(state)
    data = _as_u32(data)
    h = np.zeros((), dtype=np.uint32)
    for word in (state, data):
        # Each word's first byte add widens h (0 at the start): to the
        # state's shape for the state, to the output shape for the data.
        shape = np.broadcast_shapes(h.shape, word.shape)
        h = np.add(h, word & _MASK8, out=np.empty(shape, dtype=np.uint32))
        scratch = np.empty_like(h)
        _oaat_mix(h, scratch)
        for shift in (8, 16, 24):
            h += (word >> _U32(shift)) & _MASK8
            _oaat_mix(h, scratch)
    h *= _U32(1 + (1 << 3))
    np.right_shift(h, _U32(11), out=scratch)
    h ^= scratch
    h *= _U32(1 + (1 << 15))
    return h


def lookup3(state: np.ndarray, data: np.ndarray) -> np.ndarray:
    """Jenkins lookup3 ``hashword`` applied to the two words (state, data).

    Like :func:`one_at_a_time`, the mixing runs in place over two scratch
    buffers (each ``x = (x ^ y) - rot(y, k)`` step of ``final()`` would
    otherwise allocate three full-size temporaries).  uint32 arithmetic is
    exact — results are unchanged.
    """
    state = _as_u32(state)
    data = _as_u32(data)
    init = _U32(0xDEADBEEF + (2 << 2))
    shape = np.broadcast(state, data).shape
    a = np.full(shape, init, dtype=np.uint32)
    a += state
    b = np.full(shape, init, dtype=np.uint32)
    b += data
    c = np.full(shape, init, dtype=np.uint32)
    rot = np.empty(shape, dtype=np.uint32)
    scratch = np.empty(shape, dtype=np.uint32)

    def mix(x: np.ndarray, y: np.ndarray, k: int) -> None:
        """x = (x ^ y) - rot(y, k), in place (y is never modified)."""
        _rotl32(y, k, rot, scratch)
        x ^= y
        x -= rot

    # final(a, b, c)
    mix(c, b, 14)
    mix(a, c, 11)
    mix(b, a, 25)
    mix(c, b, 16)
    mix(a, c, 4)
    mix(b, a, 14)
    mix(c, b, 24)
    return c


# Salsa20 "expand 32-byte k" diagonal constants.
_SALSA_CONST = (0x61707865, 0x3320646E, 0x79622D32, 0x6B206574)

# (a, b, c, d) index quadruples for one double round.
_SALSA_ROUNDS = (
    # column round
    (0, 4, 8, 12), (5, 9, 13, 1), (10, 14, 2, 6), (15, 3, 7, 11),
    # row round
    (0, 1, 2, 3), (5, 6, 7, 4), (10, 11, 8, 9), (15, 12, 13, 14),
)


def salsa20(state: np.ndarray, data: np.ndarray, rounds: int = 20) -> np.ndarray:
    """Salsa20 core as a (state, data) -> word mixer.

    The 16-word input block holds the Salsa20 constants on the diagonal, the
    spine state in word 1 and the data word in word 2 (remaining words zero);
    the output is word 0 of the usual feed-forward sum.  This matches the
    paper's use of Salsa20 purely as a strong mixing function.

    The quarter-round updates run in place over two scratch buffers: at 20
    rounds the expression form allocates ~480 full-size temporaries per
    call, which dominates the cost on beam-sized inputs.  uint32 arithmetic
    is exact — results are unchanged.
    """
    state = _as_u32(state)
    data = _as_u32(data)
    shape = np.broadcast(state, data).shape
    x = [np.zeros(shape, dtype=np.uint32) for _ in range(16)]
    for pos, const in zip((0, 5, 10, 15), _SALSA_CONST):
        x[pos][...] = const
    x[1] += state
    x[2] += data
    orig0 = x[0].copy()
    orig1 = x[1].copy()
    rot = np.empty(shape, dtype=np.uint32)
    scratch = np.empty(shape, dtype=np.uint32)

    def quarter(xt: np.ndarray, u: np.ndarray, v: np.ndarray, k: int) -> None:
        """xt ^= rot(u + v, k), in place (u and v are never modified)."""
        np.add(u, v, out=scratch)
        # scratch doubles as the rotate's right-shift buffer — legal
        # because the left shift reads it first (see _rotl32).
        _rotl32(scratch, k, rot, scratch)
        xt ^= rot

    for _ in range(rounds // 2):
        for a, b, c, d in _SALSA_ROUNDS:
            quarter(x[b], x[a], x[d], 7)
            quarter(x[c], x[b], x[a], 9)
            quarter(x[d], x[c], x[b], 13)
            quarter(x[a], x[d], x[c], 18)
    # Feed-forward on the two words we consume keeps this non-invertible.
    x[0] += orig0
    x[1] += orig1
    x[0] ^= x[1]
    return x[0]


_REGISTRY: dict[str, HashFn] = {
    "one_at_a_time": one_at_a_time,
    "lookup3": lookup3,
    "salsa20": salsa20,
}


def available_hashes() -> tuple[str, ...]:
    """Names accepted by :func:`get_hash`."""
    return tuple(_REGISTRY)


def reference_hashes() -> dict[str, HashFn]:
    """The numpy reference implementations, by name.

    This is the bit-exactness contract of the compiled hashes: they must
    reproduce these words exactly (``tests/test_backend.py`` pins golden
    vectors and compiled-vs-reference equality against them).
    """
    return dict(_REGISTRY)


def get_hash(name: str) -> HashFn:
    """The kernel for a hash (see :func:`available_hashes`).

    :func:`repro.backend.hash_kernel`: a wrapper that runs the compiled C
    hash where it built and the reference function otherwise.
    """
    if name not in _REGISTRY:
        raise ValueError(
            f"unknown hash {name!r}; available: {sorted(_REGISTRY)}"
        )
    return hash_kernel(name)
