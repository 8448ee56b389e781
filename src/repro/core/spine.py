"""Spine construction (paper §3.1, Figure 3-1).

The spine is the sequence of ν-bit states obtained by hashing k-bit message
chunks sequentially::

    s_i = h(s_{i-1}, m̄_i),     s_0 known to both ends.

Because each state depends on *all* preceding message bits, the code's
"constraint length" reaches back to the start of the message — the property
that makes tree decoding work.
"""

from __future__ import annotations

import numpy as np

from repro.backend import ckernels
from repro.core.hashes import HashFn

__all__ = ["spine_states_batch"]


def spine_states_batch(
    hash_fn: HashFn, k: int, messages: np.ndarray, s0: int = 0
) -> np.ndarray:
    """Spines of M equal-length messages in one pass: ``(M, n/k)`` uint32.

    For a hash of :func:`repro.core.hashes.get_hash` (it carries its
    ``hash_name``) the whole chain is one C call,
    :func:`repro.backend.ckernels.spine_chain`, wherever the kernels
    build.  Otherwise (any other hash function, such as a reference hash,
    or no kernels) one hash call per spine step covers the whole batch,
    so building M spines costs the same number of numpy calls as
    building one.  Both give the same words, and each row depends only on
    its own message.
    """
    messages = np.atleast_2d(np.asarray(messages, dtype=np.uint8))
    n_msgs, n_bits = messages.shape
    if n_bits % k:
        raise ValueError(f"bit count {n_bits} not divisible by k={k}")
    name = getattr(hash_fn, "hash_name", None)
    kernels = ckernels.load() if name is not None else None
    if kernels is not None:
        return ckernels.spine_chain(kernels, name, k,
                                    np.ascontiguousarray(messages), s0)
    weights = (1 << np.arange(k - 1, -1, -1)).astype(np.uint32)
    chunks = (
        messages.reshape(n_msgs, -1, k).astype(np.uint32) * weights
    ).sum(axis=2, dtype=np.uint32)
    states = np.empty((n_msgs, n_bits // k), dtype=np.uint32)
    s = np.full(n_msgs, s0, dtype=np.uint32)
    for i in range(n_bits // k):
        s = hash_fn(s, chunks[:, i])
        states[:, i] = s
    return states
