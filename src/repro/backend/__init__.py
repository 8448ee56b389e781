"""Array-kernel backend registry: who executes the decode hot loop.

The decoder's three hot kernel families — spine hashes, branch costs,
beam selection — live behind an explicit :class:`~repro.backend.base.Backend`
object.  This module owns *which* backend is active:

- ``numpy`` (default): runs the spine hashes and branch costs on the
  compiled C kernels of :mod:`repro.backend.ckernels` where they build,
  and on its numpy bodies otherwise.  Those bodies are the fallback and
  the reference implementation, the bit-exactness contract every other
  path is tested against.  The name stays ``numpy`` because the results
  are the reference's bit for bit;
- ``numba``: JIT-compiled fused loops; optional dependency (the
  ``[numba]`` extra), falling back to numpy with a one-time
  :class:`BackendFallbackWarning` when numba is absent.

Selection precedence: an explicit :func:`set_backend` call (the
experiments CLI ``--backend`` flag lands here) beats the
``REPRO_BACKEND`` environment variable, which beats the ``numpy``
default.  ``set_backend`` also writes ``REPRO_BACKEND`` so worker
processes spawned afterwards resolve the same backend.

Because every backend is bit-identical by contract, the choice never
changes results — store files are byte-identical across backends (the CI
numba leg diffs two freshly built stores to prove it) — only wall time
and the ``backend`` field recorded in ``--metrics`` / ``BENCH_*``
artifacts.

This module stays import-light (no kernel imports at module scope):
``core/hashes.py`` imports :mod:`repro.backend.u32`, and the concrete
backends import ``core/hashes.py`` back for the reference kernels, so
backend construction is deferred into the lazy factories below.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Iterator

from repro.backend.base import Backend, BackendFallbackWarning

__all__ = [
    "Backend",
    "BackendFallbackWarning",
    "ENV_VAR",
    "available_backends",
    "get_backend",
    "reset_backend",
    "set_backend",
    "use_backend",
]

ENV_VAR = "REPRO_BACKEND"

_BACKEND_NAMES = ("numpy", "numba")

_active: Backend | None = None


def available_backends() -> tuple[str, ...]:
    """Names accepted by :func:`set_backend` / ``REPRO_BACKEND``."""
    return _BACKEND_NAMES


def _build(name: str) -> Backend:
    if name == "numpy":
        from repro.backend import numpy_backend

        return numpy_backend.make_backend()
    if name == "numba":
        from repro.backend import numba_backend

        return numba_backend.make_backend()
    raise ValueError(
        f"unknown backend {name!r}; available: {sorted(_BACKEND_NAMES)}"
    )


def set_backend(name: str) -> Backend:
    """Activate a backend by name and return it.

    Also exports ``REPRO_BACKEND`` so subsequently spawned worker
    processes resolve the same backend.  Note the returned backend's
    ``name`` may differ from the request when a fallback fires (numba
    absent -> numpy); the *resolved* name is what gets exported and
    recorded in metrics.
    """
    global _active
    _active = _build(str(name))
    os.environ[ENV_VAR] = _active.name
    return _active


def get_backend() -> Backend:
    """The active backend, resolving ``$REPRO_BACKEND`` (default numpy) lazily."""
    global _active
    if _active is None:
        _active = _build(os.environ.get(ENV_VAR, "numpy"))
    return _active


def reset_backend() -> None:
    """Drop the active backend so the next :func:`get_backend` re-resolves."""
    global _active
    _active = None


@contextmanager
def use_backend(name: str) -> Iterator[Backend]:
    """Temporarily activate a backend (tests, side-by-side benchmarks)."""
    global _active
    prev = _active
    prev_env = os.environ.get(ENV_VAR)
    try:
        yield set_backend(name)
    finally:
        _active = prev
        if prev_env is None:
            os.environ.pop(ENV_VAR, None)
        else:
            os.environ[ENV_VAR] = prev_env
