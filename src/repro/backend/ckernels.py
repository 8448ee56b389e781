"""Compiled C kernels: built by cffi on first use, cached per user.

``kernels.c`` beside this module holds exact-arithmetic loops that must
match the numpy code they replace bit for bit (its header comment gives
the rules): Strider's BCJR recursion, the spine hashes and the fused
spinal branch costs, each behind a checked wrapper below.  :func:`load`
compiles it in cffi's API mode on the first call in a process and returns
the extension module, or ``None`` when no compiler, cffi or writable
cache is available.  That case is announced once per process with a
:class:`BackendFallbackWarning`, and callers run their numpy loops
instead.

The build lands in :data:`CACHE_ROOT` under a module name keyed by a hash
of the C source, the compile flags and the Python ABI, so a changed
source or interpreter never loads a stale binary.  Builds run in a
temporary directory and are moved into place with ``os.replace`` while an
``fcntl`` lock on the key is held, so pool workers racing on a cold cache
build once and never load a half-written file.  A cached file that does
not match the SHA-256 digest stored beside it (truncated, say), or that
fails to load, is rebuilt.
"""

from __future__ import annotations

import fcntl
import hashlib
import importlib.util
import os
import shutil
import sys
import sysconfig
import tempfile
import warnings
from types import ModuleType

import numpy as np

from repro.backend.base import BackendFallbackWarning

__all__ = ["CACHE_ROOT", "bcjr_recursion", "branch_costs", "build_or_load",
           "load", "module_path", "spine_hash"]

#: Where built modules are cached (per key: the module, its digest and a
#: lock file).
CACHE_ROOT = os.path.join(os.path.expanduser("~"), ".cache", "repro-spinal")

_SOURCE_PATH = os.path.join(os.path.dirname(__file__), "kernels.c")
_CDEF = """
void bcjr_recursion(const double *slab, const int64_t *gather, double *rows,
                    int64_t t_len, int64_t n_states, double lowest);
void spine_hash(int hash_id, const uint32_t *states, int64_t s_step,
                const uint32_t *datas, uint32_t *out, int64_t rows,
                int64_t cols);
void branch_costs(int hash_id, int metric, const uint32_t *states,
                  int64_t n_msgs, int64_t n_states, const uint32_t *slots,
                  int64_t n_slots, const double *values, const double *csi,
                  const double *levels, int c, double *out);
"""
#: Optimise (``-O3`` vectorises the hash loops, 2-3x over ``-O2``; its
#: loop splitting slowed the BCJR recursion by 15-50%, so that is off), but
#: never contract a*b+c into a fused multiply-add.  Extra
#: arguments come last on the compiler's command line, so
#: ``-fno-fast-math`` undoes a fast-math inherited from Python's own CFLAGS
#: or the environment, which would fold the kernel's ``a != a`` NaN tests.
_FLAGS = ("-O3", "-fno-split-loops", "-ffp-contract=off", "-fno-fast-math")

#: The spine hashes of ``kernels.c`` by :mod:`repro.core.hashes` name.
_HASH_IDS = {"one_at_a_time": 0, "lookup3": 1, "salsa20": 2}
_METRIC_AWGN, _METRIC_CSI, _METRIC_BSC = 0, 1, 2

_tried = False
_module: ModuleType | None = None


def _module_name() -> str:
    """Extension module name for the current source, flags and ABI."""
    import _cffi_backend

    with open(_SOURCE_PATH, "rb") as f:
        source = f.read()
    key = hashlib.sha256()
    for part in (source, _CDEF.encode(), " ".join(_FLAGS).encode(),
                 str(sysconfig.get_config_var("EXT_SUFFIX")).encode(),
                 sys.implementation.cache_tag.encode(),
                 _cffi_backend.__version__.encode()):
        key.update(part)
        key.update(b"\0")
    return f"_repro_kernels_{key.hexdigest()[:16]}"


def module_path(root: str) -> str:
    """Path of the built module for the current key under ``root``."""
    return os.path.join(
        root, _module_name() + str(sysconfig.get_config_var("EXT_SUFFIX")))


def _import(name: str, path: str) -> ModuleType:
    spec = importlib.util.spec_from_file_location(name, path)
    if spec is None or spec.loader is None:
        raise ImportError(f"cannot load {path}")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _digest(path: str) -> str:
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def _build(name: str, path: str, root: str) -> None:
    """Compile into a temporary directory, then move the module and its
    digest into place."""
    import cffi

    ffi = cffi.FFI()
    ffi.cdef(_CDEF)
    with open(_SOURCE_PATH) as f:
        ffi.set_source(name, f.read(), extra_compile_args=list(_FLAGS))
    tmp = tempfile.mkdtemp(prefix=f"{name}.", dir=root)
    try:
        built = ffi.compile(tmpdir=tmp)
        with open(os.path.join(tmp, "sha256"), "w") as f:
            f.write(_digest(built))
        os.replace(built, path)
        os.replace(os.path.join(tmp, "sha256"), path + ".sha256")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def _intact(path: str) -> bool:
    """Whether the cached module matches the digest written beside it: a
    truncated file can still load and then fault when its cut pages are
    touched."""
    try:
        with open(path + ".sha256") as f:
            return f.read() == _digest(path)
    except FileNotFoundError:
        return False


def build_or_load(root: str) -> ModuleType:
    """Load the kernels built under ``root``, building them first if the
    cached file is missing, damaged or does not load.  Raises on failure."""
    name = _module_name()
    path = module_path(root)
    os.makedirs(root, exist_ok=True)
    with open(os.path.join(root, name + ".lock"), "a") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if _intact(path):
            try:
                return _import(name, path)
            except ImportError:
                pass  # a file this interpreter cannot load: rebuild it
        _build(name, path, root)
        return _import(name, path)


def load() -> ModuleType | None:
    """The compiled kernels, or ``None`` after one fallback warning.

    The outcome is remembered for the life of the process.  Any failure
    falls back: a missing cffi, compiler or cache directory raises
    ``ImportError``, ``OSError`` or ``VerificationError``, but cffi without
    setuptools or distutils raises a bare ``Exception``.
    """
    global _module, _tried
    if not _tried:
        _tried = True
        try:
            _module = build_or_load(CACHE_ROOT)
        except Exception as exc:
            warnings.warn(
                f"compiled kernels unavailable ({type(exc).__name__}: "
                f"{exc}); running the numpy loops instead",
                BackendFallbackWarning, stacklevel=2)
    return _module


def bcjr_recursion(module: ModuleType, slab: np.ndarray, gather: np.ndarray,
                   rows: np.ndarray, lowest: float) -> None:
    """Run the fused BCJR recursion of ``kernels.c`` over ``rows`` in place.

    Shapes, dtypes, contiguity and gather bounds are checked here, before
    any pointer reaches C; a bad call raises ``ValueError``.
    """
    if not (isinstance(slab, np.ndarray) and isinstance(gather, np.ndarray)
            and isinstance(rows, np.ndarray)):
        raise ValueError("bcjr_recursion takes numpy arrays")
    if (slab.dtype != np.float64 or rows.dtype != np.float64
            or gather.dtype != np.int64):
        raise ValueError(
            "bcjr_recursion needs float64 slab and rows and int64 gather, "
            f"got {slab.dtype}, {rows.dtype} and {gather.dtype}")
    if not (slab.flags.c_contiguous and gather.flags.c_contiguous
            and rows.flags.c_contiguous and rows.flags.writeable):
        raise ValueError("bcjr_recursion needs C-contiguous arrays and "
                         "writeable rows")
    if rows.ndim != 2 or rows.shape[0] < 1 or rows.shape[1] < 2 \
            or rows.shape[1] % 2:
        raise ValueError(f"rows must be (T + 1, 2 * S), S >= 1, got "
                         f"{rows.shape}")
    t_len, width = rows.shape[0] - 1, rows.shape[1]
    if slab.shape != (t_len, 2, width) or gather.shape != (2, width):
        raise ValueError(
            f"slab {slab.shape} and gather {gather.shape} do not fit rows "
            f"{rows.shape}: need ({t_len}, 2, {width}) and (2, {width})")
    if gather.min() < 0 or gather.max() >= width:
        raise ValueError(f"gather indices must lie in [0, {width})")
    ffi = module.ffi
    module.lib.bcjr_recursion(
        ffi.from_buffer("double[]", slab),
        ffi.from_buffer("int64_t[]", gather),
        ffi.from_buffer("double[]", rows, require_writable=True),
        t_len, width // 2, lowest)


def spine_hash(module: ModuleType, hash_name: str, state: np.ndarray,
               data: np.ndarray) -> np.ndarray:
    """``h(state, data)`` of :mod:`repro.core.hashes` on the compiled kernel.

    Broadcasts like the numpy hashes and returns a new uint32 array of the
    broadcast shape (0-d for scalar operands).  The decoder's tree
    expansion ``h(leaves[..., None], edges)``, a last axis of one against
    a flat data vector, runs as rows of one state against every data word,
    so no operand is copied out to the full shape; any other broadcast is
    materialised first.
    """
    if hash_name not in _HASH_IDS:
        raise ValueError(f"unknown hash {hash_name!r}; compiled: "
                         f"{sorted(_HASH_IDS)}")
    state = np.asarray(state, dtype=np.uint32)
    data = np.asarray(data, dtype=np.uint32)
    if state.shape[-1:] == (1,) and data.ndim == 1:
        # one state per row, hashed against every data word
        out = np.empty(state.shape[:-1] + data.shape, dtype=np.uint32)
        rows, s_step = state.size, 0
    else:
        shape = np.broadcast_shapes(state.shape, data.shape)
        state = np.broadcast_to(state, shape)
        data = np.broadcast_to(data, shape)
        out = np.empty(shape, dtype=np.uint32)
        rows, s_step = 1, 1
    if out.size == 0:
        return out
    state = np.require(state, requirements="CA")
    data = np.require(data, requirements="CA")
    ffi = module.ffi
    module.lib.spine_hash(
        _HASH_IDS[hash_name], ffi.from_buffer("uint32_t[]", state), s_step,
        ffi.from_buffer("uint32_t[]", data),
        ffi.from_buffer("uint32_t[]", out, require_writable=True), rows,
        out.size // rows)
    return out


def branch_costs(module: ModuleType, states: np.ndarray, slots: np.ndarray,
                 values: np.ndarray, csi: np.ndarray | None, *,
                 hash_name: str, levels: np.ndarray, c: int,
                 is_bsc: bool) -> np.ndarray:
    """The fused hash and branch-cost kernel of ``kernels.c``.

    Same arguments and result as
    :func:`repro.backend.numpy_backend.branch_costs_batch`, but strict:
    ``states`` (M, n) uint32, ``slots`` (s,) uint32 with s >= 1,
    ``values`` (M, s) complex128 (float64 for BSC), ``csi`` None or
    (M, s) complex128 (never with BSC), 1 <= c <= 16 and ``levels`` float64
    with exactly ``2^c`` entries (BSC reads no levels), all C-contiguous.
    Anything else raises ``ValueError`` before a pointer reaches C, which
    indexes ``levels`` by ``c``-bit fields of the hash words.
    """
    if hash_name not in _HASH_IDS:
        raise ValueError(f"unknown hash {hash_name!r}; compiled: "
                         f"{sorted(_HASH_IDS)}")
    arrays = (states, slots, values, levels) + (() if csi is None else (csi,))
    if not all(isinstance(a, np.ndarray) for a in arrays):
        raise ValueError("branch_costs takes numpy arrays")
    if not all(a.flags.c_contiguous for a in arrays):
        raise ValueError("branch_costs needs C-contiguous arrays")
    value_dtype = np.float64 if is_bsc else np.complex128
    if (states.dtype != np.uint32 or slots.dtype != np.uint32
            or values.dtype != value_dtype or levels.dtype != np.float64
            or (csi is not None and csi.dtype != np.complex128)):
        raise ValueError(
            "branch_costs needs uint32 states and slots, "
            f"{value_dtype.__name__} values, complex128 csi and float64 "
            "levels")
    if states.ndim != 2 or slots.ndim != 1 or slots.size < 1:
        raise ValueError(f"states must be (M, n) and slots (s,), s >= 1, got "
                         f"{states.shape} and {slots.shape}")
    want = (states.shape[0], slots.size)
    if values.shape != want or (csi is not None and csi.shape != want):
        raise ValueError(f"values and csi must be {want}")
    if is_bsc and csi is not None:
        raise ValueError("the BSC metric takes no csi")
    if not (isinstance(c, (int, np.integer)) and 1 <= c <= 16) or (
            not is_bsc and levels.shape != (1 << int(c),)):
        raise ValueError(f"levels must have 2^c entries, 1 <= c <= 16; got "
                         f"c={c!r} and levels of shape {levels.shape}")
    metric = (_METRIC_BSC if is_bsc
              else _METRIC_AWGN if csi is None else _METRIC_CSI)
    out = np.empty(states.shape, dtype=np.float64)
    ffi = module.ffi
    module.lib.branch_costs(
        _HASH_IDS[hash_name], metric,
        ffi.from_buffer("uint32_t[]", states), states.shape[0],
        states.shape[1], ffi.from_buffer("uint32_t[]", slots), slots.size,
        ffi.from_buffer("double[]", values),
        ffi.NULL if csi is None else ffi.from_buffer("double[]", csi),
        ffi.from_buffer("double[]", levels), int(c),
        ffi.from_buffer("double[]", out, require_writable=True))
    return out
