"""Compiled C kernels: built by cffi on first use, cached per user.

``kernels.c`` beside this module holds exact-arithmetic loops that must
match the numpy code they replace bit for bit (its header comment gives
the rules): Strider's max-log BCJR decode (:class:`BcjrDecoder`), the
spine hashes (:func:`spine_hash`) and the whole spine chain
(:func:`spine_chain`), the bubble search (:class:`SpinalPasses`, whose
``search`` is one C call for the whole search, survivor selection by
numpy's own ``argpartition`` through numpy's C API included, and one for
the backtrack to every message's bits), BP's exact passes
(:class:`BpPasses`) and the LT and precode draws, each behind a checked
wrapper below.  The draws call
numpy's own bounded-integer code, linked from numpy's ``libnpyrandom``
static library, on the caller's generator.  :func:`load`
compiles it in cffi's API mode, for the host CPU (``-march=native``) where
the compiler can name it, with hardware gathers switched on for the
targets :func:`_gathers_fast` names, on the first call in a process and
returns
the extension module, or ``None`` when no compiler, cffi or writable
cache is available.  That case is announced once per process with a
:class:`BackendFallbackWarning`, and callers run their numpy loops
instead.

The build lands in :data:`CACHE_ROOT` under a module name keyed by a hash
of the C source, the compile flags (the gather switch among them) and
macros, the CPU
target they resolve to, the
Python ABI and the cffi and numpy versions, so a changed source,
interpreter or numpy (whose library the module links) never loads a stale
binary, and a cache shared between hosts never loads another CPU's.
Builds run in a temporary directory and are moved into place with
``os.replace`` while an ``fcntl`` lock on the key is held, so pool workers racing on a cold cache
build once and never load a half-written file.  A cached file that does
not match the SHA-256 digest stored beside it (truncated, say), or that
fails to load, is rebuilt.
"""

from __future__ import annotations

import fcntl
import hashlib
import importlib.util
import os
import shlex
import shutil
import subprocess
import sys
import sysconfig
import tempfile
import warnings
from functools import cache, partial
from types import ModuleType

import numpy as np

from repro.obs import OBS

__all__ = ["CACHE_ROOT", "BcjrDecoder", "BpPasses", "SpinalPasses",
           "build_or_load", "choice_draw", "floyd_choice", "load", "lt_draw",
           "module_path", "spine_hash"]

#: Where built modules are cached (per key: the module, its digest and a
#: lock file).
CACHE_ROOT = os.path.join(os.path.expanduser("~"), ".cache", "repro-spinal")

_SOURCE_PATH = os.path.join(os.path.dirname(__file__), "kernels.c")
_CDEF = """
struct bcjr_trellis {
    int64_t n_states, n_branches, n_parity;
    const int64_t *gather, *slab, *from_state, *to_state, *by_input;
    const double *sys_sign, *par_sign;
    double lowest;
};
void bcjr_decode(const struct bcjr_trellis *tr, const double *sys,
                 const double *par, const double *apri, int64_t t_len,
                 int terminated, double *scratch, double *llr, double *ext);
void spine_hash(int hash_id, const uint32_t *states, int64_t s_step,
                const uint32_t *datas, uint32_t *out, int64_t rows,
                int64_t cols);
void spine_chain(int hash_id, const uint8_t *bits, int64_t n_msgs,
                 int64_t n_spine, int k, uint32_t s0, uint32_t *out);
struct spinal_search {
    int hash_id, metric, c, k;
    int64_t n_msgs, beam, group, n_steps;
    const uint32_t *edges;
    const double *levels;
    uint32_t *leaves;
    double *costs;
    uint32_t *children;
    double *totals;
    int32_t *history;
    int64_t *kept;
    const int64_t *every;
    double *minima;
    int64_t n_spine;
    const int64_t *counts;
    const uint32_t *slots;
    int64_t slot_step;
    const double *values;
    const double *csi;
    int64_t value_step, row_step;
    int64_t n_leaves, row;
    const void *sel;
    int64_t n_keep, sel_step;
    int timed;
    double hash_s, score_s, select_s;
};
int spinal_gather(struct spinal_search *s);
int spinal_expand(struct spinal_search *s, int64_t step);
int spinal_score(struct spinal_search *s, int64_t step);
int spinal_run(struct spinal_search *s, int64_t d, int64_t n_beam);
int spinal_backtrack(const struct spinal_search *s, const int64_t *best,
                     uint8_t *bits, int64_t n_bits);
void bp_magnitudes(double *edge, uint8_t *neg, int64_t n_edges,
                   double tanh_clip, double floor);
void bp_check_messages(const double *edge, const uint8_t *neg,
                       const int64_t *bounds, int64_t n_checks,
                       const double *obs_logmag, const uint8_t *obs_neg,
                       double *msg, uint8_t *msg_neg);
void bp_signed_clip(double *msg, const uint8_t *msg_neg, int64_t n_edges,
                    double tanh_clip, const double *signs);
void bp_variable_update(double *msg, const double *chan,
                        const int64_t *var_order, const int64_t *var_bounds,
                        int64_t n_vars, const int64_t *var_index,
                        int64_t n_edges, double llr_clip, double *scratch,
                        double *posterior, double *edge);
void choice_draw(void *bitgen, int64_t n, int64_t d, int64_t count,
                 int64_t *out);
void lt_draw(void *bitgen, int64_t n, int64_t count,
             const int64_t *thresholds, const int64_t *degrees,
             int64_t n_rows, int64_t *offsets, int64_t *flat);
"""
#: Optimise (``-O3`` vectorises the hash loops, 2-3x over ``-O2``; its
#: loop splitting slowed the BCJR recursion by 15-50%, so that is off), but
#: never contract a*b+c into a fused multiply-add.  Extra
#: arguments come last on the compiler's command line, so
#: ``-fno-fast-math`` undoes a fast-math inherited from Python's own CFLAGS
#: or the environment, which would fold the kernel's ``a != a`` NaN tests.
#: :func:`_build_flags` adds ``-march=native`` where the compiler resolves
#: it, and :data:`_GATHER_FLAG` after it where gathers are fast.
_FLAGS = ("-O3", "-fno-split-loops", "-ffp-contract=off", "-fno-fast-math")

#: The search's selection calls numpy's C API, whose import needs more of
#: Python's API than the limited API cffi builds against by default.  In
#: the module key, as the flags are.
_MACROS = (("_CFFI_NO_LIMITED_API", None),)

#: Lets gcc vectorise a table lookup such as ``levels[w & mask]`` into one
#: hardware gather rather than a scalar load per lane.  A gather loads the
#: same doubles the scalar loads would, so the results are unchanged.
_GATHER_FLAG = "-mtune-ctrl=use_gather,use_gather_2parts,use_gather_4parts"

#: The ``-march`` names whose gathers are fast in hardware: Intel's server
#: and client cores from Skylake on.  gcc's own tuning for each of them
#: decides gathers for itself; only when gcc cannot name the host's CPU
#: model and tunes ``-march=native`` for ``generic``, which leaves gathers
#: off, does :func:`_gathers_fast` turn them on.  gcc 12 resolves a KVM
#: guest on an Emerald Rapids host (family 6, model 207) to ``cooperlake``
#: tuned ``generic``; there gathers made the spinal branch-cost loops
#: 1.6-2.2x faster.  Zen 1 and 2 microcode their gathers, and gcc leaves
#: them off on the hybrid and Atom cores for speed, so those stay off.
_GATHER_TARGETS = frozenset((
    "skylake", "skylake-avx512", "cannonlake", "cascadelake", "cooperlake",
    "icelake-client", "icelake-server", "tigerlake", "rocketlake",
    "sapphirerapids", "emeraldrapids", "graniterapids"))

#: The spine hashes of ``kernels.c`` by :mod:`repro.core.hashes` name.
_HASH_IDS = {"one_at_a_time": 0, "lookup3": 1, "salsa20": 2}
_METRIC_AWGN, _METRIC_CSI, _METRIC_BSC = 0, 1, 2

#: The dtypes the received planes' checks compare against (a dtype
#: compares with a dtype faster than with a scalar type).
_INT64, _UINT32 = np.dtype(np.int64), np.dtype(np.uint32)
_UINT64 = np.dtype(np.uint64)
_UINT8 = np.dtype(np.uint8)
_FLOAT64, _COMPLEX128 = np.dtype(np.float64), np.dtype(np.complex128)

#: The factors ``bp_signed_clip`` multiplies by, indexed by a negative flag.
_SIGNS = np.array([1.0, -1.0])

_tried = False
_module: ModuleType | None = None


def _compiler() -> tuple[str, ...]:
    """The command cffi's build compiles with: ``$CC``, else Python's."""
    return tuple(shlex.split(os.environ.get("CC")
                             or sysconfig.get_config_var("CC") or "cc"))


def _host_cpu() -> str | None:
    """The host CPU as Linux describes its first processor (vendor,
    family, model, stepping, feature flags), without the lines that change
    while it runs (clock speed, BogoMIPS); ``None`` where
    ``/proc/cpuinfo`` cannot be read."""
    lines = []
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if not line.strip():
                    break
                if line.split(":")[0].strip().lower() not in ("cpu mhz",
                                                              "bogomips"):
                    lines.append(line)
    except OSError:
        return None
    return "".join(lines) or None


def _probe_record(compiler: tuple[str, ...],
                  question: tuple[str, ...]) -> str | None:
    """Where :func:`_probe` remembers ``compiler``'s answer to
    ``question``: a ``probe-*.txt`` file under :data:`CACHE_ROOT`, keyed by
    the compiler's command, its resolved path and modification time, the
    question and the host CPU (:func:`_host_cpu`); ``None`` without a
    resolvable compiler or a readable CPU description."""
    path = shutil.which(compiler[0]) if compiler else None
    cpu = _host_cpu()
    if path is None or cpu is None:
        return None
    path = os.path.realpath(path)
    try:
        stamp = os.stat(path).st_mtime_ns
    except OSError:
        return None
    key = hashlib.sha256(repr((compiler, path, stamp, question,
                               cpu)).encode()).hexdigest()
    return os.path.join(CACHE_ROOT, f"probe-{key[:16]}.txt")


def _probe(compiler: tuple[str, ...], args: tuple[str, ...],
           stdin: str) -> tuple[int, str] | None:
    """``(returncode, stderr)`` of ``compiler`` run with ``args`` on
    ``stdin``, or ``None`` when it cannot run.

    The answer is remembered (the return code on the first line of its
    :func:`_probe_record`, then the error output), so later processes, and
    a cache shared between hosts, start no compiler to ask again until the
    compiler is replaced.
    """
    record = _probe_record(compiler, (*args, stdin))
    if record is not None:
        try:
            with open(record) as f:
                returncode, stderr = f.read().split("\n", 1)
            return int(returncode), stderr
        except (OSError, ValueError):
            pass  # not asked yet, or a damaged record: ask again
    try:
        proc = subprocess.run([*compiler, *args], input=stdin,
                              capture_output=True, text=True, timeout=60)
    except (OSError, ValueError, subprocess.SubprocessError):
        return None
    if record is not None:
        try:
            os.makedirs(CACHE_ROOT, exist_ok=True)
            fd, tmp = tempfile.mkstemp(prefix=os.path.basename(record) + ".",
                                       dir=CACHE_ROOT)
            with os.fdopen(fd, "w") as f:
                f.write(f"{proc.returncode}\n{proc.stderr}")
            os.replace(tmp, record)
        except OSError:
            pass  # an unwritable cache: ask again next time
    return proc.returncode, proc.stderr


@cache
def _native_target(compiler: tuple[str, ...]) -> tuple[str, ...]:
    """The ``-march``/``-m*`` flags ``compiler`` expands ``-march=native``
    into on this host, or ``()`` when it cannot say.

    Asks the compiler driver to print, not run, its commands
    (``-march=native -### -E -``), through :func:`_probe`.  gcc names the
    host's CPU there (``-march=cooperlake``, say) with every ``-m``
    feature switch; a failed probe, or one that names no target, leaves
    the plain flags.
    """
    answer = _probe(compiler, ("-march=native", "-###", "-E", "-"), "")
    if answer is None or answer[0] != 0:
        return ()
    for line in answer[1].splitlines():
        try:
            words = shlex.split(line)
        except ValueError:
            continue
        if any(w.startswith("-march=") and w != "-march=native"
               for w in words):
            return tuple(w for w in words if w.startswith("-m"))
    return ()


def _gathers_fast(target: tuple[str, ...]) -> bool:
    """Whether to turn hardware gathers on for a host whose compiler
    resolved ``-march=native`` to ``target``: only for a ``-march=`` in
    :data:`_GATHER_TARGETS` tuned ``-mtune=generic`` (gcc on x86; clang
    names no target)."""
    return "-mtune=generic" in target and any(
        w.removeprefix("-march=") in _GATHER_TARGETS
        for w in target if w.startswith("-march="))


@cache
def _accepts(compiler: tuple[str, ...], flag: str) -> bool:
    """Whether ``compiler`` takes ``flag`` without an error or warning
    (asked through :func:`_probe`)."""
    answer = _probe(compiler, ("-Werror", flag, "-fsyntax-only", "-x", "c",
                               "-"), "int x;\n")
    return answer is not None and answer[0] == 0


def _build_flags() -> tuple[tuple[str, ...], tuple[str, ...]]:
    """The compile flags and the resolved target they build for: the plain
    :data:`_FLAGS`, plus ``-march=native`` when the compiler resolves it,
    plus :data:`_GATHER_FLAG` when :func:`_gathers_fast` says so for the
    target and the compiler accepts the flag (probed only then).  Where
    either says no, the flags, and so the module name, are exactly those
    without the rule."""
    compiler = _compiler()
    target = _native_target(compiler)
    if not target:
        return _FLAGS, target
    flags = _FLAGS + ("-march=native",)
    if _gathers_fast(target) and _accepts(compiler, _GATHER_FLAG):
        flags += (_GATHER_FLAG,)
    return flags, target


def _module_name() -> str:
    """Extension module name for the current source, flags, macros, target
    CPU and
    ABI."""
    import _cffi_backend

    flags, target = _build_flags()
    with open(_SOURCE_PATH, "rb") as f:
        source = f.read()
    key = hashlib.sha256()
    for part in (source, _CDEF.encode(), " ".join(flags).encode(),
                 repr(_MACROS).encode(), " ".join(target).encode(),
                 str(sysconfig.get_config_var("EXT_SUFFIX")).encode(),
                 sys.implementation.cache_tag.encode(),
                 _cffi_backend.__version__.encode(),
                 np.__version__.encode()):
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


def _build(name: str, path: str, root: str,
           flags: tuple[str, ...]) -> None:
    """Compile with ``flags`` into a temporary directory, then move the
    module and its digest into place."""
    import cffi

    ffi = cffi.FFI()
    ffi.cdef(_CDEF)
    with open(_SOURCE_PATH) as f:
        ffi.set_source(
            name, f.read(), include_dirs=[np.get_include()],
            library_dirs=[os.path.join(os.path.dirname(np.random.__file__),
                                       "lib")],
            libraries=["npyrandom", "m"], extra_compile_args=list(flags),
            define_macros=list(_MACROS))
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
    flags, _ = _build_flags()
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
        _build(name, path, root, flags)
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
            from repro.backend import BackendFallbackWarning

            warnings.warn(
                f"compiled kernels unavailable ({type(exc).__name__}: "
                f"{exc}); running the numpy loops instead",
                BackendFallbackWarning, stacklevel=2)
    return _module


class BcjrDecoder:
    """Max-log BCJR over one trellis on ``kernels.c``: the branch metrics,
    the fused recursion and the posterior of
    :func:`repro.strider.bcjr.max_log_bcjr`, in one C call a decode.

    The trellis is checked once, here, before any pointer reaches C:
    ``from_state``, ``to_state`` and ``input_bit`` (n_branches,) and
    ``in_branches``/``out_branches`` (2, S), each state's incoming and
    outgoing branches, are int64, with states in ``[0, S)``, branches in
    ``[0, n_branches)``, ``n_branches = 2 * S`` and input bits 0 and 1 on
    ``S`` branches each; ``sys_sign`` (n_branches,) and ``par_sign``
    (n_branches, n_parity) are float64.  The decoder binds private copies
    of them, and of the gather and branch tables of the fused step it
    derives from them, so a later change to the caller's arrays never
    reaches C.  A decoder owns one scratch buffer, grown to the longest
    block it has decoded, so it must not be shared between threads.  A
    bad trellis or call raises ``ValueError``.
    """

    def __init__(self, module: ModuleType, *, from_state: np.ndarray,
                 to_state: np.ndarray, input_bit: np.ndarray,
                 in_branches: np.ndarray, out_branches: np.ndarray,
                 sys_sign: np.ndarray, par_sign: np.ndarray, lowest: float):
        tables = {"from_state": from_state, "to_state": to_state,
                  "input_bit": input_bit, "in_branches": in_branches,
                  "out_branches": out_branches, "sys_sign": sys_sign,
                  "par_sign": par_sign}
        for name, a in tables.items():
            want = _FLOAT64 if name.endswith("sign") else _INT64
            if not isinstance(a, np.ndarray) or a.dtype != want:
                raise ValueError(f"{name} must be a {want} array")
        n_branches = from_state.size
        ns = n_branches // 2
        if (ns < 1 or from_state.shape != (2 * ns,)
                or any(a.shape != (2 * ns,)
                       for a in (to_state, input_bit, sys_sign))
                or in_branches.shape != (2, ns)
                or out_branches.shape != (2, ns)
                or par_sign.ndim != 2 or par_sign.shape[0] != 2 * ns):
            raise ValueError(
                "the trellis needs (2S,) from_state, to_state, input_bit "
                "and sys_sign, (2, S) in_branches and out_branches and "
                "(2S, n_parity) par_sign, S >= 1")
        for name, a, bound in (("from_state", from_state, ns),
                               ("to_state", to_state, ns),
                               ("in_branches", in_branches, n_branches),
                               ("out_branches", out_branches, n_branches),
                               ("input_bit", input_bit, 2)):
            if a.min() < 0 or a.max() >= bound:
                raise ValueError(f"{name} must lie in [0, {bound})")
        if np.count_nonzero(input_bit) != ns:
            raise ValueError("input bits 0 and 1 must label half the "
                             "branches each")
        ffi = module.ffi
        by_input = np.argsort(input_bit, kind="stable")
        self._tables = (
            np.concatenate([from_state[in_branches],
                            ns + to_state[out_branches]], axis=1),
            np.concatenate([in_branches, out_branches], axis=1),
            from_state[by_input], to_state[by_input], by_input,
            sys_sign.copy(), np.ascontiguousarray(par_sign.T))
        ctx = ffi.new("struct bcjr_trellis *")
        ctx.n_states, ctx.n_branches = ns, n_branches
        ctx.n_parity, ctx.lowest = par_sign.shape[1], lowest
        # the struct holds bare pointers: these keep the tables alive
        self._buffers = tuple(
            ffi.from_buffer("double[]" if a.dtype == _FLOAT64 else
                            "int64_t[]", a) for a in self._tables)
        (ctx.gather, ctx.slab, ctx.from_state, ctx.to_state, ctx.by_input,
         ctx.sys_sign, ctx.par_sign) = self._buffers
        self._ctx, self._lib, self._null = ctx, module.lib, ffi.NULL
        self._n_parity, self._n_branches = par_sign.shape[1], n_branches
        self._pointer = partial(ffi.from_buffer, "double[]")
        self._scratch, self._capacity = None, -1

    def decode(self, sys_llrs: np.ndarray, parity_llrs: np.ndarray,
               a_priori: np.ndarray | None, terminated: bool
               ) -> tuple[np.ndarray, np.ndarray]:
        """``(llr, extrinsic)`` of one block, each (T,), for C-contiguous
        float64 ``sys_llrs`` (T,), ``parity_llrs`` (n_parity, T) and
        ``a_priori`` (T,) or ``None``; anything else raises ``ValueError``
        before C runs."""
        if not (isinstance(sys_llrs, np.ndarray) and sys_llrs.ndim == 1):
            raise ValueError("sys_llrs must be a 1-D array")
        t_len = sys_llrs.shape[0]
        for name, a, shape in (
                ("sys_llrs", sys_llrs, (t_len,)),
                ("parity_llrs", parity_llrs, (self._n_parity, t_len)),
                ("a_priori", sys_llrs if a_priori is None else a_priori,
                 (t_len,))):
            if not (isinstance(a, np.ndarray) and a.dtype == _FLOAT64
                    and a.shape == shape and a.flags.c_contiguous):
                raise ValueError(f"{name} must be a C-contiguous float64 "
                                 f"array of shape {shape}")
        if t_len > self._capacity:
            # gamma (T, n_branches), rows (T + 1, 2S), one posterior row
            self._scratch = self._pointer(
                np.empty((2 * t_len + 2) * self._n_branches),
                require_writable=True)
            self._capacity = t_len
        llr, ext = np.empty(t_len), np.empty(t_len)
        pointer = self._pointer
        # llr and ext are fresh, so writable: no require_writable check
        self._lib.bcjr_decode(
            self._ctx, pointer(sys_llrs), pointer(parity_llrs),
            self._null if a_priori is None else pointer(a_priori), t_len,
            bool(terminated), self._scratch, pointer(llr), pointer(ext))
        return llr, ext


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


def spine_chain(module: ModuleType, hash_name: str, k: int,
                messages: np.ndarray, s0: int) -> np.ndarray:
    """The spines of M messages in one C call: a new ``(M, n/k)`` uint32
    array whose row m is ``s_i = h(s_{i-1}, m_i)`` from ``s0`` over the
    k-bit chunks of message m, MSB first, as
    :func:`repro.core.spine.spine_states_batch`'s numpy loop builds it.

    ``messages`` is ``(M, n)`` uint8, C-contiguous, one bit a byte, with n
    divisible by k, 1 <= k <= 32, and ``s0`` a uint32 value; anything else
    raises ``ValueError`` before any pointer reaches C.
    """
    if hash_name not in _HASH_IDS:
        raise ValueError(f"unknown hash {hash_name!r}; compiled: "
                         f"{sorted(_HASH_IDS)}")
    k = _check_count("k", k, 1, 32)
    s0 = _check_count("s0", s0, 0, 0xFFFFFFFF)
    if not (isinstance(messages, np.ndarray) and messages.dtype == _UINT8
            and messages.ndim == 2 and messages.flags.c_contiguous):
        raise ValueError("messages must be a 2-D C-contiguous uint8 array")
    n_msgs, n_bits = messages.shape
    if n_bits % k:
        raise ValueError(f"bit count {n_bits} not divisible by k={k}")
    out = np.empty((n_msgs, n_bits // k), dtype=np.uint32)
    if out.size:
        ffi = module.ffi
        module.lib.spine_chain(
            _HASH_IDS[hash_name], ffi.from_buffer("uint8_t[]", messages),
            n_msgs, n_bits // k, k, s0,
            ffi.from_buffer("uint32_t[]", out, require_writable=True))
    return out


def _metric(hash_name: str, levels: np.ndarray, c: object, is_bsc: bool,
            has_csi: bool) -> tuple[int, int]:
    """The hash and metric ids of a search's branch costs, after checking
    what the C loops index by: a known hash, 1 <= c <= 16 and float64 levels,
    C-contiguous with exactly ``2^c`` entries (BSC reads no levels and takes
    no csi)."""
    if hash_name not in _HASH_IDS:
        raise ValueError(f"unknown hash {hash_name!r}; compiled: "
                         f"{sorted(_HASH_IDS)}")
    if not (isinstance(levels, np.ndarray) and levels.flags.c_contiguous
            and levels.dtype == np.float64):
        raise ValueError("levels must be a C-contiguous float64 array")
    if not (isinstance(c, (int, np.integer)) and 1 <= c <= 16) or (
            not is_bsc and levels.shape != (1 << int(c),)):
        raise ValueError(f"levels must have 2^c entries, 1 <= c <= 16; got "
                         f"c={c!r} and levels of shape {levels.shape}")
    if is_bsc and has_csi:
        raise ValueError("the BSC metric takes no csi")
    return _HASH_IDS[hash_name], (_METRIC_BSC if is_bsc else
                                  _METRIC_CSI if has_csi else _METRIC_AWGN)


def _check_planes(received, n_msgs: int, is_bsc: bool, has_csi: bool
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray | None,
                             np.ndarray]:
    """The planes of a received view (see
    :meth:`repro.core.symbols.BatchReceivedView.planes`) for a search over
    ``n_msgs`` messages, after checking everything the passes read through
    them: ``slots`` (n_spine, s) uint32, ``values`` (n_spine, n_msgs, v)
    complex128 (float64 for BSC) and ``csi`` None or complex128 of the
    values' shape and strides, exactly when the search has CSI, each with
    a unit inner stride and non-negative outer ones; and ``counts``
    (n_spine,) int64 with every count in ``[0, min(s, v)]``.  Returns the
    counts as a private copy."""
    slots, values, csi, counts = received.planes()
    if not (isinstance(slots, np.ndarray) and isinstance(values, np.ndarray)
            and isinstance(counts, np.ndarray)
            and (csi is None or isinstance(csi, np.ndarray))):
        raise ValueError("the received planes must be numpy arrays")
    if (csi is not None) != has_csi:
        raise ValueError("csi must be given exactly when the search has CSI")
    value_dtype = _FLOAT64 if is_bsc else _COMPLEX128
    if (slots.dtype != _UINT32 or values.dtype != value_dtype
            or counts.dtype != _INT64
            or (csi is not None and csi.dtype != _COMPLEX128)):
        raise ValueError(
            f"the received planes need uint32 slots, {value_dtype} values, "
            "complex128 csi and int64 counts")
    if (slots.ndim != 2 or values.ndim != 3
            or values.shape[:2] != (slots.shape[0], n_msgs)
            or counts.shape != slots.shape[:1]):
        raise ValueError(
            f"slots {slots.shape}, values {values.shape} and counts "
            f"{counts.shape} do not form (n_spine, s), (n_spine, {n_msgs}, "
            "v) and (n_spine,)")
    if csi is not None and (csi.shape != values.shape
                            or csi.strides != values.strides):
        raise ValueError("csi must have the values' shape and strides")
    for a in (slots, values):
        size, strides = a.itemsize, a.strides
        if strides[-1] != size or min(strides) < 0 or any(
                st % size for st in strides):
            raise ValueError("the received planes need unit inner strides "
                             "and non-negative outer ones")
    capacity = min(slots.shape[1], values.shape[2])
    # one reduction: a negative count read as unsigned exceeds any capacity
    if counts.size and counts.view(_UINT64).max() > capacity:
        raise ValueError(f"a position's slot count lies outside [0, "
                         f"{capacity}], the store's capacity")
    return slots, values, csi, counts.copy()


def _data(ffi, ctype: str, a: np.ndarray):
    """``a``'s data pointer as ``ctype *``, for the bound view (kept alive
    by the passes while C reads it): ``ffi.from_buffer``, which takes a
    C-contiguous array only, else the slower ``ndarray.ctypes`` (a row run
    read in place from a larger store)."""
    if a.flags.c_contiguous:
        return ffi.from_buffer(ctype + "[]", a)
    return ffi.cast(ctype + " *", a.ctypes.data)


class _Passes:
    """What the two implementations of a bubble search share:
    :class:`SpinalPasses` on ``kernels.c``, and the numpy fallback
    ``repro.backend._NumpyPasses``.  That is the search's shape and
    buffers and its one public call, :meth:`search`.  A subclass binds
    the received view for one search (``_bind``, ``_unbind``), runs the
    search over it (``_run``) and turns each message's best leaf into its
    bits (``_backtrack``)."""

    def __init__(self, *, is_bsc: bool, has_csi: bool, k: int, n_msgs: int,
                 beam: int, group: int, n_steps: int, s0: int):
        k, n_msgs, beam, group, n_steps = _check_search(
            k, n_msgs, beam, group, n_steps)
        self._s0 = _check_count("s0", s0, 0, 0xFFFFFFFF)
        # a subtree's leaves are the last d - 1 edges of its path, so a
        # backtrack needs group = 2^(k (d - 1))
        digits, span = 0, 1
        while span < group:
            span, digits = span << k, digits + 1
        if span != group:
            raise ValueError(f"group must be a power of 2^k = {1 << k} (the "
                             f"leaves of a depth-d subtree), got {group}")
        self._digits = digits
        self._is_bsc, self._has_csi = is_bsc, has_csi
        self._k, self._n_msgs, self._beam, self._group = k, n_msgs, beam, group
        size = n_msgs * beam * group
        self.states = np.empty(size, dtype=np.uint32)
        self.costs = np.empty(size)
        self.children = np.empty(size << k, dtype=np.uint32)
        self.totals = np.empty(size << k)
        self.history = np.empty((n_steps, n_msgs, beam), dtype=np.int32)
        self.kept = np.zeros(n_steps, dtype=np.int64)
        # the subtree minima a selection ranks when subtrees have several
        # leaves
        self._minima = np.empty(n_msgs * beam << k) if group > 1 else None
        # every subtree in order, as each message's survivors while it
        # has no more subtrees than the beam keeps
        self._all = np.arange(beam)
        self._msgs = np.arange(n_msgs)
        # the bound view's planes, kept alive while C may read them
        self._view: tuple | None = None

    def search(self, received, d: int, n_beam: int
               ) -> tuple[np.ndarray, np.ndarray]:
        """One bubble search over ``received`` (a
        :class:`repro.core.symbols.BatchReceivedView` of ``n_msgs`` rows)
        at pruning depth ``d`` in ``[1, n_spine]``, keeping ``n_beam >= 1``
        subtrees.

        From one leaf a message, the root state ``s0`` at cost 0, each
        spine position gathers the subtrees the last pruning step kept
        (while the tree is shallower than a subtree, every child), hashes
        their children and adds each child's branch cost over the
        position's slots to its leaf's path cost.  Each pruning step
        (position ``d - 1`` on) keeps, of each message's subtrees of
        ``group`` consecutive children scored by their cheapest child,
        the ``min(n_beam, n_subtrees)`` cheapest by ``argpartition`` along
        the message's row (all of them, in order, when they fit), and
        records them in ``history`` and their count in ``kept``.  numpy's
        ``argmin`` over each message's last leaves (its first minimum, or
        its first NaN) picks the best, and the history leads back from it
        to the message bits.

        Returns ``(bits, costs)``: ``(n_msgs, (n_rows + d - 1) k)`` uint8
        for ``n_rows`` pruning steps, and each message's best path cost,
        ``(n_msgs,)`` float64.  The view is checked first (its dtypes,
        shapes, strides, CSI mode, row count and every position's slot
        count against the store's capacity) and bound for this search
        only.  With ``repro.obs`` on, the search's time flushes once to
        ``kernel.hash`` (the expansions, gathers included),
        ``kernel.branch_cost`` and ``kernel.select``.  A refused search
        raises ``ValueError`` (``RuntimeError`` when numpy's C API fails
        inside the compiled one) and leaves the passes ready for the
        next."""
        slots, values, csi, counts = _check_planes(
            received, self._n_msgs, self._is_bsc, self._has_csi)
        n_spine = counts.size
        _check_count("d", d, 1, n_spine)
        _check_count("n_beam", n_beam, 1)
        n_msgs = self._n_msgs
        self.states[:n_msgs] = self._s0
        self.costs[:n_msgs] = 0.0
        self._bind(slots, values, csi, counts)
        try:
            n_leaves, n_rows = self._run(n_spine, d, n_beam)
        finally:
            self._unbind()
        leaf_costs = self.costs[:n_msgs * n_leaves].reshape(n_msgs, n_leaves)
        best = leaf_costs.argmin(axis=1)
        bits = np.empty((n_msgs, (n_rows + self._digits) * self._k),
                        dtype=np.uint8)
        self._backtrack(best, bits)
        return bits, leaf_costs[self._msgs, best]


def _flush_search_times(hash_s: float, score_s: float, select_s: float,
                        n_spine: int, d: int) -> None:
    """One search's pass times into ``repro.obs``'s kernel timers."""
    OBS.add_time("kernel.hash", hash_s, n_spine)
    OBS.add_time("kernel.branch_cost", score_s, n_spine)
    OBS.add_time("kernel.select", select_s, n_spine - d + 1)


class SpinalPasses(_Passes):
    """The bubble search on ``kernels.c``: :meth:`_Passes.search`, whose
    search is one C call, ``spinal_run``, and whose backtrack another,
    ``spinal_backtrack``.

    Made for a search shape, and reused by every later search of that
    shape.  Each check runs where its inputs become fixed:

    - when the passes are made: the hash, the metric (``levels``, ``c``,
      BSC or not, CSI or not) and the cohort's shape, before any pointer
      reaches C.  Each of ``n_msgs`` messages keeps at most ``beam``
      subtrees of ``group`` leaves, ``group`` a power of ``2^k``, at each
      of ``n_steps`` pruning steps, and each leaf has ``2^k`` children.
      The passes own their buffers: ``states`` and ``costs`` (n_msgs *
      beam * group,) hold the leaves' spine states and path costs, a
      step's ``n_leaves`` leaves of message m at ``[m * n_leaves, (m + 1)
      * n_leaves)``; ``children`` and ``totals`` hold their ``2^k``
      children each and those children's path costs; ``history``
      (n_steps, n_msgs, beam) int32 records each pruning step's
      survivors, ``history[row, m, j]`` being the flat group row ``m *
      n_groups + g`` of message m's j-th survivor, group g of its
      ``n_groups`` candidate subtrees, and ``kept[row]`` how many
      survivors each message kept there;
    - once per search, in :meth:`search`: the received view.  It is then
      bound into the C search state (rows that form one run, a whole
      cohort or one message, are read in place at the store's row
      stride; other row sets are copied once, see
      ``BatchReceivedView.planes``) and unbound when the search ends, so
      the passes hold no pointer into a store past its search;
    - in C: every spine position against the bound view, every
      survivor's index, kept count and history row before a gather writes
      anything, and at the backtrack the finished search, the best
      leaves and the output's length before it reads anything and every
      history entry it chases before it writes.

    ``spinal_run`` selects survivors by numpy's own ``minimum.reduce``
    and ``argpartition``, through numpy's C API on arrays wrapping the
    passes' buffers, so every selection is the one ``_NumpyPasses``
    makes from Python, at every dispatch level.
    """

    def __init__(self, module: ModuleType, hash_name: str, *,
                 levels: np.ndarray, c: int, is_bsc: bool, has_csi: bool,
                 k: int, n_msgs: int, beam: int, group: int, n_steps: int,
                 s0: int):
        hash_id, metric = _metric(hash_name, levels, c, is_bsc, has_csi)
        super().__init__(is_bsc=is_bsc, has_csi=has_csi, k=k, n_msgs=n_msgs,
                         beam=beam, group=group, n_steps=n_steps, s0=s0)
        ffi, lib = module.ffi, module.lib
        self._ffi = ffi
        edges = np.arange(1 << self._k, dtype=np.uint32)
        # the struct holds bare pointers: these keep the buffers alive
        self._buffers = (
            ffi.from_buffer("uint32_t[]", edges),
            ffi.from_buffer("double[]", levels),
            ffi.from_buffer("uint32_t[]", self.states, require_writable=True),
            ffi.from_buffer("double[]", self.costs, require_writable=True),
            ffi.from_buffer("uint32_t[]", self.children,
                            require_writable=True),
            ffi.from_buffer("double[]", self.totals, require_writable=True),
            ffi.from_buffer("int32_t[]", self.history, require_writable=True),
            ffi.from_buffer("int64_t[]", self.kept, require_writable=True),
            ffi.from_buffer("int64_t[]", self._all),
            ffi.NULL if self._minima is None else ffi.from_buffer(
                "double[]", self._minima, require_writable=True))
        ctx = ffi.new("struct spinal_search *")
        ctx.hash_id, ctx.metric, ctx.c, ctx.k = hash_id, metric, int(c), \
            self._k
        ctx.n_msgs, ctx.beam, ctx.group = n_msgs, beam, group
        ctx.n_steps = n_steps
        (ctx.edges, ctx.levels, ctx.leaves, ctx.costs, ctx.children,
         ctx.totals, ctx.history, ctx.kept, ctx.every,
         ctx.minima) = self._buffers
        self._ctx = ctx
        self._run_search = partial(lib.spinal_run, ctx)
        self._backtrack_paths = partial(lib.spinal_backtrack, ctx)

    def _bind(self, slots: np.ndarray, values: np.ndarray,
              csi: np.ndarray | None, counts: np.ndarray) -> None:
        ffi, ctx = self._ffi, self._ctx
        self._view = (slots, values, csi, counts)
        ctx.counts = _data(ffi, "int64_t", counts)
        ctx.slots = _data(ffi, "uint32_t", slots)
        ctx.slot_step = slots.strides[0] // slots.itemsize
        ctx.values = _data(ffi, "double", values)
        ctx.csi = ffi.NULL if csi is None else _data(ffi, "double", csi)
        ctx.value_step = values.strides[0] // values.itemsize
        ctx.row_step = values.strides[1] // values.itemsize
        ctx.n_leaves, ctx.row, ctx.sel = 1, 0, ffi.NULL
        ctx.n_spine = counts.size

    def _unbind(self) -> None:
        ffi, ctx = self._ffi, self._ctx
        ctx.n_spine = 0
        ctx.counts = ctx.slots = ctx.values = ctx.csi = ctx.sel = ffi.NULL
        self._view = None

    def _run(self, n_spine: int, d: int, n_beam: int) -> tuple[int, int]:
        ctx = self._ctx
        ctx.timed = timed = OBS.enabled
        code = self._run_search(d, n_beam)
        if code == -1:
            raise ValueError("the compiled search refused a kept count, "
                             "selection or unpruned step outside the "
                             "passes' shape")
        if code:
            raise RuntimeError("numpy's C API failed inside the compiled "
                               "search (import or allocation)")
        if timed:
            _flush_search_times(ctx.hash_s, ctx.score_s, ctx.select_s,
                                n_spine, d)
        return ctx.n_leaves, ctx.row

    def _backtrack(self, best: np.ndarray, bits: np.ndarray) -> None:
        ffi = self._ffi
        if self._backtrack_paths(
                ffi.from_buffer("int64_t[]", best),
                ffi.from_buffer("uint8_t[]", bits, require_writable=True),
                bits.shape[1]):
            raise ValueError("backtrack refused: a best leaf, kept count or "
                             "history entry outside the finished search")


def _check_bounds(name: str, bounds: np.ndarray, n_edges: int) -> None:
    """``bounds`` must be segment boundaries over ``n_edges`` edges:
    monotone starts from 0 with the edge count appended."""
    if bounds.ndim != 1 or bounds.size < 1:
        raise ValueError(f"{name} must be 1-D and non-empty")
    if bounds[0] != 0 or bounds[-1] != n_edges or (np.diff(bounds) < 0).any():
        raise ValueError(f"{name} must rise monotonely from 0 to {n_edges}")


class BpPasses:
    """The exact passes of one sum-product decode on ``kernels.c``.

    ``check_bounds`` (n_checks + 1,) and ``var_bounds`` (n_vars + 1,)
    are the check-ordered and variable-ordered segment boundaries,
    ``var_order`` the permutation of the (check-ordered) edges into
    variable order and ``var_index`` each edge's variable; ``chan`` holds
    the clipped channel LLRs and ``obs_logmag``/``obs_neg`` (n_checks,)
    the per-check observation terms, or both ``None`` for pure parity.
    All are checked here, before any pointer reaches C: dtypes, shapes,
    contiguity, monotone bounds, ``var_order`` in ``[0, n_edges)`` and
    ``var_index < n_vars``.  A bad graph raises ``ValueError``.

    The passes own their buffers, and numpy's transcendentals run on them
    in place between passes.  One iteration is::

        tanh(edge); magnitudes(); log(edge); check_messages()
        exp(msg); signed_clip(); arctanh(msg); variable_update()

    ``edge`` holds ``v2c / 2`` for ``tanh`` (the caller fills it for the
    first iteration, ``variable_update`` after that), then the clipped and
    floored magnitudes for ``log``; ``msg`` holds the capped log-products
    for ``exp``, then the signed and clipped products for ``arctanh``,
    whose output is the check messages.  ``posterior`` is the last
    variable update's result (``chan`` before the first).

    ``check_messages`` writes one flag byte per edge for ``signed_clip``:
    bit 0 is the sign of the product of the edge's other factors, and bit
    1 marks a log-product below -746, whose ``exp`` numpy rounds to +0.0
    at every dispatch level.  A marked edge reaches ``exp`` as 0.0, which
    is cheap where an underflowing input is not, and ``signed_clip`` signs
    +0.0 in place of the ``exp``'s 1.0, so the products are the numpy
    loop's.
    """

    def __init__(self, module: ModuleType, check_bounds: np.ndarray,
                 var_bounds: np.ndarray, var_order: np.ndarray,
                 var_index: np.ndarray, chan: np.ndarray,
                 obs_logmag: np.ndarray | None, obs_neg: np.ndarray | None,
                 *, tanh_clip: float, tanh_floor: float, llr_clip: float):
        arrays = {"check_bounds": check_bounds, "var_bounds": var_bounds,
                  "var_order": var_order, "var_index": var_index,
                  "chan": chan}
        if (obs_logmag is None) != (obs_neg is None):
            raise ValueError("obs_logmag and obs_neg come together")
        if obs_logmag is not None:
            arrays.update(obs_logmag=obs_logmag, obs_neg=obs_neg)
        for name, a in arrays.items():
            if not isinstance(a, np.ndarray) or not a.flags.c_contiguous:
                raise ValueError(f"{name} must be a C-contiguous array")
            want = (np.float64 if name in ("chan", "obs_logmag")
                    else np.bool_ if name == "obs_neg" else np.int64)
            if a.dtype != want:
                raise ValueError(f"{name} must be {np.dtype(want)}, got "
                                 f"{a.dtype}")
        n_edges = var_index.size
        n_checks, n_vars = check_bounds.size - 1, var_bounds.size - 1
        _check_bounds("check_bounds", check_bounds, n_edges)
        _check_bounds("var_bounds", var_bounds, n_edges)
        if var_index.shape != (n_edges,) or var_order.shape != (n_edges,):
            raise ValueError("var_index and var_order must be 1-D and "
                             "equally long")
        if chan.shape != (n_vars,):
            raise ValueError(f"chan must have one entry per variable, "
                             f"{n_vars}")
        if obs_logmag is not None and not (
                obs_logmag.shape == obs_neg.shape == (n_checks,)):
            raise ValueError(f"observation terms must be ({n_checks},)")
        if n_edges and (var_order.min() < 0 or var_order.max() >= n_edges):
            raise ValueError(f"var_order must lie in [0, {n_edges})")
        if n_edges and (var_index.min() < 0 or var_index.max() >= n_vars):
            raise ValueError(f"var_index must lie in [0, {n_vars})")
        self.edge = np.empty(n_edges)
        self.msg = np.empty(n_edges)
        self.posterior = chan.copy()
        ffi = module.ffi

        def buf(a, writable=False):
            kind = {np.float64: "double[]", np.int64: "int64_t[]",
                    np.uint8: "uint8_t[]"}[a.dtype.type]
            return ffi.from_buffer(kind, a, require_writable=writable)

        edge, msg = buf(self.edge, True), buf(self.msg, True)
        neg = buf(np.empty(n_edges, dtype=np.uint8), True)
        msg_neg = buf(np.empty(n_edges, dtype=np.uint8), True)
        scratch = buf(np.empty(n_edges), True)
        obs = ((ffi.NULL, ffi.NULL) if obs_logmag is None else
               (buf(obs_logmag), buf(obs_neg.view(np.uint8))))
        lib = module.lib
        # each pass with its arguments bound; the buffers stay alive
        # through the cffi pointers
        self.magnitudes = partial(lib.bp_magnitudes, edge, neg, n_edges,
                                  tanh_clip, tanh_floor)
        self.check_messages = partial(
            lib.bp_check_messages, edge, neg, buf(check_bounds), n_checks,
            *obs, msg, msg_neg)
        self.signed_clip = partial(lib.bp_signed_clip, msg, msg_neg,
                                   n_edges, tanh_clip, buf(_SIGNS))
        self.variable_update = partial(
            lib.bp_variable_update, msg, buf(chan), buf(var_order),
            buf(var_bounds), n_vars, buf(var_index), n_edges, llr_clip,
            scratch, buf(self.posterior, True), edge)


def floyd_choice(n: int, size: int) -> bool:
    """Whether ``Generator.choice(n, size, replace=False)`` draws by the
    Floyd loop the C draws mirror; above ``n = 10000`` with ``size > n //
    50`` numpy permutes instead."""
    return not (n > 10000 and size > n // 50)


def _bit_generator(module: ModuleType, rng: np.random.Generator):
    """``rng``'s bitgen_t.  numpy's ctypes interface gives its address in
    microseconds; the cffi one builds an FFI per generator, about 2 ms."""
    return module.ffi.cast("void *",
                           rng.bit_generator.ctypes.bit_generator.value)


def _check_generator(rng: object) -> None:
    if not isinstance(rng, np.random.Generator):
        raise ValueError("the draws need a numpy Generator")


def _check_count(name: str, value: object, least: int,
                 most: int | None = None) -> int:
    if not isinstance(value, (int, np.integer)) or value < least or (
            most is not None and value > most):
        raise ValueError(f"{name} must be an integer in [{least}, "
                         f"{'inf' if most is None else most}], got {value!r}")
    return int(value)


def _check_search(k: object, n_msgs: object, beam: object, group: object,
                  n_steps: object) -> tuple[int, ...]:
    """A bubble search's shape: ``2^k`` children per leaf, ``n_msgs``
    messages of at most ``beam`` subtrees of ``group`` leaves (``2^31``
    leaves at most), and ``n_steps`` pruning steps, whose flat group rows
    (below ``n_msgs * beam << k``) must fit the int32 history."""
    k = _check_count("k", k, 1, 16)
    n_msgs = _check_count("n_msgs", n_msgs, 1, 1 << 31)
    beam = _check_count("beam", beam, 1, 1 << 31)
    group = _check_count("group", group, 1, (1 << 31) // beam)
    n_steps = _check_count("n_steps", n_steps, 1, 1 << 31)
    if n_msgs * beam << k > 1 << 31:
        raise ValueError(f"{n_msgs} messages of {beam} subtrees with "
                         f"{1 << k} children each overflow the int32 "
                         "history")
    return k, n_msgs, beam, group, n_steps


def choice_draw(module: ModuleType, rng: np.random.Generator, n: int,
                size: int, count: int) -> np.ndarray:
    """``count`` rows of ``rng.choice(n, size, replace=False)``, (count,
    size) int64, drawn by numpy's own bounded-integer code on ``rng``'s
    bit generator (under its lock), so ``rng`` ends where the calls would
    leave it.  Bad arguments, or a call numpy would not serve by the Floyd
    loop (:func:`floyd_choice`), raise ``ValueError`` before any pointer
    reaches C."""
    _check_generator(rng)
    n = _check_count("n", n, 1)
    size = _check_count("size", size, 0)
    count = _check_count("count", count, 0)
    if size > n or not floyd_choice(n, size):
        raise ValueError(f"choice({n}, {size}) is not a Floyd draw")
    out = np.empty((count, size), dtype=np.int64)
    with rng.bit_generator.lock:
        module.lib.choice_draw(
            _bit_generator(module, rng), n, size, count,
            module.ffi.from_buffer("int64_t[]", out, require_writable=True))
    return out


def lt_draw(module: ModuleType, rng: np.random.Generator, n: int,
            count: int, thresholds: np.ndarray,
            degrees: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``count`` LT outputs' sorted neighbour sets over ``n`` symbols, drawn
    from ``rng`` as ``LTStream``'s Python loop draws them.

    The degree table is ``thresholds`` (strictly rising, the last one the
    draw's range) and ``degrees`` (each >= 1), both int64.  Returns CSR
    ``(offsets, flat)``: output i's neighbours are
    ``flat[offsets[i]:offsets[i + 1]]``.  Draws as :func:`choice_draw`
    does, and raises ``ValueError`` as it does.
    """
    _check_generator(rng)
    n = _check_count("n", n, 1)
    count = _check_count("count", count, 0)
    if not all(isinstance(a, np.ndarray) and a.dtype == np.int64
               and a.ndim == 1 and a.flags.c_contiguous
               for a in (thresholds, degrees)):
        raise ValueError("thresholds and degrees must be 1-D C-contiguous "
                         "int64 arrays")
    if (thresholds.size < 1 or degrees.shape != thresholds.shape
            or thresholds[0] < 1 or (np.diff(thresholds) <= 0).any()
            or degrees.min() < 1):
        raise ValueError("thresholds must rise strictly from >= 1 and "
                         "degrees be >= 1, one per threshold")
    max_degree = min(int(degrees.max()), n)
    if not floyd_choice(n, max_degree):
        raise ValueError(f"choice({n}, {max_degree}) is not a Floyd draw")
    offsets = np.zeros(count + 1, dtype=np.int64)
    flat = np.empty(count * max_degree, dtype=np.int64)
    ffi = module.ffi
    with rng.bit_generator.lock:
        module.lib.lt_draw(
            _bit_generator(module, rng), n, count,
            ffi.from_buffer("int64_t[]", thresholds),
            ffi.from_buffer("int64_t[]", degrees), thresholds.size,
            ffi.from_buffer("int64_t[]", offsets, require_writable=True),
            ffi.from_buffer("int64_t[]", flat, require_writable=True))
    return offsets, flat[:offsets[-1]].copy()
