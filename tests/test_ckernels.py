"""Failure paths of the compiled-kernel loader (repro.backend.ckernels).

A build that fails, a cached file that is truncated and two processes
building into one cold cache must all end in working BCJR output, never
in a crash or a hang; every test runs under a ``signal.alarm`` deadline.
The hardware-gather flag goes in only where the target rule and the
compiler agree, and otherwise leaves the flags and module name as they
were.
Bad arguments to the spinal, BP and draw wrappers raise before any
pointer reaches C, and nothing builds the kernels before the first decode.
The last test runs tiny Raptor, Strider, spinal AWGN, fading-CSI and link
points on the compiled kernels and on the numpy loops, requires
byte-identical store files and counts every compiled entry point's calls.
"""

import os
import shutil
import subprocess
import sys
import warnings
from functools import partial
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest

from repro.backend import (
    BackendFallbackWarning, _distances, _NumpyPasses, ckernels)
from repro.core.hashes import get_hash, reference_hashes
from repro.core.spine import spine_states_batch
from repro.core.symbols import BatchReceivedSymbols
from repro.strider.bcjr import BcjrTrellis, max_log_bcjr
from repro.strider.rsc import RscCode

from deadline import deadline
from hand_steps import bind, step

_SRC = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(ckernels.__file__))))


def _bcjr_case(seed=11, t_len=60):
    rng = np.random.default_rng(seed)
    return (BcjrTrellis(RscCode()), rng.normal(size=t_len),
            rng.normal(size=(2, t_len)), rng.normal(size=t_len))


def _require_compiler():
    if ckernels.load() is None:
        pytest.skip("compiled kernels unavailable here")


def _without_probes(names):
    """A cache directory's file names without the compiler-probe records
    (``probe-*.txt``, see ``ckernels._probe_record``)."""
    return [n for n in names
            if not (n.startswith("probe-") and n.endswith(".txt"))]


def test_failing_build_warns_once_and_falls_back(tmp_path, monkeypatch):
    case = _bcjr_case()
    want = max_log_bcjr(*case)
    monkeypatch.setattr(ckernels, "CACHE_ROOT", str(tmp_path))
    monkeypatch.setattr(ckernels, "_tried", False)
    monkeypatch.setattr(ckernels, "_module", None)
    monkeypatch.setenv("CC", "/bin/false")
    with deadline(60), warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        first = max_log_bcjr(*case)
        second = max_log_bcjr(*case)
    assert [w.category for w in caught] == [BackendFallbackWarning]
    assert "VerificationError" in str(caught[0].message)
    for got in (first, second):
        for g, w in zip(got, want):
            assert g.tobytes() == w.tobytes()
    # nothing half-built is left behind: only the lock file (beside the
    # records of the compiler's answers to the flag probes)
    assert _without_probes(os.listdir(tmp_path)) == [
        ckernels._module_name() + ".lock"]


def test_any_build_error_falls_back(tmp_path, monkeypatch):
    """cffi without setuptools or distutils raises a bare ``Exception``,
    which must fall back like a missing compiler, not escape the decoder."""
    def no_setuptools(*args):
        raise Exception("This CFFI feature requires setuptools")

    case = _bcjr_case()
    want = max_log_bcjr(*case)
    monkeypatch.setattr(ckernels, "CACHE_ROOT", str(tmp_path))
    monkeypatch.setattr(ckernels, "_tried", False)
    monkeypatch.setattr(ckernels, "_module", None)
    monkeypatch.setattr(ckernels, "_build", no_setuptools)
    with deadline(60), warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        first = max_log_bcjr(*case)
        second = max_log_bcjr(*case)
    assert [w.category for w in caught] == [BackendFallbackWarning]
    assert "requires setuptools" in str(caught[0].message)
    for got in (first, second):
        for g, w in zip(got, want):
            assert g.tobytes() == w.tobytes()


def test_truncated_cached_module_is_rebuilt(tmp_path):
    _require_compiler()
    good_root, bad_root = str(tmp_path / "good"), str(tmp_path / "bad")
    with deadline(120):
        ckernels.build_or_load(good_root)
        with open(ckernels.module_path(good_root), "rb") as f:
            image = f.read()
        # a copy cut short after its digest was written: the cut may leave
        # a file that still loads, so only the digest can tell
        shutil.copytree(good_root, bad_root)
        bad_path = ckernels.module_path(bad_root)
        with open(bad_path, "wb") as f:
            f.write(image[:len(image) // 2])
        module = ckernels.build_or_load(bad_root)
    assert os.path.getsize(bad_path) > len(image) // 2
    assert module.__file__ == bad_path
    trellis = BcjrTrellis(RscCode())
    case = _bcjr_case(seed=2, t_len=30)
    got = trellis.decoder(module).decode(*case[1:], terminated=True)
    with mock.patch.object(ckernels, "load", lambda: None):
        want = max_log_bcjr(trellis, *case[1:])
    for g, w in zip(got, want):
        assert g.tobytes() == w.tobytes()


def test_two_processes_share_a_cold_cache(tmp_path):
    _require_compiler()
    script = (
        "import sys, warnings\n"
        "warnings.simplefilter('error')\n"
        "from repro.backend import ckernels\n"
        "ckernels.CACHE_ROOT = sys.argv[1]\n"
        "print(ckernels.load().__file__)\n")
    env = {**os.environ, "PYTHONPATH": _SRC}
    root = str(tmp_path / "cache")
    with deadline(180):
        procs = [subprocess.Popen([sys.executable, "-c", script, root],
                                  env=env, stdout=subprocess.PIPE,
                                  stderr=subprocess.PIPE, text=True)
                 for _ in range(2)]
        outs = [p.communicate(timeout=150) for p in procs]
    for p, (out, err) in zip(procs, outs):
        assert p.returncode == 0, err
        assert out.strip() == ckernels.module_path(root)
    # one module, its digest and its lock; no temporary build directory
    module_file = os.path.basename(ckernels.module_path(root))
    assert sorted(_without_probes(os.listdir(root))) == sorted([
        ckernels._module_name() + ".lock", module_file,
        module_file + ".sha256"])


def _forget_probes():
    """Drop this process's memory of the compiler's answers, as a new
    process starts."""
    ckernels._native_target.cache_clear()
    ckernels._accepts.cache_clear()


def test_warm_cache_starts_no_compiler(monkeypatch):
    """Once a cache holds the module and the compiler's answers to the
    flag probes, a new process loads the kernels without running the
    compiler (no ``-march=native -###``, no gather probe)."""
    _require_compiler()
    with deadline(60):
        _forget_probes()
        flags = ckernels._build_flags()
        _forget_probes()

        def no_compiler(*args, **kwargs):
            raise AssertionError(f"a compiler ran: {args}")

        monkeypatch.setattr(subprocess, "run", no_compiler)
        monkeypatch.setattr(ckernels, "_tried", False)
        monkeypatch.setattr(ckernels, "_module", None)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            module = ckernels.load()
        assert ckernels._build_flags() == flags
    _forget_probes()
    assert module is not None
    assert module.__file__ == ckernels.module_path(ckernels.CACHE_ROOT)


def test_replaced_compiler_is_probed_again(tmp_path, monkeypatch):
    """The probe records are keyed by the compiler's path and modification
    time: a second process asks nothing, but once the compiler file
    changes every probe runs again, with the same answers here."""
    _require_compiler()
    log = tmp_path / "cc.log"
    wrapper = tmp_path / "cc"
    wrapper.write_text(
        "#!/bin/sh\n"
        f'echo "$@" >> {log}\n'
        f'exec {" ".join(ckernels._compiler())} "$@"\n')
    wrapper.chmod(0o755)
    monkeypatch.setattr(ckernels, "CACHE_ROOT", str(tmp_path / "cache"))
    monkeypatch.setenv("CC", str(wrapper))

    def resolve():
        """The flags a new process resolves, and the compiler runs it
        took."""
        _forget_probes()
        before = len(log.read_text().splitlines()) if log.exists() else 0
        flags = ckernels._build_flags()
        return flags, len(log.read_text().splitlines()) - before

    with deadline(60):
        first, n_first = resolve()
        again, n_again = resolve()
        stat = wrapper.stat()
        os.utime(wrapper, ns=(stat.st_atime_ns,
                              stat.st_mtime_ns + 10**9))
        replaced, n_replaced = resolve()
    _forget_probes()
    assert n_first >= 1 and n_again == 0 and n_replaced == n_first
    assert first == again == replaced


def _spinal_call():
    """A good scoring call of the passes: the AWGN metric, and one spine
    position's received panel for 2 messages of 3 slots each."""
    return {"slots": np.arange(3, dtype=np.uint32),
            "values": np.zeros((2, 3), dtype=np.complex128),
            "csi": None, "hash_name": "one_at_a_time",
            "levels": np.linspace(-1.0, 1.0, 16), "c": 4, "is_bsc": False}


def _reached_c(*args):
    raise AssertionError("a bad call reached the C kernel")


_FAKE = SimpleNamespace(ffi=None, lib=SimpleNamespace(
    spine_hash=_reached_c, lt_draw=_reached_c, choice_draw=_reached_c,
    spinal_expand=_reached_c, spinal_score=_reached_c,
    spinal_gather=_reached_c, spinal_run=_reached_c,
    spinal_backtrack=_reached_c, spine_chain=_reached_c))


def _fake_module():
    """A kernel module whose every C call fails the test: the struct and
    pointers are real, the C functions are not."""
    cffi = pytest.importorskip("cffi")
    ffi = cffi.FFI()
    ffi.cdef(ckernels._CDEF)
    return SimpleNamespace(ffi=ffi, lib=_FAKE.lib)


def _score_call(call):
    """Run ``call`` as the passes take it, on :func:`_fake_module`: its
    metric when they are made, then a search over its panel, as spine
    position 0 of a view holding 3 slots a message."""
    call = dict(call)
    panel = [call.pop(name) for name in ("slots", "values", "csi")]
    passes = ckernels.SpinalPasses(
        _fake_module(), **call, has_csi=panel[2] is not None, k=1,
        n_msgs=2, beam=1, group=1, n_steps=1, s0=0)
    planes = tuple(None if a is None else a[None] for a in panel)
    passes.search(SimpleNamespace(planes=lambda: (*planes, np.array([3]))),
                  1, 1)


@pytest.mark.parametrize("name, bad", [
    # levels must have exactly 2^c entries: C reads levels[w & (2^c - 1)]
    ("levels", lambda a: a[:-1]),
    ("levels", lambda a: a[:8]),
    ("levels", lambda a: np.concatenate([a, a])),
    ("levels", lambda a: a.reshape(4, 4)),
    ("levels", lambda a: a.astype(np.float32)),
    ("levels", lambda a: a[::-1]),
    ("c", lambda c: 0),
    ("c", lambda c: 17),
    ("c", lambda c: 4.0),
    ("hash_name", lambda h: "md5"),
    ("slots", lambda a: a.astype(np.int32)),
    ("slots", lambda a: a[:0]),
    ("slots", lambda a: a[None]),
    ("values", lambda a: a.real.copy()),
    ("values", lambda a: a[:, :-1]),
    ("values", lambda a: a[:1]),
    ("values", lambda a: np.asfortranarray(a)),
    ("csi", lambda _: np.zeros((2, 2), dtype=np.complex128)),
    ("csi", lambda _: np.zeros((2, 3), dtype=np.complex64)),
])
def test_bad_branch_cost_calls_raise_before_reaching_c(name, bad):
    """Each input of a branch cost is refused where the passes take it:
    the hash, ``levels`` and ``c`` when they are made, one position's
    slots, values and CSI when ``search`` checks the view.  The good call
    they start from reaches C."""
    with pytest.raises(AssertionError, match="reached the C kernel"):
        _score_call(_spinal_call())
    call = _spinal_call()
    call[name] = bad(call[name])
    with pytest.raises(ValueError):
        _score_call(call)


def test_bsc_branch_costs_reject_csi_but_not_levels():
    """BSC reads no levels, so their count is free; CSI and complex values
    are not allowed."""
    call = dict(_spinal_call(), is_bsc=True, c=1, values=np.zeros((2, 3)))
    with pytest.raises(ValueError):
        _score_call(dict(call, csi=np.zeros((2, 3), dtype=np.complex128)))
    with pytest.raises(ValueError):
        _score_call(dict(call, values=call["values"].astype(np.complex128)))
    for levels in (call["levels"], np.zeros(3), np.zeros(0)):
        with pytest.raises(AssertionError, match="reached the C kernel"):
            _score_call(dict(call, levels=levels))


def _step_search():
    """A good search for ``ckernels.SpinalPasses``: AWGN, 2 messages of up
    to 3 one-leaf subtrees with 4 children each, over 2 pruning steps."""
    return {"hash_name": "lookup3", "levels": np.linspace(-1.0, 1.0, 8),
            "c": 3, "is_bsc": False, "has_csi": False, "k": 2, "n_msgs": 2,
            "beam": 3, "group": 1, "n_steps": 2, "s0": 0}


def _good_view():
    """A good received view for that search: rows 0 and 1 of a 3-message
    AWGN store, 3 slots at each of 2 spine positions, in a capacity of 4."""
    store = BatchReceivedSymbols(2, 3)
    store.add_block(np.repeat(np.arange(2), 3), np.arange(6, dtype=np.uint32),
                    np.zeros((3, 6), dtype=np.complex128))
    return store.prefix(np.arange(2), store.checkpoint())


def _fake_passes():
    """``_step_search``'s passes on :func:`_fake_module`."""
    return ckernels.SpinalPasses(_fake_module(), **_step_search())


@pytest.mark.parametrize("name, bad", [
    ("hash_name", lambda h: "md5"),
    ("levels", lambda a: a[:-1]),
    ("levels", lambda a: a[::-1]),
    ("levels", lambda a: a.astype(np.float32)),
    ("c", lambda c: 0),
    ("c", lambda c: 17),
    ("k", lambda k: 0),
    ("k", lambda k: 17),
    ("k", lambda k: 2.0),
    ("n_msgs", lambda n: 0),
    ("beam", lambda n: 0),
    ("beam", lambda n: None),
    # flat group rows past int32: 2 messages of 2^30 subtrees, 4 children
    ("beam", lambda n: 1 << 30),
    ("group", lambda n: 0),
    ("group", lambda n: 1 << 30),
    ("n_steps", lambda n: 0),
])
def test_bad_step_searches_raise_before_reaching_c(name, bad):
    call = _step_search()
    call[name] = bad(call[name])
    with pytest.raises(ValueError):
        ckernels.SpinalPasses(_FAKE, **call)


def test_bsc_step_search_rejects_csi():
    with pytest.raises(ValueError):
        ckernels.SpinalPasses(_FAKE, **dict(
            _step_search(), is_bsc=True, c=1, has_csi=True))


@pytest.mark.parametrize("name, bad", [
    ("counts", lambda a: a - 4),
    ("counts", lambda a: a + 2),
    ("counts", lambda a: a[:1]),
    ("slots", lambda a: a.astype(np.int32)),
    ("slots", lambda a: a[None]),
    ("slots", lambda a: np.repeat(a, 2, axis=1)[:, ::2]),
    ("values", lambda a: a.real.copy()),
    ("values", lambda a: a[:, :, :2]),
    ("values", lambda a: a[:, :1]),
    ("values", lambda a: a.tolist()),
    ("csi", lambda _: np.zeros((2, 2, 4), dtype=np.complex128)),
])
def test_bad_steps_raise_before_reaching_c(name, bad):
    """C reads the received view's planes at every step, so ``search``
    checks them once, before C runs: their dtypes, shapes, unit inner
    strides, the CSI mode, the row count and every position's slot count
    against the store's capacity (here 4).  The good view they start from
    reaches C."""
    passes = _fake_passes()
    good = _good_view()
    with pytest.raises(AssertionError, match="reached the C kernel"):
        passes.search(good, 1, 2)
    planes = dict(zip(("slots", "values", "csi", "counts"), good.planes()))
    planes[name] = bad(planes[name])
    with pytest.raises(ValueError):
        passes.search(SimpleNamespace(planes=lambda: tuple(planes.values())),
                      1, 2)


@pytest.mark.parametrize("name, bad", [
    ("sel", lambda a: a.astype(np.int32)),
    ("sel", lambda a: a.astype(np.uint64)),
    ("sel", lambda a: a.astype(np.float64)),
    ("sel", lambda a: a + 2),
    ("sel", lambda a: a[:1]),
    ("sel", lambda a: a[None]),
    ("sel", lambda a: a[:0]),
    ("sel", lambda a: np.arange(3)),
    ("sel", lambda a: a.tolist()),
    ("row", lambda r: -1),
    ("row", lambda r: 3),
    ("row", lambda r: 0.0),
])
def test_bad_selections_raise_before_reaching_c(name, bad):
    """A view's row selection ``sel`` (its ``rows``) must be a 1-D intp
    array naming one row of the store per message of the search, and each
    ``row`` must lie in the store's 3; ``search`` refuses any other view,
    and the good selection reaches C."""
    passes = _fake_passes()
    view = _good_view()
    with pytest.raises(AssertionError, match="reached the C kernel"):
        passes.search(view, 1, 2)
    rows = view.rows
    view.rows = (bad(rows) if name == "sel" else
                 np.array([bad(int(rows[0])), *rows[1:].tolist()]))
    with pytest.raises(ValueError):
        passes.search(view, 1, 2)


def test_gathers_need_a_scored_step_and_matching_leaves():
    """Nothing is gathered without a selection of a scored step, no more
    subtrees are kept than the beam holds, children become leaves unpruned
    only while they fit in one subtree, and no step runs outside the bound
    view, before it is bound or after the search unbinds it; on the
    compiled passes (where they build, through the kernel module) and the
    numpy ones alike."""
    both = [_NumpyPasses(**_step_search())]
    if ckernels.load() is not None:
        both.append(ckernels.SpinalPasses(ckernels.load(), **_step_search()))
    view = _good_view()
    for passes in both:
        numpy = isinstance(passes, _NumpyPasses)
        for position in (0, -1):
            for name in ("expand", "score"):
                with pytest.raises(ValueError):
                    step(passes, name, position)
        bind(passes, view)
        with pytest.raises(ValueError):
            step(passes, "gather")
        step(passes, "expand", 0)
        step(passes, "score", 0)
        for position in (2, -1):
            for name in ("expand", "score"):
                with pytest.raises(ValueError):
                    step(passes, name, position)
        # 4 subtrees a message were scored, and the beam holds 3
        if numpy:
            with pytest.raises(ValueError):
                passes._select(5)
        else:
            passes._ctx.sel, passes._ctx.n_keep = passes._ctx.every, 4
            with pytest.raises(ValueError):
                step(passes, "gather")
            passes._ctx.sel = passes._ffi.NULL
        # without a selection, the 4 children of a leaf are no one-leaf
        # subtree
        with pytest.raises(ValueError):
            step(passes, "expand", 1)
        passes._unbind()
        bits, costs = passes.search(view, 1, 2)
        assert bits.shape == (2, 4) and costs.shape == (2,)
        assert passes.kept.tolist() == [2, 2]
        for name in ("expand", "score"):
            with pytest.raises(ValueError):
                step(passes, name, 0)


def test_out_of_range_subtrees_are_refused_before_any_write():
    """C checks every selected subtree against the scored step's count and
    writes nothing when one is out of range; a good gather writes its
    history row, and a second gather of the same selection is refused."""
    _require_compiler()
    passes = ckernels.SpinalPasses(ckernels.load(), **_step_search())
    passes.history[:] = -1
    bind(passes, _good_view())
    step(passes, "expand", 0)
    step(passes, "score", 0)
    held = []

    def select(sel):
        """Leave ``sel`` (one row of 2 survivors a message) for the next
        gather, as the compiled selection leaves its choice."""
        held.append(np.array(sel, dtype=np.int64))
        passes._ctx.sel = passes._ffi.from_buffer(held[-1])
        passes._ctx.n_keep, passes._ctx.sel_step = 2, 2

    before = [a.copy() for a in (passes.states, passes.costs, passes.history)]
    for bad in ([[0, 4], [1, 2]], [[0, 1], [-1, 2]]):
        select(bad)
        with pytest.raises(ValueError, match="refused"):
            step(passes, "expand", 1)
        for a, b in zip((passes.states, passes.costs, passes.history),
                        before):
            assert a.tobytes() == b.tobytes()
    select([[0, 3], [2, 1]])
    step(passes, "expand", 1)
    assert passes.history[0].tolist() == [[0, 3, -1], [6, 5, -1]]
    with pytest.raises(ValueError):
        step(passes, "gather")


@pytest.mark.parametrize("path", ["numpy", "compiled"])
@pytest.mark.parametrize("group", [2, 8, 32])
def test_group_that_is_no_power_of_2k_is_refused_when_made(path, group):
    """A search's subtrees hold the last ``d - 1`` edges of a path, so its
    ``group`` must be ``2^(k j)``: with k = 2 each of 2, 8 and 32 leaves
    the backtrack without a whole last edge, and the passes refuse it
    when they are made, before any search runs.  1, 4 and 16 are taken."""
    make = (_NumpyPasses if path == "numpy" else
            partial(ckernels.SpinalPasses, _fake_module()))
    with pytest.raises(ValueError, match="power of 2"):
        make(**dict(_step_search(), group=group))
    for good in (1, 4, 16):
        assert make(**dict(_step_search(), group=good))._digits == {
            1: 0, 4: 1, 16: 2}[good]


def test_c_refuses_bad_backtracks():
    """C checks a backtrack's search, best leaves and output length before
    it reads anything, and every history entry it chases: each bad call
    raises and leaves the output as it was."""
    _require_compiler()
    passes = ckernels.SpinalPasses(ckernels.load(), **_step_search())
    passes.search(_good_view(), 1, 2)
    good = np.array([1, 0])
    want = np.empty((2, 4), dtype=np.uint8)
    passes._backtrack(good, want)

    def refused(best=good, width=4):
        bits = np.full((2, width), 7, dtype=np.uint8)
        with pytest.raises(ValueError, match="refused"):
            passes._backtrack(best, bits)
        assert (bits == 7).all()

    refused(best=np.array([2, 0]))
    refused(best=np.array([0, -1]))
    refused(width=6)
    history = passes.history.copy()
    passes.history[0] = 2 * 4
    refused()
    passes.history[:] = history
    passes.kept[0] = 0
    refused()
    passes.kept[0] = 2
    bits = np.empty((2, 4), dtype=np.uint8)
    passes._backtrack(good, bits)
    assert bits.tobytes() == want.tobytes()
    # a bound view is a search still running
    bind(passes, _good_view())
    refused()


@pytest.mark.parametrize("hash_name", sorted(ckernels._HASH_IDS))
@pytest.mark.parametrize("s0", [0, 0xFFFFFFFF])
def test_spine_chain_matches_numpy_loop(hash_name, s0):
    """One C call builds the spines the numpy loop of
    ``spine_states_batch`` builds with the reference hash, for k 1 to 8,
    1 to 5 messages and 0 to 300 spine positions, and
    ``spine_states_batch`` gives them on both paths.  Bytes other than 0
    and 1 pack as numpy's uint32 sum does."""
    _require_compiler()
    module = ckernels.load()
    rng = np.random.default_rng(s0 & 0xFF)
    reference = reference_hashes()[hash_name]
    lengths = (0, 1, 2, 3, 17, 64, 255, 300)
    for k in range(1, 9):
        for n_msgs in range(1, 6):
            n_spine = lengths[(5 * k + n_msgs) % len(lengths)]
            bits = rng.integers(0, 256 if n_msgs == 5 else 2,
                                size=(n_msgs, n_spine * k), dtype=np.uint8)
            want = spine_states_batch(reference, k, bits, s0)
            assert want.shape == (n_msgs, n_spine)
            got = ckernels.spine_chain(module, hash_name, k, bits, s0)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()
            kernel = get_hash(hash_name)
            assert spine_states_batch(
                kernel, k, bits, s0).tobytes() == want.tobytes()
            with mock.patch.object(ckernels, "load", lambda: None):
                assert spine_states_batch(
                    kernel, k, bits, s0).tobytes() == want.tobytes()


@pytest.mark.parametrize("name, bad", [
    ("hash_name", lambda h: "md5"),
    ("k", lambda k: 0),
    ("k", lambda k: 33),
    ("k", lambda k: 4.0),
    ("s0", lambda s: -1),
    ("s0", lambda s: 1 << 32),
    ("messages", lambda m: m.astype(np.int64)),
    ("messages", lambda m: m[0]),
    ("messages", lambda m: m[:, ::2]),
    ("messages", lambda m: np.ascontiguousarray(m[:, :-1])),
    ("messages", lambda m: m.tolist()),
])
def test_bad_spine_chains_raise_before_reaching_c(name, bad):
    """The spine chain takes a registered hash, 1 <= k <= 32, a uint32
    ``s0`` and a 2-D C-contiguous uint8 message array of whole chunks;
    the good call reaches C."""
    call = {"hash_name": "one_at_a_time", "k": 4, "s0": 0,
            "messages": np.zeros((2, 8), dtype=np.uint8)}
    with pytest.raises(AssertionError, match="reached the C kernel"):
        ckernels.spine_chain(_fake_module(), **call)
    call[name] = bad(call[name])
    with pytest.raises(ValueError):
        ckernels.spine_chain(_fake_module(), **call)


def test_target_cpu_keys_the_cache(monkeypatch):
    """Builds for different CPUs never share a cache entry: the target the
    compiler resolves ``-march=native`` to is part of the module name, so
    a cache directory shared between hosts never loads a foreign build."""
    pytest.importorskip("_cffi_backend")
    names = set()
    with deadline(30):
        for target in (("-march=skylake-avx512", "-mavx512f"),
                       ("-march=znver3", "-mno-avx512f"), ()):
            monkeypatch.setattr(ckernels, "_native_target",
                                lambda compiler, target=target: target)
            names.add(ckernels._module_name())
    assert len(names) == 3


_COOPERLAKE = ("-march=cooperlake", "-mavx512f", "-mtune=generic")


@pytest.mark.parametrize("target, gathers", [
    ((), False),
    (_COOPERLAKE, True),
    (("-march=cooperlake", "-mtune=cooperlake"), False),
    (("-march=skylake-avx512", "-mtune=generic"), True),
    (("-march=icelake-server", "-mtune=generic"), True),
    (("-march=alderlake", "-mtune=generic"), False),
    (("-march=tremont", "-mtune=generic"), False),
    (("-march=znver2", "-mtune=generic"), False),
    (("-march=znver4", "-mtune=znver4"), False),
])
def test_gather_rule_keys_the_cache(monkeypatch, target, gathers):
    """The gather flag goes in only for a target on the allow-list tuned
    ``generic`` (no target, gcc's own tuning, the hybrid and Atom cores and
    AMD get none), the compiler is probed only then, and the module name
    changes exactly when the flag does: a compiler that rejects the flag
    gives the plain flags and name."""
    pytest.importorskip("_cffi_backend")
    monkeypatch.setattr(ckernels, "_native_target", lambda compiler: target)
    plain = ckernels._FLAGS + (("-march=native",) if target else ())
    names = []
    for accepts in (True, False):
        probes = []
        monkeypatch.setattr(
            ckernels, "_accepts",
            lambda compiler, flag, a=accepts: probes.append(flag) or a)
        flags, resolved = ckernels._build_flags()
        assert resolved == target
        assert probes == ([ckernels._GATHER_FLAG] if gathers else [])
        assert flags == (plain + (ckernels._GATHER_FLAG,)
                         if gathers and accepts else plain)
        names.append(ckernels._module_name())
    assert ckernels._gathers_fast(target) == gathers
    assert (names[0] != names[1]) == gathers


def test_compiler_rejecting_gathers_builds_without_them(tmp_path,
                                                        monkeypatch):
    """A compiler that refuses the gather flag is probed once and builds
    with the flags it would have without the rule, and no fallback
    warning is raised."""
    _require_compiler()
    log = tmp_path / "cc.log"
    real = " ".join(ckernels._compiler())
    wrapper = tmp_path / "cc"
    wrapper.write_text(
        "#!/bin/sh\n"
        f'echo "$@" >> {log}\n'
        'for arg in "$@"; do\n'
        '  case "$arg" in -mtune-ctrl*) exit 1;; esac\n'
        "done\n"
        f'exec {real} "$@"\n')
    wrapper.chmod(0o755)
    root = tmp_path / "cache"
    monkeypatch.setattr(ckernels, "CACHE_ROOT", str(root))
    monkeypatch.setattr(ckernels, "_tried", False)
    monkeypatch.setattr(ckernels, "_module", None)
    monkeypatch.setattr(ckernels, "_native_target",
                        lambda compiler: _COOPERLAKE)
    monkeypatch.setenv("CC", str(wrapper))
    with deadline(120), warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        module = ckernels.load()
    assert caught == []
    assert module is not None and module.__file__ == ckernels.module_path(
        str(root))
    assert ckernels._build_flags() == (
        ckernels._FLAGS + ("-march=native",), _COOPERLAKE)
    commands = log.read_text().splitlines()
    probes = [c for c in commands if "-mtune-ctrl" in c]
    assert len(probes) == 1 and "-fsyntax-only" in probes[0]
    builds = [c for c in commands if "-march=native" in c]
    assert builds and all(
        " ".join(ckernels._FLAGS + ("-march=native",)) in c for c in builds)


def test_compiler_without_a_native_target_builds_plain(tmp_path,
                                                       monkeypatch):
    """A compiler that cannot resolve ``-march=native`` builds once with
    the plain flags, and no fallback warning is raised."""
    _require_compiler()
    log = tmp_path / "cc.log"
    real = " ".join(ckernels._compiler())
    wrapper = tmp_path / "cc"
    wrapper.write_text(
        "#!/bin/sh\n"
        'for arg in "$@"; do [ "$arg" = "-###" ] && exit 1; done\n'
        f'echo "$@" >> {log}\n'
        f'exec {real} "$@"\n')
    wrapper.chmod(0o755)
    root = tmp_path / "cache"
    monkeypatch.setattr(ckernels, "CACHE_ROOT", str(root))
    monkeypatch.setattr(ckernels, "_tried", False)
    monkeypatch.setattr(ckernels, "_module", None)
    monkeypatch.setenv("CC", str(wrapper))
    with deadline(120), warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        module = ckernels.load()
    assert caught == []
    assert module is not None and module.__file__ == ckernels.module_path(
        str(root))
    assert ckernels._build_flags() == (ckernels._FLAGS, ())
    commands = log.read_text().splitlines()
    assert commands and not any("-march" in c for c in commands)
    assert any(" ".join(ckernels._FLAGS) in c for c in commands)


def _quiet_nan(payload):
    return np.array([0x7FF8000000000000 | payload],
                    dtype=np.uint64).view(np.float64)[0]


def test_branch_cost_sum_keeps_the_first_slots_nan():
    """When two slots' terms are NaNs, the slot sum is the first slot's
    NaN, as numpy's SIMD add returns its first operand's: each cost's bits
    follow the slot order, not the last NaN added.  That holds on the
    compiled passes and the numpy ones, over 8 children (whole SIMD chunks
    of numpy's add); a second message with finite values scores as
    ``parent + _distances``."""
    search = dict(levels=np.linspace(-1.0, 1.0, 8), c=3, is_bsc=False,
                  has_csi=False, k=3, n_msgs=2, beam=1, group=1, n_steps=1,
                  s0=5)
    both = [_NumpyPasses("one_at_a_time", **search)]
    if ckernels.load() is not None:
        both.append(ckernels.SpinalPasses(ckernels.load(), "one_at_a_time",
                                          **search))
    slots = np.array([3, 9], dtype=np.uint32)
    finite = np.array([0.25 - 1.5j, -0.75 + 0.5j])
    for first, second in ((0x11, 0x22), (0x22, 0x11)):
        store = BatchReceivedSymbols(1, 2)
        store.add_block(np.zeros(2, dtype=np.intp), slots, np.array(
            [[complex(_quiet_nan(first), 0.5),
              complex(_quiet_nan(second), -0.5)], finite]))
        for passes in both:
            bind(passes, store.prefix(np.arange(2), store.checkpoint()))
            passes.costs[1] = 1.375
            step(passes, "expand", 0)
            step(passes, "score", 0)
            totals = passes.totals[:16].reshape(2, 8)
            assert (totals[0].view(np.uint64)
                    == np.uint64(0x7FF8000000000000 | first)).all()
            words = reference_hashes()["one_at_a_time"](
                passes.children[None, 8:16], slots[:, None, None])
            want = 1.375 + _distances(words, finite[None], None,
                                      search["levels"], 3, False)
            assert totals[1].tobytes() == want.tobytes()


@pytest.mark.parametrize("k", [1, 4])
@pytest.mark.parametrize("n_msgs", [5, 13])
def test_nan_parents_keep_their_nan_over_nan_branch_costs(k, n_msgs):
    """Where a parent's cost and its children's branch costs are NaNs with
    different payloads, every child's path cost is the parent's NaN on both
    passes, at 2 and 16 children a leaf and over parent counts that are not
    a multiple of 8 (numpy's own add takes the second operand's NaN in a
    scalar tail)."""
    search = dict(levels=np.linspace(-1.0, 1.0, 8), c=3, is_bsc=False,
                  has_csi=False, k=k, n_msgs=n_msgs, beam=1, group=1,
                  n_steps=1, s0=5)
    both = [_NumpyPasses("one_at_a_time", **search)]
    if ckernels.load() is not None:
        both.append(ckernels.SpinalPasses(ckernels.load(), "one_at_a_time",
                                          **search))
    store = BatchReceivedSymbols(1, n_msgs)
    store.add_block(np.zeros(1, dtype=np.intp), np.array([3], dtype=np.uint32),
                    np.full((n_msgs, 1), complex(-_quiet_nan(0x22), 0.5)))
    parents = np.array([_quiet_nan(0x100 + m) for m in range(n_msgs)])
    parents[::2] *= -1.0  # NaNs of both signs
    got = []
    for passes in both:
        bind(passes, store.prefix(np.arange(n_msgs), store.checkpoint()))
        passes.costs[:n_msgs] = parents
        step(passes, "expand", 0)
        step(passes, "score", 0)
        totals = passes.totals[:n_msgs << k].reshape(n_msgs, 1 << k)
        assert (totals.view(np.uint64)
                == parents.view(np.uint64)[:, None]).all()
        got.append(totals.tobytes())
    assert len(set(got)) == 1


def _bp_call():
    """A good graph for ``ckernels.BpPasses``: 2 checks, 3 variables, 4
    edges, with observation terms."""
    return {"check_bounds": np.array([0, 3, 4]),
            "var_bounds": np.array([0, 2, 3, 4]),
            "var_order": np.array([0, 3, 1, 2]),
            "var_index": np.array([0, 1, 2, 0]),
            "chan": np.zeros(3), "obs_logmag": np.zeros(2),
            "obs_neg": np.zeros(2, dtype=bool)}


_BP_CLIPS = {"tanh_clip": 0.9, "tanh_floor": 1e-30, "llr_clip": 40.0}


@pytest.mark.parametrize("name, bad", [
    # segment bounds: monotone starts from 0, the edge count appended
    ("check_bounds", lambda a: a[1:]),
    ("check_bounds", lambda a: a[:-1]),
    ("check_bounds", lambda a: np.array([0, 5, 4])),
    ("check_bounds", lambda a: np.array([0, 3, 2, 4])),
    ("check_bounds", lambda a: a.astype(np.int32)),
    ("check_bounds", lambda a: a[None]),
    ("var_bounds", lambda a: np.array([0, 2, 1, 4])),
    ("var_bounds", lambda a: np.array([0, 2, 3, 5])),
    # the permutation's range, and var_index < n_vars
    ("var_order", lambda a: np.array([0, 3, 1, 4])),
    ("var_order", lambda a: np.array([0, -1, 1, 2])),
    ("var_order", lambda a: a[:3]),
    ("var_order", lambda a: a.astype(np.float64)),
    ("var_index", lambda a: np.array([0, 1, 3, 0])),
    ("var_index", lambda a: np.array([0, -1, 2, 0])),
    ("var_index", lambda a: np.repeat(a, 2)[::2]),
    ("var_index", lambda a: a.tolist()),
    ("chan", lambda a: a[:2]),
    ("chan", lambda a: a.astype(np.float32)),
    ("obs_logmag", lambda a: None),
    ("obs_logmag", lambda a: a[:1]),
    ("obs_neg", lambda a: a.astype(np.uint8)),
    ("obs_neg", lambda a: None),
])
def test_bad_bp_graphs_raise_before_reaching_c(name, bad):
    call = _bp_call()
    call[name] = bad(call[name])
    with pytest.raises(ValueError):
        ckernels.BpPasses(_FAKE, **call, **_BP_CLIPS)


def _draw_call():
    return {"rng": np.random.default_rng(1), "n": 50, "count": 3,
            "thresholds": np.array([10, 20, 1 << 20]),
            "degrees": np.array([1, 2, 40])}


@pytest.mark.parametrize("name, bad", [
    ("rng", lambda r: np.random.RandomState(1)),
    ("n", lambda n: 0),
    ("n", lambda n: 2.0),
    ("count", lambda c: -1),
    ("thresholds", lambda a: np.array([10, 10, 1 << 20])),
    ("thresholds", lambda a: np.array([0, 20, 1 << 20])),
    ("thresholds", lambda a: a[:2]),
    ("thresholds", lambda a: a.astype(np.uint64)),
    ("degrees", lambda a: np.array([0, 2, 40])),
    ("degrees", lambda a: a[::-1]),
])
def test_bad_lt_draws_raise_before_reaching_c(name, bad):
    call = _draw_call()
    call[name] = bad(call[name])
    with pytest.raises(ValueError):
        ckernels.lt_draw(_FAKE, **call)


def test_permuting_lt_draws_raise_before_reaching_c():
    """numpy draws 201 of 10001 by permutation, which C does not mirror."""
    call = dict(_draw_call(), n=10001, degrees=np.array([1, 2, 201]))
    with pytest.raises(ValueError, match="not a Floyd draw"):
        ckernels.lt_draw(_FAKE, **call)


@pytest.mark.parametrize("n, size, count", [
    (0, 0, 1), (5, 6, 1), (5, 2, -1), (20000, 401, 1), (5, 2.0, 1)])
def test_bad_choice_draws_raise_before_reaching_c(n, size, count):
    with pytest.raises(ValueError):
        ckernels.choice_draw(_FAKE, np.random.default_rng(1), n, size, count)


def test_good_bp_graph_and_draws_pass_the_checks():
    """The calls the bad-call cases above start from are valid."""
    _require_compiler()
    module = ckernels.load()
    passes = ckernels.BpPasses(module, **_bp_call(), **_BP_CLIPS)
    passes.edge[:] = 0.25
    passes.magnitudes()
    assert (passes.edge > 0).all()
    offsets, flat = ckernels.lt_draw(module, **_draw_call())
    assert offsets.size == 4 and flat.size == offsets[-1]
    assert ckernels.choice_draw(module, np.random.default_rng(1), 50, 4,
                                3).shape == (3, 4)


def test_unknown_hash_raises_before_reaching_c():
    with pytest.raises(ValueError, match="unknown hash"):
        ckernels.spine_hash(_FAKE, "md5", np.uint32(1), np.uint32(2))


def test_nothing_builds_the_kernels_before_the_first_decode(tmp_path):
    """Importing repro, resolving the backend and building encoders and
    decoders leave the kernels unbuilt, so set-up time never includes a
    build; the first decode builds them."""
    script = (
        "import sys\n"
        "import repro\n"
        "from repro.backend import ckernels, get_backend\n"
        "from repro.core.decoder import BatchBubbleDecoder, BubbleDecoder\n"
        "from repro.core.params import DecoderParams, SpinalParams\n"
        "assert not ckernels._tried, 'import'\n"
        "params, dec = SpinalParams(), DecoderParams(B=4)\n"
        "get_backend(), params.hash_fn, params.make_rng()\n"
        "decoder = BatchBubbleDecoder(params, dec, 16)\n"
        "BubbleDecoder(params, dec, 16)\n"
        "assert not ckernels._tried, 'construction'\n"
        "ckernels.CACHE_ROOT = sys.argv[1]\n"
        "from repro.core.symbols import ReceivedSymbols\n"
        "store = ReceivedSymbols(decoder.n_spine, complex_valued=True)\n"
        "store.add_block([0, 1], [0, 0], [1j, -1.0])\n"
        "decoder.decode(store)\n"
        "assert ckernels._tried, 'decode'\n")
    env = {**os.environ, "PYTHONPATH": _SRC}
    with deadline(120):
        proc = subprocess.run(
            [sys.executable, "-c", script, str(tmp_path / "cache")],
            env=env, capture_output=True, text=True, timeout=100)
    assert proc.returncode == 0, proc.stderr


def test_store_bytes_match_on_both_recursions(tmp_path, monkeypatch):
    from repro.experiments import (
        ChannelSpec, ExperimentSpec, PointSpec, ResultStore, SchemeSpec,
        run_experiment)
    from repro.experiments.catalog import build_spec

    _require_compiler()
    schemes = [("raptor tiny", 20.0, SchemeSpec("raptor", {
                    "k": 256, "constellation": "qam-16"})),
               ("strider tiny", 10.0, SchemeSpec("strider", {
                    "n_bits": 96, "n_layers": 2, "max_passes": 10}))]
    # spinal AWGN, Rayleigh fading with full CSI, and an ARQ link point
    spinal = [build_spec(name).points[0]
              for name in ("smoke", "smoke_fading", "smoke_link")]
    spec = ExperimentSpec(
        experiment_id="ckernels_store", title="compiled vs numpy kernels",
        profile="quick", points=tuple(
            PointSpec(series=label, x=snr, seed=40 + i, scheme=scheme,
                      channel=ChannelSpec("awgn"), n_messages=2,
                      batch_size=2)
            for i, (label, snr, scheme) in enumerate(schemes)) + tuple(
                spinal))
    assert {p.kind for p in spec.points} == {"measure", "link"}
    assert any(p.channel.kind == "rayleigh" for p in spinal)
    # the bubble search enters the kernels through its run and its
    # backtrack, the encoders through the spine chain and the hash
    calls = {"BcjrDecoder.decode": 0, "SpinalPasses._run": 0,
             "SpinalPasses._backtrack": 0, "spine_hash": 0, "spine_chain": 0,
             "BpPasses": 0, "lt_draw": 0, "choice_draw": 0}

    def counted(name, compiled):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return compiled(*args, **kwargs)
        return wrapper

    for name in calls:
        *parents, attr = name.split(".")
        owner = ckernels
        for part in parents:
            owner = getattr(owner, part)
        monkeypatch.setattr(owner, attr, counted(name, getattr(owner, attr)))
    files = {}
    with deadline(240):
        for path in ("compiled", "numpy"):
            store = ResultStore(str(tmp_path / path))
            with mock.patch.object(
                    ckernels, "load",
                    ckernels.load if path == "compiled" else lambda: None):
                run_experiment(spec, store=store, n_workers=1)
            with open(store.path_for(spec), "rb") as f:
                files[path] = f.read()
            if path == "compiled":
                n_compiled = dict(calls)
    assert all(n > 0 for n in n_compiled.values()), n_compiled
    assert calls == n_compiled
    assert files["compiled"] == files["numpy"]
