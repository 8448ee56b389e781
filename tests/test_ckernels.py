"""Failure paths of the compiled-kernel loader (repro.backend.ckernels).

A build that fails, a cached file that is truncated and two processes
building into one cold cache must all end in working BCJR output, never
in a crash or a hang; every test runs under a ``signal.alarm`` deadline.
The last test runs a tiny Raptor + Strider spec on both recursions and
requires byte-identical store files.
"""

import os
import shutil
import subprocess
import sys
import warnings
from unittest import mock

import numpy as np
import pytest

from repro.backend import BackendFallbackWarning, ckernels
from repro.strider.bcjr import _NEG, BcjrTrellis, _numpy_recursion, max_log_bcjr
from repro.strider.rsc import RscCode

from deadline import deadline

_SRC = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(ckernels.__file__))))


def _bcjr_case(seed=11, t_len=60):
    rng = np.random.default_rng(seed)
    return (BcjrTrellis(RscCode()), rng.normal(size=t_len),
            rng.normal(size=(2, t_len)), rng.normal(size=t_len))


def _require_compiler():
    if ckernels.load() is None:
        pytest.skip("compiled kernels unavailable here")


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
    # nothing half-built is left behind: only the lock file
    assert os.listdir(tmp_path) == [ckernels._module_name() + ".lock"]


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
    rng = np.random.default_rng(2)
    trellis = BcjrTrellis(RscCode())
    slab = rng.normal(size=(30, 2, 16))
    rows = np.zeros((31, 16))
    rows[0] = rng.normal(size=16)
    want = rows.copy()
    ckernels.bcjr_recursion(module, slab, trellis.gather, rows, _NEG)
    _numpy_recursion(slab, trellis.gather, want)
    assert rows.tobytes() == want.tobytes()


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
    assert sorted(os.listdir(root)) == sorted([
        ckernels._module_name() + ".lock", module_file,
        module_file + ".sha256"])


def test_store_bytes_match_on_both_recursions(tmp_path, monkeypatch):
    from repro.experiments import (
        ChannelSpec, ExperimentSpec, PointSpec, ResultStore, SchemeSpec,
        run_experiment)

    _require_compiler()
    schemes = [("raptor tiny", 20.0, SchemeSpec("raptor", {
                    "k": 256, "constellation": "qam-16"})),
               ("strider tiny", 10.0, SchemeSpec("strider", {
                    "n_bits": 96, "n_layers": 2, "max_passes": 10}))]
    spec = ExperimentSpec(
        experiment_id="ckernels_store", title="compiled vs numpy BCJR",
        profile="quick", points=tuple(
            PointSpec(series=label, x=snr, seed=40 + i, scheme=scheme,
                      channel=ChannelSpec("awgn"), n_messages=2,
                      batch_size=2)
            for i, (label, snr, scheme) in enumerate(schemes)))
    calls = []
    compiled = ckernels.bcjr_recursion

    def counted(*args):
        calls.append(1)
        compiled(*args)

    monkeypatch.setattr(ckernels, "bcjr_recursion", counted)
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
                n_compiled = len(calls)
    assert n_compiled > 0 and len(calls) == n_compiled
    assert files["compiled"] == files["numpy"]
