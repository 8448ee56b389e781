"""Which modules a fresh interpreter loads: scipy only where it computes.

``import repro`` and the spinal (AWGN, fading, BSC), link, Raptor,
Strider and LDPC-envelope point kinds run on numpy alone: the soft
demapper computes its own log-sum-exp.  scipy is imported inside the two
functions that call it (the truncated-Gaussian map's ``ndtr``/``ndtri``
and the Rayleigh capacity's ``exp1``), so a cold process that never calls
them never pays for loading it.  Each check runs in its own interpreter,
because this test session has long since loaded scipy.
"""

import os
import subprocess
import sys

from repro.backend import ckernels

from deadline import deadline

_SRC = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(ckernels.__file__))))

_PRELUDE = (
    "import sys\n"
    "import repro, repro.experiments\n"
    "from repro.backend import ckernels\n"
    "ckernels.CACHE_ROOT = sys.argv[1]\n"
    "def scipy_modules():\n"
    "    return sorted(m for m in sys.modules\n"
    "                  if m == 'scipy' or m.startswith('scipy.'))\n")


def _run(body):
    """Run ``_PRELUDE + body`` in a fresh interpreter that shares this
    session's kernel cache; fail on a non-zero exit."""
    env = {**os.environ, "PYTHONPATH": _SRC}
    with deadline(150):
        proc = subprocess.run(
            [sys.executable, "-c", _PRELUDE + body, ckernels.CACHE_ROOT],
            env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_spinal_bsc_and_link_points_load_no_scipy():
    """Neither importing any repro module nor running the first point of
    ``smoke``, ``smoke_fading``, ``smoke_link`` and ``bsc`` loads scipy."""
    _run(
        "assert not scipy_modules(), scipy_modules()\n"
        "import importlib, pkgutil\n"
        "for module in pkgutil.walk_packages(repro.__path__, 'repro.'):\n"
        "    if not module.name.endswith('__main__'):\n"
        "        importlib.import_module(module.name)\n"
        "assert not scipy_modules(), scipy_modules()\n"
        "from repro.experiments import ExperimentSpec, run_experiment\n"
        "from repro.experiments.catalog import build_spec\n"
        "points = tuple(build_spec(name).points[0] for name in\n"
        "               ('smoke', 'smoke_fading', 'smoke_link', 'bsc'))\n"
        "assert {p.kind for p in points} == {'measure', 'link'}\n"
        "assert {p.channel.kind for p in points} == {'awgn', 'rayleigh', 'bsc'}\n"
        "spec = ExperimentSpec('import_set', 'scipy-free points', 'quick',\n"
        "                      points)\n"
        "run_experiment(spec, n_workers=1)\n"
        "assert not scipy_modules(), scipy_modules()\n")


def test_raptor_strider_and_ldpc_points_load_no_scipy():
    """An AWGN Raptor point, an AWGN Strider point and an LDPC-envelope
    point (the soft demapper, BP, BCJR) load no scipy at all."""
    _run(
        "from repro.experiments import (ChannelSpec, ExperimentSpec,\n"
        "                               PointSpec, SchemeSpec, run_experiment)\n"
        "raptor = SchemeSpec('raptor', {'k': 256, 'constellation': 'qam-16'})\n"
        "strider = SchemeSpec('strider', {'n_bits': 32, 'n_layers': 2,\n"
        "                                 'max_passes': 10})\n"
        "points = tuple(\n"
        "    PointSpec(series=f'{s.kind} tiny', x=20.0, seed=3, scheme=s,\n"
        "              channel=ChannelSpec('awgn'), n_messages=2, batch_size=2)\n"
        "    for s in (raptor, strider))\n"
        "points += (PointSpec(series='ldpc tiny', x=20.0, seed=3,\n"
        "                     kind='ldpc_envelope',\n"
        "                     options={'n_blocks': 1, 'iterations': 2}),)\n"
        "run_experiment(ExperimentSpec('import_set', 'baselines', 'quick',\n"
        "                              points), n_workers=1)\n"
        "assert not scipy_modules(), scipy_modules()\n")


def test_gaussian_map_loads_scipy_special_only():
    """The truncated-Gaussian map loads ``scipy.special`` and nothing of
    ``scipy.stats``."""
    _run(
        "from repro.core.constellation import TruncatedGaussianMapping\n"
        "assert not scipy_modules(), scipy_modules()\n"
        "TruncatedGaussianMapping(6, 1.0, 2.0)\n"
        "loaded = scipy_modules()\n"
        "assert 'scipy.special' in loaded, loaded\n"
        "assert not [m for m in loaded if m.startswith('scipy.stats')], loaded\n")
