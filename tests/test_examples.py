"""Every ``examples/*.py`` script imports against the live library.

``ruff`` cannot see that an example imports a name the library no longer
exports; importing each script does.  The scripts run in one fresh
interpreter under ``run_name="not_main"``, so their ``__main__`` guards
keep the demos themselves from running.
"""

import os
import subprocess
import sys
from pathlib import Path

from repro.backend import ckernels

from deadline import deadline

_ROOT = Path(__file__).resolve().parents[1]
_EXAMPLES = sorted(str(p) for p in (_ROOT / "examples").glob("*.py"))

_IMPORT_ALL = (
    "import runpy, sys\n"
    "from repro.backend import ckernels\n"
    "ckernels.CACHE_ROOT = sys.argv[1]\n"
    "for path in sys.argv[2:]:\n"
    "    runpy.run_path(path, run_name='not_main')\n")


def test_every_example_imports():
    assert _EXAMPLES
    env = {**os.environ, "PYTHONPATH": str(_ROOT / "src")}
    with deadline(150):
        proc = subprocess.run(
            [sys.executable, "-c", _IMPORT_ALL, ckernels.CACHE_ROOT,
             *_EXAMPLES],
            env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
