"""Fork-unsafe fixture: a ``concurrent.futures`` worker rebinds a global.

tests/test_lint_contracts.py pins the exact line of the seeded mutation,
reached through ``ProcessPoolExecutor.map``.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor

_MAPPED = 0


def _mapped(job):
    global _MAPPED
    _MAPPED = _MAPPED + 1   # seeded: unguarded worker-side rebind
    return job * 2


def run_all(jobs):
    with ProcessPoolExecutor(max_workers=2) as executor:
        return list(executor.map(_mapped, jobs))
