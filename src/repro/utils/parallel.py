"""Deterministic job-order multiprocessing core.

The experiment orchestrator's worker-pool discipline:

- every job is a self-contained picklable value carrying its own seed, so
  nothing depends on worker identity or scheduling order;
- ``chunksize=1`` keeps shard boundaries independent of worker count;
- results always come back in job order.

Consequently ``n_workers=1`` and ``n_workers=8`` produce byte-identical
output for any deterministic job function — the guarantee
``tests/test_experiments.py`` and ``tests/test_experiment_kinds.py`` lock
in.

The pool is a :class:`concurrent.futures.ProcessPoolExecutor`, not a
``multiprocessing.Pool``: when a worker dies without reporting back
(SIGKILL from the OOM killer, a segfault), ``Pool.imap`` waits forever
for the lost task, while the executor marks every unfinished job failed
with :class:`~concurrent.futures.process.BrokenProcessPool`.
"""

from __future__ import annotations

import os
from typing import Callable, Iterator, Sequence, TypeVar

__all__ = ["imap_jobs", "resolve_workers"]

J = TypeVar("J")
R = TypeVar("R")


def resolve_workers(n_jobs: int, n_workers: int | None) -> int:
    """``None`` means one worker per core, capped by the job count."""
    if n_workers is None:
        n_workers = min(n_jobs, os.cpu_count() or 1)
    return max(1, n_workers)


def imap_jobs(
    fn: Callable[[J], R],
    jobs: Sequence[J],
    n_workers: int | None = None,
) -> Iterator[R]:
    """Yield ``fn(job)`` for each job, in job order, as results complete.

    With one worker (or one job) everything runs inline — handy under
    debuggers and on single-core boxes.  Results stream as they finish so
    callers can persist incrementally (the experiment store flushes after
    every yielded point, which is what makes interrupted sweeps resumable).

    A worker that dies mid-job raises ``BrokenProcessPool`` here, at the
    first job whose result had not been yielded yet.  When a job raises or
    the caller stops iterating, the jobs still running are terminated and
    the rest cancelled, not run.
    """
    n_workers = resolve_workers(len(jobs), n_workers)
    if n_workers <= 1 or len(jobs) <= 1:
        for job in jobs:
            yield fn(job)
        return
    # imported here so one-worker runs skip the process-pool machinery
    from concurrent.futures import ProcessPoolExecutor
    executor = ProcessPoolExecutor(max_workers=n_workers)
    try:
        yield from executor.map(fn, jobs, chunksize=1)
    except BaseException:
        # a failed job, a caller that stopped iterating, or a signal: kill
        # the jobs still running, as ``Pool.terminate`` did, instead of
        # waiting minutes for them in ``shutdown`` (the executor has no
        # public way to do this before Python 3.14's terminate_workers)
        for process in list((executor._processes or {}).values()):
            process.terminate()
        raise
    finally:
        executor.shutdown(wait=True, cancel_futures=True)
