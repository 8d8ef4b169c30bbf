"""Share a job list between the calling process and one forked child.

`map_jobs(fn, jobs)` returns `[fn(job) for job in jobs]`. When there
are enough jobs to pay back a child's start-up and the process may use
two CPUs, one child started with the "fork" method shares them:
the caller takes jobs from the tail of the list and the child takes them
from the head. Both claim jobs under one shared lock, so neither idles
while the other still has jobs left. Every job runs once at most. When
jobs raise, the exception of the first failing job in job order is
raised, as the in-process run raises it. Where the platform has no
"fork", every job runs in the calling process. In both `synth` and
`extract` a job is one take, so `MIN_SHARED_TAKES` counts jobs, and the
two processes finish at most one take apart.

The child inherits the imported modules, `fn` and the jobs, so neither
needs to pickle; only the results it sends back do. `fn` must be a pure
function of its job, so that outputs are the same bytes wherever a job
runs.

Forking is safe here: the calling process runs one Python thread, and
OpenBLAS, the one library that starts threads of its own, shuts its
thread pool down at a fork (a `pthread_atfork` handler) and starts it
again when it is next needed. On Python 3.12 and later, a fork while
other threads are alive raises a `DeprecationWarning`, which the test
settings turn into an error; whether OpenBLAS's threads set it off there
is not tested, because this code was only run on Python 3.11.
"""

from __future__ import annotations

import multiprocessing
import os

# Below this many takes sharing does not pay. The child starts in 5-15 ms,
# and the two processes finish up to one job, one take, apart. On a
# 2-vCPU host, shared over in-process time (median of 11) was 1.15 for a
# 60-take extract, 0.87 at 90 and 0.56-0.58 from 120 to 480 takes,
# measured when an extract job was 30 takes; synth, when a job was one
# subject, gave 1.18 at 12 takes (two subjects), 0.70-0.89 from 30 to 90
# and 0.61 at 120.
MIN_SHARED_TAKES = 120
# Longest wait, in seconds, for the child's results or its exit. When
# the caller waits, the child is running one job at most.
WAIT_S = 600.0


def _run(fn, job):
    try:
        return True, fn(job)
    except Exception as exc:
        return False, exc


def _child_main(fn, jobs, cursor, sender) -> None:
    """Claim jobs from the head of `[cursor[0], cursor[1])`; send the outcomes."""
    outcomes = {}
    while True:
        with cursor.get_lock():
            i = cursor[0]
            if i >= cursor[1]:
                break
            cursor[0] = i + 1
        outcomes[i] = _run(fn, jobs[i])
        if not outcomes[i][0]:
            # the caller's jobs all come later in job order, so none of
            # their outcomes can matter any more
            with cursor.get_lock():
                cursor[1] = min(cursor[1], i)
    sender.send(outcomes)
    sender.close()


def map_jobs(fn, jobs) -> list:
    """`[fn(job) for job in jobs]`, shared with one child when it pays."""
    jobs = list(jobs)
    if (len(jobs) < max(2, MIN_SHARED_TAKES)
            or len(os.sched_getaffinity(0)) < 2
            or "fork" not in multiprocessing.get_all_start_methods()):
        return [fn(job) for job in jobs]
    ctx = multiprocessing.get_context("fork")
    cursor = ctx.Array("q", [0, len(jobs)])  # jobs [head, tail) are unclaimed
    receiver, sender = ctx.Pipe(duplex=False)
    child = ctx.Process(target=_child_main, args=(fn, jobs, cursor, sender),
                        name="voicehr-jobs", daemon=True)
    child.start()
    sender.close()
    try:
        outcomes = {}
        while True:
            with cursor.get_lock():
                i = cursor[1] - 1
                if i < cursor[0]:
                    child_took = cursor[0] > 0
                    break
                cursor[1] = i
            outcomes[i] = _run(fn, jobs[i])
        if child_took:
            if not receiver.poll(WAIT_S):
                raise TimeoutError(f"job child sent no results within {WAIT_S:g} s")
            try:
                outcomes.update(receiver.recv())
            except EOFError:
                child.join(WAIT_S)
                raise RuntimeError(f"job child exited with code {child.exitcode} "
                                   "before sending its results") from None
            child.join(WAIT_S)
    finally:
        if child.is_alive():
            # it has claimed nothing and can claim nothing more, or it timed out
            child.kill()
            child.join(WAIT_S)
        receiver.close()
    results = []
    for i in range(len(jobs)):
        ok, value = outcomes[i]
        if not ok:
            raise value
        results.append(value)
    return results
