"""Share a job list between the calling process and one spawned child.

`map_jobs(fn, jobs, n_takes)` returns `[fn(job) for job in jobs]`. When
the work is big enough to pay back a child's start-up and the process
may use two CPUs, one child started with the "spawn" method shares it:
the caller takes jobs from the tail of the list and the child, once it
has imported, takes them from the head. Both claim jobs under one shared
lock, so the caller never idles while the child starts and neither idles
while the other still has jobs left. Every job runs once at most. When
jobs raise, the exception of the first failing job in job order is
raised, as the in-process run raises it.

`fn` and the jobs must pickle, and `fn` must be a pure function of its
job, so that outputs are the same bytes wherever a job runs.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle

# Below this many takes the child cannot pay back its start-up: spawn
# re-imports numpy and scipy, 1.2-2 s on a 2-vCPU host, where sharing
# broke even near 1000 takes of synth or extract (see CHANGES.md).
MIN_SHARED_TAKES = 1200
# Longest wait, in seconds, for the child's results or its exit. When
# the caller waits, the child is running one job at most.
WAIT_S = 600.0


def _run(fn, job):
    try:
        return True, fn(job)
    except Exception as exc:
        return False, exc


def _child_main(payload, cursor, sender) -> None:
    """Claim jobs from the head of `[cursor[0], cursor[1])`; send the outcomes."""
    fn, jobs = pickle.loads(payload.raw)
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


def map_jobs(fn, jobs, n_takes: int) -> list:
    """`[fn(job) for job in jobs]`, shared with one child when it pays."""
    jobs = list(jobs)
    if (n_takes < MIN_SHARED_TAKES or len(jobs) < 2
            or len(os.sched_getaffinity(0)) < 2):
        return [fn(job) for job in jobs]
    ctx = multiprocessing.get_context("spawn")
    # The jobs go through shared memory: in the start-up pipe, more than
    # its 64 KiB would block `start()` until the child had imported.
    data = pickle.dumps((fn, jobs), protocol=pickle.HIGHEST_PROTOCOL)
    payload = ctx.RawArray("c", len(data))
    payload.raw = data
    cursor = ctx.Array("q", [0, len(jobs)])  # jobs [head, tail) are unclaimed
    receiver, sender = ctx.Pipe(duplex=False)
    child = ctx.Process(target=_child_main, args=(payload, cursor, sender),
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
            # it is still importing and can claim nothing, or it timed out
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
