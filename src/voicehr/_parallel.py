"""Share a take list between the calling process and one forked child.

`map_jobs(fn, takes)` cuts the takes into slices of `TAKES_PER_JOB`
consecutive takes (or of fewer, when the caller asks), one job each, and returns the flattened results of
`fn(slice)` in take order. When there are enough takes to pay back a
child's start-up and the process may use two CPUs, one child started
with the "fork" method shares the jobs: the caller takes slices from the
tail of the list and the child takes them from the head. Both claim
slices under one shared lock, so neither idles while the other still has
slices left, and the two finish at most one slice apart. Every slice
runs once at most. When slices raise, the exception of the first failing
slice in take order is raised, as the in-process run raises it. Where
the platform has no "fork", every slice runs in the calling process.

A slice function runs each of its stages across the slice before it
starts the next, and `Stages` keeps the error rule of a take-by-take
run: a stage runs only on the takes before the first failure so far, so
the error raised is that of the first failing take in take order, from
the first stage that fails within it.

The child inherits the imported modules, `fn` and the slices, so neither
needs to pickle; only the results it sends back do. `fn` must be a pure
function of its slice, so that outputs are the same bytes wherever a
slice runs.

Forking is safe here: the calling process runs one Python thread, and
OpenBLAS, the one library that starts threads of its own, shuts its
thread pool down at a fork (a `pthread_atfork` handler) and starts it
again when it is next needed. On Python 3.12 and later, a fork while
other threads are alive raises a `DeprecationWarning`, which the test
settings turn into an error; whether OpenBLAS's threads set it off there
is not tested, because this code was only run on Python 3.11.
"""

from __future__ import annotations

import itertools
import multiprocessing
import os

# Below this many takes sharing does not pay. The child starts in 5-15 ms,
# and the two processes finish up to one slice, about 40 ms, apart. On a
# 2-vCPU host, shared over in-process time (median of 11) was 1.15 for a
# 60-take extract, 0.87 at 90 and 0.56-0.58 from 120 to 480 takes,
# measured when an extract job was 30 takes; synth, when a job was one
# subject, gave 1.18 at 12 takes (two subjects), 0.70-0.89 from 30 to 90
# and 0.61 at 120.
MIN_SHARED_TAKES = 120
# Takes in one job, unless the caller asks for fewer. A slice runs each
# stage across its takes before the next stage; synth, which holds the
# slice's clips and ECGs until its write stages, cuts shorter slices of
# long takes (`synth.SLICE_SAMPLES`). In-process on a
# 2-vCPU host that made synth 1.38-1.40x and extract 1.11-1.21x as fast as
# one take at a time; 8-take slices gave synth about half of that, and
# 32-take slices in take-by-take order gave nothing.
TAKES_PER_JOB = 32
# Longest wait, in seconds, for the child's results or its exit. When
# the caller waits, the child is running one job at most.
WAIT_S = 600.0


class Stages:
    """Stage-major runs over one slice, with the error rule of a take-by-take run.

    `map(fn, *columns)` calls `fn` on the takes' columns in take order,
    but only on takes before the first failure of any earlier stage, and
    stops at its own first failure. `result(value)` raises the error of
    the first failing take, if any, and otherwise returns `value`.
    """

    def __init__(self):
        self.limit = None  # takes before the first failure so far
        self.error = None

    def map(self, fn, *columns) -> list:
        results = []
        for args in itertools.islice(zip(*columns), self.limit):
            try:
                results.append(fn(*args))
            except Exception as exc:
                # an earlier take than any failure before, or the same
                # take in no earlier stage
                self.limit, self.error = len(results), exc
                break
        return results

    def result(self, value):
        if self.error is not None:
            raise self.error
        return value


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


def map_jobs(fn, takes, takes_per_job: int = TAKES_PER_JOB) -> list:
    """`fn` over slices of `takes_per_job` takes, flattened; shared with one child when it pays."""
    takes = list(takes)
    jobs = [takes[i:i + takes_per_job] for i in range(0, len(takes), takes_per_job)]
    if (len(jobs) < 2 or len(takes) < MIN_SHARED_TAKES
            or len(os.sched_getaffinity(0)) < 2
            or "fork" not in multiprocessing.get_all_start_methods()):
        return [result for job in jobs for result in fn(job)]
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
        results.extend(value)
    return results
