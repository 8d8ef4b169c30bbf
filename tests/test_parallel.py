"""The take map shared between the calling process and one forked child.

`map_jobs` hands its slice functions slices of `TAKES_PER_JOB` takes. In
`square_slice` each side touches its own marker file and waits for the
other's, so every shared run of it has both processes take part. This
cannot deadlock with two slices or more: each side claims a slice before
it waits, and it can claim only one before the other side has run.
"""

import multiprocessing
import os
import pickle
import time

import pytest

from voicehr import _parallel
from voicehr._parallel import TAKES_PER_JOB, map_jobs

# in the second and third of four slices
FAILING = {40, 70}
N_TAKES = 4 * TAKES_PER_JOB


def _wait_for(marker, deadline_s=60.0):
    deadline = time.monotonic() + deadline_s
    while not marker.exists():
        assert time.monotonic() < deadline, f"no job touched {marker.name}"
        time.sleep(0.01)


def square_slice(takes):
    """(i * i, pid) a take; raises for the first i in FAILING when asked to, and on a second run."""
    workdir = takes[0][1]
    for i, _, _ in takes:
        (workdir / f"{i}.ran").touch(exist_ok=False)
    mine, theirs = "child_ran", "caller_ran"
    if multiprocessing.parent_process() is None:
        mine, theirs = theirs, mine
    (workdir / mine).touch()
    _wait_for(workdir / theirs)
    for i, _, fail in takes:
        if fail and i in FAILING:
            raise ValueError(f"take {i} failed")
    return [(i * i, os.getpid()) for i, _, _ in takes]


def stuck_slice(takes):
    """The child's first slice hangs; the caller's wait for its result must not."""
    marker = takes[0][1]
    if multiprocessing.parent_process() is not None:
        marker.touch()
        time.sleep(60)
    else:
        _wait_for(marker)
    return [i for i, _ in takes]


def dying_slice(takes):
    marker = takes[0][1]
    if multiprocessing.parent_process() is not None:
        marker.touch()
        os._exit(3)
    _wait_for(marker)
    return [i for i, _ in takes]


def pid_slice(takes):
    return [os.getpid()] * len(takes)


class TestMapJobs:
    def test_takes_are_cut_into_slices(self):
        # consecutive takes, TAKES_PER_JOB to a slice and the rest in the
        # last, each result in the place of its take
        results = map_jobs(lambda takes: [(takes[0], len(takes))] * len(takes),
                           range(2 * TAKES_PER_JOB + 6))
        assert results == ([(0, TAKES_PER_JOB)] * TAKES_PER_JOB
                           + [(TAKES_PER_JOB, TAKES_PER_JOB)] * TAKES_PER_JOB
                           + [(2 * TAKES_PER_JOB, 6)] * 6)

    def test_results_in_job_order(self, shared, tmp_path):
        # 2000 one-take slices, so the two processes contend for the shared
        # cursor; a lost update would skip a slice or run one twice, and a
        # second run of a take raises
        jobs = [(i, tmp_path, False) for i in range(2000)]
        results = map_jobs(square_slice, jobs, takes_per_job=1)
        assert [value for value, _ in results] == [i * i for i in range(2000)]
        pids = {pid for _, pid in results}
        assert os.getpid() in pids and len(pids) == 2
        assert multiprocessing.active_children() == []

    def test_first_failing_job_in_order_is_raised(self, shared, tmp_path):
        jobs = [(i, tmp_path, True) for i in range(N_TAKES)]
        with pytest.raises(ValueError, match=r"^take 40 failed$"):
            map_jobs(square_slice, jobs)
        assert multiprocessing.active_children() == []

    def test_in_process_run_raises_the_same(self, tmp_path):
        (tmp_path / "child_ran").touch()  # no child runs, so the caller must not wait
        jobs = [(i, tmp_path, True) for i in range(N_TAKES)]
        with pytest.raises(ValueError, match=r"^take 40 failed$"):
            map_jobs(square_slice, jobs)

    def test_wait_for_the_child_times_out(self, shared, monkeypatch, tmp_path):
        monkeypatch.setattr(_parallel, "WAIT_S", 0.5)
        jobs = [(i, tmp_path / "child_ran") for i in range(N_TAKES)]
        t0 = time.monotonic()
        with pytest.raises(TimeoutError):
            map_jobs(stuck_slice, jobs)
        assert time.monotonic() - t0 < 30
        assert multiprocessing.active_children() == []

    def test_child_that_dies_is_an_error(self, shared, tmp_path):
        jobs = [(i, tmp_path / "child_ran") for i in range(N_TAKES)]
        with pytest.raises(RuntimeError, match="exited with code 3"):
            map_jobs(dying_slice, jobs)
        assert multiprocessing.active_children() == []

    def test_closure_runs_in_the_child(self, shared, tmp_path):
        offset = 7

        def shifted_square(takes):
            squares = square_slice([(i, tmp_path, False) for i in takes])
            return [(value + offset, pid) for value, pid in squares]

        with pytest.raises((pickle.PicklingError, AttributeError)):
            pickle.dumps(shifted_square)  # so a spawned child could not run it
        results = map_jobs(shifted_square, range(N_TAKES))
        assert [value for value, _ in results] == [i * i + offset for i in range(N_TAKES)]
        assert len({pid for _, pid in results}) == 2
        assert multiprocessing.active_children() == []

    def test_without_fork_runs_in_process(self, shared, monkeypatch):
        monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
        assert map_jobs(pid_slice, range(N_TAKES)) == [os.getpid()] * N_TAKES

    # one CPU; one slice; two slices but fewer takes than MIN_SHARED_TAKES
    @pytest.mark.parametrize("cpus, min_shared", [({0}, 0), ({0, 1}, 4), ({0, 1}, N_TAKES + 1)])
    def test_one_cpu_or_small_input_runs_in_process(self, monkeypatch, cpus, min_shared):
        monkeypatch.setattr(_parallel, "MIN_SHARED_TAKES", min_shared)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
        n_takes = min_shared - 1 if min_shared else N_TAKES
        assert map_jobs(pid_slice, range(n_takes)) == [os.getpid()] * n_takes
