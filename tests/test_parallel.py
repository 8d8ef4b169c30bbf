"""The job map shared between the calling process and one forked child.

In `square_job` each side touches its own marker file and waits for the
other's, so every shared run of it has both processes take part. This
cannot deadlock with two jobs or more: each side claims a job before it
waits, and it can claim only one before the other side has run.
"""

import multiprocessing
import os
import pickle
import time

import pytest

from voicehr import _parallel
from voicehr._parallel import map_jobs

FAILING = {1, 3}


def _wait_for(marker, deadline_s=60.0):
    deadline = time.monotonic() + deadline_s
    while not marker.exists():
        assert time.monotonic() < deadline, f"no job touched {marker.name}"
        time.sleep(0.01)


def square_job(job):
    """(i * i, pid); raises for i in FAILING when asked to, and on a second run."""
    i, workdir, fail = job
    (workdir / f"{i}.ran").touch(exist_ok=False)
    mine, theirs = "child_ran", "caller_ran"
    if multiprocessing.parent_process() is None:
        mine, theirs = theirs, mine
    (workdir / mine).touch()
    _wait_for(workdir / theirs)
    if fail and i in FAILING:
        raise ValueError(f"job {i} failed")
    return i * i, os.getpid()


def stuck_job(job):
    """The child's first job hangs; the caller's wait for its result must not."""
    i, marker = job
    if multiprocessing.parent_process() is not None:
        marker.touch()
        time.sleep(60)
    else:
        _wait_for(marker)
    return i


def dying_job(job):
    i, marker = job
    if multiprocessing.parent_process() is not None:
        marker.touch()
        os._exit(3)
    _wait_for(marker)
    return i


def pid_job(_):
    return os.getpid()


@pytest.fixture
def shared(monkeypatch):
    """Share every job list, whatever the host's CPU count."""
    monkeypatch.setattr(_parallel, "MIN_SHARED_TAKES", 0)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})


class TestMapJobs:
    def test_results_in_job_order(self, shared, tmp_path):
        # many short jobs, so the two processes contend for the shared
        # cursor; a lost update would skip a job or run one twice, and a
        # second run of a job raises
        jobs = [(i, tmp_path, False) for i in range(2000)]
        results = map_jobs(square_job, jobs, n_takes=len(jobs))
        assert [value for value, _ in results] == [i * i for i in range(2000)]
        pids = {pid for _, pid in results}
        assert os.getpid() in pids and len(pids) == 2
        assert multiprocessing.active_children() == []

    def test_first_failing_job_in_order_is_raised(self, shared, tmp_path):
        jobs = [(i, tmp_path, True) for i in range(6)]
        with pytest.raises(ValueError, match=r"^job 1 failed$"):
            map_jobs(square_job, jobs, n_takes=6)
        assert multiprocessing.active_children() == []

    def test_in_process_run_raises_the_same(self, tmp_path):
        (tmp_path / "child_ran").touch()  # no child runs, so the caller must not wait
        jobs = [(i, tmp_path, True) for i in range(6)]
        with pytest.raises(ValueError, match=r"^job 1 failed$"):
            map_jobs(square_job, jobs, n_takes=6)

    def test_wait_for_the_child_times_out(self, shared, monkeypatch, tmp_path):
        monkeypatch.setattr(_parallel, "WAIT_S", 0.5)
        jobs = [(0, tmp_path / "child_ran"), (1, tmp_path / "child_ran")]
        t0 = time.monotonic()
        with pytest.raises(TimeoutError):
            map_jobs(stuck_job, jobs, n_takes=2)
        assert time.monotonic() - t0 < 30
        assert multiprocessing.active_children() == []

    def test_child_that_dies_is_an_error(self, shared, tmp_path):
        jobs = [(0, tmp_path / "child_ran"), (1, tmp_path / "child_ran")]
        with pytest.raises(RuntimeError, match="exited with code 3"):
            map_jobs(dying_job, jobs, n_takes=2)
        assert multiprocessing.active_children() == []

    def test_closure_runs_in_the_child(self, shared, tmp_path):
        offset = 7

        def shifted_square(i):
            value, pid = square_job((i, tmp_path, False))
            return value + offset, pid

        with pytest.raises((pickle.PicklingError, AttributeError)):
            pickle.dumps(shifted_square)  # so a spawned child could not run it
        results = map_jobs(shifted_square, range(4), n_takes=4)
        assert [value for value, _ in results] == [i * i + offset for i in range(4)]
        assert len({pid for _, pid in results}) == 2
        assert multiprocessing.active_children() == []

    def test_without_fork_runs_in_process(self, shared, monkeypatch):
        monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
        assert map_jobs(pid_job, range(3), n_takes=3) == [os.getpid()] * 3

    @pytest.mark.parametrize("cpus, n_takes", [({0}, 10**6), ({0, 1}, 1)])
    def test_one_cpu_or_small_input_runs_in_process(self, monkeypatch, cpus, n_takes):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
        assert map_jobs(pid_job, range(3), n_takes=n_takes) == [os.getpid()] * 3
