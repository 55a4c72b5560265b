import os
import time

import numpy as np
import pytest

from leapborrow import ValidationError
from leapborrow.pool import (
    map_tasks,
    openblas_thread_counts,
    pool_size,
    single_thread_blas,
    worker_pool,
)


def _worker_report():
    a = np.random.default_rng(0).random((300, 300))
    a @ a  # a BLAS call large enough to use helper threads if any were allowed
    # long enough that the second task goes to the other idle worker
    time.sleep(0.5)
    return os.getpid(), openblas_thread_counts(), len(os.listdir("/proc/self/task"))


def test_pool_workers_run_single_threaded_blas():
    parent = openblas_thread_counts()
    if not parent:
        pytest.skip("no OpenBLAS loaded in this process")
    with worker_pool(2) as pool:
        reports = [f.result(timeout=60) for f in [pool.submit(_worker_report) for _ in range(2)]]
    assert len({pid for pid, _, _ in reports}) == 2
    for _, counts, threads in reports:
        assert counts == [1] * len(parent)
        assert threads == 1  # no idle OpenBLAS helper threads left running
    assert openblas_thread_counts() == parent


def test_initializer_without_openblas_is_a_no_op(monkeypatch):
    import leapborrow.pool as pool_mod

    monkeypatch.setattr(pool_mod, "_loaded_openblas_paths", lambda: [])
    single_thread_blas()
    assert pool_mod.openblas_thread_counts() == []


@pytest.mark.parametrize(
    "workers, tasks, cpus, size",
    [(1, 10, 8, 1), (4, 10, 8, 4), (64, 3, 8, 3), (64, 100, 2, 2), (2, 1, 8, 1), (3, 5, None, 1)],
)
def test_pool_size_is_bounded_by_tasks_and_cpus(monkeypatch, workers, tasks, cpus, size):
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    assert pool_size(workers, tasks) == size


@pytest.mark.parametrize("workers", [0, -2])
def test_pool_size_rejects_fewer_than_one_worker(workers):
    with pytest.raises(ValidationError, match="workers must be >= 1"):
        pool_size(workers, 4)


def _task_report(x):
    return x * x, os.getpid()


@pytest.mark.parametrize("workers", [1, 2])
def test_map_tasks_yields_results_in_task_order(workers):
    results = list(map_tasks(_task_report, list(range(7)), workers))
    assert [r for r, _ in results] == [x * x for x in range(7)]
    pids = {pid for _, pid in results}
    if workers == 1:
        assert pids == {os.getpid()}  # one worker runs the tasks in this process
    else:
        assert os.getpid() not in pids


def test_map_tasks_rejects_fewer_than_one_worker():
    with pytest.raises(ValidationError, match="workers must be >= 1"):
        next(map_tasks(_task_report, [1, 2], 0))
