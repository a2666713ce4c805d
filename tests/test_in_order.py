"""psqr.in_order, the one ordered runner of census blocks, scan slices and
majorant slices, on threads and on processes."""

import multiprocessing
import threading
import time

import pytest

from psqr import in_order

WORKERS = 2


def _square_late_first(task):
    k, count = task
    time.sleep(0.004 * (count - k))  # the earlier the task, the later it ends
    return k * k


def _record(task):
    path, k = task
    time.sleep(0.1 if k else 0.0)
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(f"{k}\n")
    return k


@pytest.mark.parametrize("processes, workers", [
    (False, 1), (False, WORKERS), (True, WORKERS),
], ids=["in-process", "threads", "processes"])
def test_results_come_in_task_order(processes, workers):
    count = 12
    got = list(in_order(_square_late_first, ((k, count) for k in range(count)), workers, processes))
    assert got == [k * k for k in range(count)]


@pytest.mark.parametrize("processes", [False, True], ids=["threads", "processes"])
def test_at_most_two_tasks_per_worker_in_flight(processes):
    drawn = 0

    def tasks():
        nonlocal drawn
        for k in range(20):
            drawn += 1
            yield k, 20

    unconsumed = []
    for consumed, _ in enumerate(in_order(_square_late_first, tasks(), WORKERS, processes)):
        unconsumed.append(drawn - consumed)
    assert max(unconsumed) == 2 * WORKERS and len(unconsumed) == 20


@pytest.mark.parametrize("processes", [False, True], ids=["threads", "processes"])
def test_closing_after_one_result_cancels_and_joins(tmp_path, processes):
    path = str(tmp_path / "ran.txt")
    before = threading.active_count()
    results = in_order(_record, ((path, k) for k in range(20)), WORKERS, processes)
    assert next(results) == 0
    results.close()
    assert threading.active_count() == before
    assert multiprocessing.active_children() == []
    with open(path, encoding="utf-8") as fh:
        ran = sorted(int(line) for line in fh)
    # tasks 0 to 3 were submitted; 3 waits in a thread pool's queue behind the
    # slow 1 and 2 and is cancelled, while a process pool may have handed it on
    assert ran == list(range(len(ran))) and len(ran) <= 2 * WORKERS - (not processes)
