"""The one thread runner and CPU/BLAS rule, shared by the noise trials and the 2^N excitation blocks."""

from __future__ import annotations

import os
import threading

# environment variables that cap the BLAS threads of one call, in the order
# OpenBLAS and MKL read them
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS")


def usable_workers(tasks: int) -> int:
    """Threads for ``tasks`` independent tasks: min(tasks, usable CPUs // BLAS threads per call).

    BLAS runs one thread per CPU unless an environment variable caps it, so
    without a cap this is 1; with two BLAS threads per call, two workers ran
    about 9 % slower than one on a 2-CPU Xeon (criterion 8's ``run_mc``:
    7.13 s against 6.55 s, median of 8 runs each).
    """
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    caps = (os.environ.get(var, "") for var in BLAS_THREAD_VARS)
    blas = next((int(v) for v in caps if v.isdigit() and int(v) > 0), cpus)
    return max(1, min(tasks, cpus // blas))


def run_parallel(tasks: int, workers: int, run_task, worker_state=lambda: None) -> None:
    """Call ``run_task(state, task)`` for every task index on ``workers`` threads.

    The calling thread is one of the workers.  Each worker makes its own
    ``state = worker_state()`` once and takes the next task index, in
    ascending order, from a shared counter, so a worker the host stalls
    does not hold the others back.  The first exception of any worker stops
    the others from starting new tasks and is raised here once every helper
    has been joined.
    """
    lock = threading.Lock()
    task_ids = iter(range(tasks))
    errors: list[BaseException] = []

    def work():
        try:
            state = worker_state()
            while True:
                with lock:
                    task = None if errors else next(task_ids, None)
                if task is None:
                    return
                run_task(state, task)
        except BaseException as exc:  # re-raised in the caller
            with lock:
                errors.append(exc)

    helpers = [threading.Thread(target=work, name=f"fcqst-worker-{k}") for k in range(workers - 1)]
    try:
        for thread in helpers:
            thread.start()
        work()
    except BaseException as exc:  # a helper failed to start: stop the others
        with lock:
            errors.append(exc)
        raise
    finally:
        for thread in helpers:
            if thread.ident is not None:  # started
                thread.join()
    if errors:
        raise errors[0]
