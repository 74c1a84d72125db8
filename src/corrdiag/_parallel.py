"""Worker threads and the one memory guard shared by every parallel loop.

Memory guard: an entry point whose arrays grow with its input states the
bytes each worker holds and the bytes the call shares, and `check_memory`
refuses it before anything is allocated when workers(jobs) * per_worker +
shared exceeds MEMORY_GUARD.  Only the workers `parallel_map` really
starts are counted, never more than the jobs.  Each caller's docstring
says what it counts.
"""

import os
from concurrent.futures import ThreadPoolExecutor

ENV_VAR = "CORRDIAG_THREADS"
MEMORY_GUARD = 2**30  # bytes of arrays one call may hold, all its workers together


def thread_count() -> int:
    """Worker threads requested via the CORRDIAG_THREADS env var (default 1)."""
    raw = os.environ.get(ENV_VAR, "1")
    try:
        value = int(raw)
    except ValueError:
        value = 0
    if value < 1:
        raise ValueError(f"{ENV_VAR} must be a positive integer, got {raw!r}")
    return value


def workers(jobs: int) -> int:
    """Threads `parallel_map` starts for ``jobs`` jobs."""
    return min(thread_count(), jobs)


def check_memory(what: str, per_worker: int, shared: int = 0, jobs: int = 1) -> None:
    """Refuse a call whose workers and shared arrays would exceed MEMORY_GUARD."""
    count = workers(jobs)
    need = count * per_worker + shared
    if need > MEMORY_GUARD:
        raise ValueError(f"{what} needs about {need / 2**20:.0f} MiB of arrays on {count} "
                         f"worker(s), over the memory guard of {MEMORY_GUARD / 2**20:.0f} MiB")


def parallel_map(fn, jobs):
    """Map fn over jobs on workers(len(jobs)) threads.

    Results come back in job order, so aggregation downstream is
    deterministic no matter how the work was scheduled.
    """
    jobs = list(jobs)
    count = workers(len(jobs))
    if count <= 1:
        return [fn(job) for job in jobs]
    with ThreadPoolExecutor(max_workers=count) as pool:
        return list(pool.map(fn, jobs))
