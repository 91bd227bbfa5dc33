"""The package's one chunk loop, for every O(n) pass over a progression.

The closed forms give any slice of a progressed suffix array, and of its text,
without the rest, so corpus generation, corpus verification and the progression
certificate run one task per chunk, of the size each caller passes (2**20), in
O(threads x chunk) memory.  One worker runs the tasks in order in the calling
thread; more share a pool kept per worker count and executor class (a forked
child starts afresh).  Generation's tasks return nothing, so all run; the checks
stop at the first failing chunk.
"""

import os
from functools import lru_cache
from itertools import starmap


def spans(lo: int, hi: int, size: int) -> list[tuple[int, int]]:
    """The [start, stop) ranges that cut [lo, hi) into chunks of `size` positions."""
    return [(a, min(a + size, hi)) for a in range(lo, hi, size)]


@lru_cache(maxsize=None)
def _pool(workers: int, executor):
    """The process's pool of `workers` threads (started as tasks need them), kept for reuse."""
    return executor(max_workers=workers)


# A forked child has none of the parent's worker threads: a kept pool would wait forever.
os.register_at_fork(after_in_child=_pool.cache_clear)


def run_until(fn, tasks, threads: int = 1, executor=None):
    """The first truthy fn(*task) in task order, or None; threads > 1 need an `executor` class."""
    if threads == 1:
        return next(filter(None, starmap(fn, tasks)), None)
    futures = [_pool(threads, executor).submit(fn, *task) for task in tasks]
    try:
        return next(filter(None, (future.result() for future in futures)), None)
    finally:  # no task outlives the call: one could still be reading a file the caller changes
        for future in futures:
            if not future.cancel():
                future.exception()
