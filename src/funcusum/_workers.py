"""Shares of one job spread over forked worker processes.

The package's only source of parallelism: a Monte Carlo cell deals its
chunks of replications here, and a curve CSV its blocks of rows.  This
module imports nothing from the package, so both can use it.
"""

from __future__ import annotations

import os
import pickle
import signal
from typing import Callable


def usable_cpus() -> int:
    """CPUs this process may run on; 1 where affinity is unknown (macOS,
    Windows), so that nothing forks there."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return 1


def shares(share: Callable[[int], object], width: int) -> list:
    """[share(0), ..., share(width - 1)].  The calling process runs
    share(0); each other share runs in a worker forked for it, which
    pickles its result into a pipe.  A share that a worker does not
    deliver (it could not be forked, died or was killed) is run here, so
    the result never depends on a worker's fate.  Every worker is reaped
    before this returns or raises; on a raise, it is killed first."""
    pids, pipes = {}, {}
    try:
        for w in range(1, width):
            read, write = os.pipe()
            pipes[w] = open(read, "rb")
            try:
                pid = os.fork()
            except OSError:
                os.close(write)
                break
            if pid == 0:  # the worker: never return into the caller
                code = 1
                try:
                    with open(write, "wb") as pipe:
                        pickle.dump(share(w), pipe)
                    code = 0
                finally:
                    os._exit(code)
            os.close(write)
            pids[w] = pid
        done = [share(0)]
        for w in range(1, width):
            status = None
            if w in pids:
                data = pipes[w].read()
                status = os.waitpid(pids[w], 0)[1]
                del pids[w]
            done.append(pickle.loads(data) if status == 0 else share(w))
        return done
    finally:
        for pid in pids.values():
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        for pipe in pipes.values():
            pipe.close()
