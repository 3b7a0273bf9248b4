"""Shares of one job spread over worker processes that live as long as
the process.

The package's only source of parallelism: a Monte Carlo cell deals its
chunks of replications here, and a curve CSV its blocks of rows.  This
module imports nothing from the package, so both can use it.

Up to usable_cpus() - 1 workers are forked the first time a job needs
them, then kept, so later jobs fork nothing.  A worker holds numpy's
bundled OpenBLAS at one thread and loops on its task pipe: it reads a
pickled (function, args), runs it and writes the pickled result to its
result pipe.  The rules that bound a worker's life:

- At interpreter exit the task pipes are closed and every worker is
  reaped, killed if it has not exited after _EXIT_WAIT_S.
- A worker exits by itself at EOF on its task pipe, so a caller that is
  killed leaves no worker behind.
- A worker that cannot be forked, dies, or closes its result pipe
  without a whole answer is dropped and reaped, and the caller runs its
  share.
- When the caller raises, the workers still busy are killed, reaped and
  dropped.
- A process forked from the caller, a new worker included, closes the
  pool's pipes it inherits and starts with an empty pool.
"""

from __future__ import annotations

import atexit
import contextlib
import ctypes
import functools
import glob
import os
import pickle
import signal
import threading
import time
from typing import Callable, NamedTuple

import numpy as np

# Seconds close() waits for the workers to exit before it kills them.
_EXIT_WAIT_S = 1.0
# Bytes of the length that prefixes each message on a pipe.
_HEADER = 8


class _Worker(NamedTuple):
    """A pooled worker and the caller's ends of its two pipes."""

    pid: int
    tasks: int
    results: int


_pool: list[_Worker] = []
# Held by the thread whose job the pool runs; a job that finds it held
# runs in its own thread, so two jobs never share a worker's pipes.
_lock = threading.Lock()


def usable_cpus() -> int:
    """CPUs this process may run on; 1 where affinity is unknown (macOS,
    Windows), so that nothing forks there."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return 1


@functools.cache
def openblas_threads() -> tuple[Callable, Callable] | None:
    """The get and set thread-count functions of numpy's bundled OpenBLAS,
    or None where they are not found (numpy built against another BLAS)."""
    site = os.path.dirname(os.path.dirname(np.__file__))
    for path in glob.glob(f"{site}/numpy.libs/libscipy_openblas*.so"):
        with contextlib.suppress(OSError, AttributeError):
            lib = ctypes.CDLL(path)
            get = lib.scipy_openblas_get_num_threads64_
            set_ = lib.scipy_openblas_set_num_threads64_
            get.argtypes, get.restype = [], ctypes.c_int
            set_.argtypes, set_.restype = [ctypes.c_int], None
            return get, set_
    return None


def shares(function: Callable, args: list[tuple]) -> list:
    """[function(*a) for a in args].  The calling process runs the first
    share and one pooled worker each other one, forked if the pool is
    short of workers; the worker gets `function` (a module-level name),
    its arguments and its result pickled.  A share that a worker does not
    deliver is run here, so the result never depends on a worker's fate.
    With one share, or while another thread's job holds the pool, every
    share runs here."""
    if len(args) < 2 or not _lock.acquire(blocking=False):
        return [function(*a) for a in args]
    busy: dict[int, _Worker] = {}
    try:
        while len(_pool) < len(args) - 1 and _fork():
            pass
        for w, worker in enumerate(_pool[:len(args) - 1], start=1):
            busy[w] = worker
            try:
                _send(worker.tasks, pickle.dumps((function, args[w]),
                                                 pickle.HIGHEST_PROTOCOL))
            except BrokenPipeError:  # the worker has died
                _drop(busy.pop(w))
        done = [function(*args[0])]
        for w in range(1, len(args)):
            data = _receive(busy[w].results) if w in busy else None
            if data is None:
                if w in busy:
                    _drop(busy.pop(w))
                done.append(function(*args[w]))
            else:
                del busy[w]
                done.append(pickle.loads(data))
        return done
    finally:
        for worker in busy.values():
            _drop(worker)
        _lock.release()


def close() -> None:
    """Close every worker's task pipe and reap the workers, killing any
    that has not exited after _EXIT_WAIT_S.  Runs at interpreter exit;
    the next job after it forks a new pool."""
    workers = _pool[:]
    _pool.clear()
    for worker in workers:
        os.close(worker.tasks)
    deadline = time.monotonic() + _EXIT_WAIT_S
    for worker in workers:
        with contextlib.suppress(ChildProcessError):
            while os.waitpid(worker.pid, os.WNOHANG)[0] == 0:
                if time.monotonic() > deadline:
                    os.kill(worker.pid, signal.SIGKILL)
                    os.waitpid(worker.pid, 0)
                    break
                time.sleep(0.001)
        os.close(worker.results)


def _fork() -> bool:
    """Fork one more worker into the pool; False if that fails."""
    fds: list[int] = []
    try:
        fds += os.pipe()
        fds += os.pipe()
        pid = os.fork()
    except OSError:
        for fd in fds:
            os.close(fd)
        return False
    task_read, task_write, result_read, result_write = fds
    if pid == 0:  # the worker: never return into the caller
        code = 1
        try:
            os.close(task_write)
            os.close(result_read)
            _serve(task_read, result_write)
            code = 0
        finally:
            os._exit(code)
    os.close(task_read)
    os.close(result_write)
    _pool.append(_Worker(pid, task_write, result_read))
    return True


def _serve(tasks: int, results: int) -> None:
    """A worker's loop: run each task read from `tasks` and write its
    result to `results`, until EOF on `tasks`.  A task that raises ends
    the worker, and the caller runs that share."""
    _, set_ = openblas_threads() or (None, lambda count: None)
    set_(1)
    while (task := _receive(tasks)) is not None:
        function, args = pickle.loads(task)
        _send(results, pickle.dumps(function(*args), pickle.HIGHEST_PROTOCOL))


def _drop(worker: _Worker) -> None:
    """Kill and reap a worker, and take it out of the pool."""
    _pool.remove(worker)
    os.close(worker.tasks)
    os.close(worker.results)
    os.kill(worker.pid, signal.SIGKILL)
    with contextlib.suppress(ChildProcessError):
        os.waitpid(worker.pid, 0)


def _send(fd: int, data: bytes) -> None:
    """Write one message: its length, then `data`."""
    for part in (len(data).to_bytes(_HEADER, "little"), data):
        view = memoryview(part)
        while view:
            view = view[os.write(fd, view):]


def _receive(fd: int) -> bytearray | None:
    """Read one message, or None at EOF before its last byte."""
    size = _read(fd, _HEADER)
    return None if size is None else _read(fd, int.from_bytes(size, "little"))


def _read(fd: int, size: int) -> bytearray | None:
    buf = bytearray()
    while len(buf) < size:
        part = os.read(fd, size - len(buf))
        if not part:
            return None
        buf += part
    return buf


def _forget() -> None:
    """In a forked child: close the pool's pipes and start empty."""
    global _lock
    for worker in _pool:
        os.close(worker.tasks)
        os.close(worker.results)
    _pool.clear()
    _lock = threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget)
atexit.register(close)
