"""One job spread over worker processes that live as long as the
process, and the process-wide C-library settings that jobs run under.

The package's only source of parallelism: a Monte Carlo cell spreads its
chunks of replications here, a curve CSV write its blocks of rows to
format, and a curve CSV read its byte ranges of rows to parse, over the
workers already pooled (warm_width()).  This module imports nothing
from the package, so each can use it.  It is also the only module that
touches the process's C libraries: one_blas_thread() holds numpy's
bundled OpenBLAS at one thread, in a cell's caller and in each worker,
and glibc's heap thresholds are set (_heap_policy()) by every job, and
by a simulation or a curve CSV read before it makes its arrays.

spread() cuts a job's items into contiguous runs, one per process.  Up
to usable_cpus() - 1 workers are forked the first time a job needs
them, then kept, so later jobs fork nothing.  A worker loops on its
task pipe: it reads a pickled (function, run of items, args), runs it
and writes the pickled list of results to its result pipe.  A pickle
marks its own end, so the pipes carry nothing else.  The rules that
bound a worker's life:

- At interpreter exit the task pipes are closed and every worker is
  reaped, killed if it has not exited after _EXIT_WAIT_S.
- A worker exits by itself at EOF on its task pipe, so a caller that is
  killed leaves no worker behind.
- A worker that cannot be forked, dies, or closes its result pipe
  without a whole answer is dropped and reaped, and the caller runs its
  run.
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
from typing import BinaryIO, Callable, NamedTuple

import numpy as np

# Seconds close() waits for the workers to exit before it kills them.
_EXIT_WAIT_S = 1.0

# glibc's mallopt parameters, and the mmap threshold in bytes: well above
# the 0.3-1.9 MB temporaries that a Monte Carlo chunk allocates and frees.
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_MMAP_THRESHOLD = 8_016_008


class _Worker(NamedTuple):
    """A pooled worker and the caller's ends of its two pipes."""

    pid: int
    tasks: int
    results: BinaryIO


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


def warm_width() -> int:
    """Processes a job can be spread over without forking: the calling
    one and each pooled worker, but no more than usable_cpus()."""
    return min(usable_cpus(), 1 + len(_pool))


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


@contextlib.contextmanager
def one_blas_thread():
    """Hold numpy's bundled OpenBLAS at one thread, then restore its count.
    The pipeline's matrices are small, so BLAS threads gain a cell nothing,
    and between calls they spin on the cores a cell's workers need."""
    get, set_ = openblas_threads() or (lambda: None, lambda count: None)
    count = get()
    set_(1)
    try:
        yield
    finally:
        set_(count)


@functools.cache
def _heap_policy() -> None:
    """Serve allocations under _MMAP_THRESHOLD bytes from glibc's heap and
    return its free top to the system only beyond twice that, where the C
    library has mallopt.  At glibc's default 128 kB threshold each of a
    chunk's temporaries is a fresh mapping, and a serial n = 500, R = 96
    cell at d = 1 took 8208-8213 minor faults, not 0-1; a curve CSV read
    of 1000 x 96 values took about 1100 on every read, not 0 once warm."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes = [ctypes.c_int, ctypes.c_int]
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD)
    mallopt(_M_TRIM_THRESHOLD, 2 * _MMAP_THRESHOLD)


def spread(function: Callable, items: list, *args) -> list:
    """[function(item, *args) for item in items].  The items are cut into
    min(usable_cpus(), len(items)) contiguous runs: the calling process
    runs the first and one pooled worker each other one, forked if the
    pool is short of workers; the worker gets `function` (a module-level
    name), its run and `args` pickled, and pickles its results back.  A
    run that a worker does not deliver is run here, so the result never
    depends on a worker's fate.  With one run, or while another thread's
    job holds the pool, every item runs here.  Sets the heap policy first,
    for this process and the workers it forks."""
    _heap_policy()
    width = min(usable_cpus(), len(items))
    if width < 2 or not _lock.acquire(blocking=False):
        return _run(function, items, args)
    runs = [items[w * len(items) // width:(w + 1) * len(items) // width]
            for w in range(width)]
    busy: dict[int, _Worker] = {}
    try:
        while len(_pool) < width - 1 and _fork():
            pass
        for w, worker in enumerate(_pool[:width - 1], start=1):
            busy[w] = worker
            try:
                _send(worker.tasks, (function, runs[w], args))
            except BrokenPipeError:  # the worker has died
                _drop(busy.pop(w))
        done = _run(function, runs[0], args)
        for w in range(1, width):
            results = _receive(busy[w].results) if w in busy else None
            if results is None:
                if w in busy:
                    _drop(busy.pop(w))
                results = _run(function, runs[w], args)
            else:
                del busy[w]
            done += results
        return done
    finally:
        for worker in busy.values():
            _drop(worker)
        _lock.release()


def _run(function: Callable, items: list, args: tuple) -> list:
    return [function(item, *args) for item in items]


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
        worker.results.close()


def _fork() -> bool:
    """Fork one more worker into the pool; False if that fails.  The
    OpenBLAS lookup is made here first, so that each worker inherits it
    rather than repeating it."""
    openblas_threads()
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
    _pool.append(_Worker(pid, task_write, open(result_read, "rb")))
    return True


def _serve(tasks: int, results: int) -> None:
    """A worker's loop: run each task read from `tasks` and write its
    results to `results`, until EOF on `tasks`.  A task that raises ends
    the worker, and the caller runs that run."""
    with one_blas_thread(), open(tasks, "rb") as reader:
        while (task := _receive(reader)) is not None:
            _send(results, _run(*task))


def _drop(worker: _Worker) -> None:
    """Kill and reap a worker, and take it out of the pool."""
    _pool.remove(worker)
    os.close(worker.tasks)
    worker.results.close()
    os.kill(worker.pid, signal.SIGKILL)
    with contextlib.suppress(ChildProcessError):
        os.waitpid(worker.pid, 0)


def _send(fd: int, message: object) -> None:
    """Write `message` pickled.  The writes are raw: a process forked
    while a message is half written must hold no buffer that it could
    flush into the pipe when it closes its copy."""
    view = memoryview(pickle.dumps(message, pickle.HIGHEST_PROTOCOL))
    while view:
        view = view[os.write(fd, view):]


def _receive(reader: BinaryIO) -> object:
    """Read one pickled message, or None at EOF before its end.  `reader`
    lives as long as its pipe, so bytes it reads ahead stay buffered for
    the next message."""
    try:
        return pickle.load(reader)
    except (EOFError, pickle.UnpicklingError):
        return None


def _forget() -> None:
    """In a forked child: close the pool's pipes and start empty."""
    global _lock
    for worker in _pool:
        os.close(worker.tasks)
        worker.results.close()
    _pool.clear()
    _lock = threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget)
atexit.register(close)
