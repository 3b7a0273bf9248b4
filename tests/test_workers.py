"""`_workers.spread` returns what running its items in the calling process
returns, whichever processes run them and whatever becomes of those.

The cell and curve-CSV tests (test_batch.py, test_basis.py) cover the
pool's lifecycle through its two callers; these cover `spread` itself and
the framing of its pipes, where a pickle must cross many pipe reads and a
worker may die halfway through writing one.
"""

import itertools
import os
import pickle
import random

import pytest

from funcusum import _workers

from conftest import assert_gone, assert_no_child, count_forks, pool_pids


def tagged(item, *args):
    return item, args


def process_id(item):
    return os.getpid()


def megabyte(item):
    """A MiB of bytes that depend on `item`: its pickle spans many pipe
    reads, and a bad byte anywhere shows."""
    return random.Random(item).randbytes(1 << 20)


@pytest.mark.parametrize("count", [1, 2, 3])
def test_spread_equals_the_list_comprehension(cpus, monkeypatch, count):
    # The sizes grow, so each call forks only what it needs beyond the
    # pool the last one left: min(count, size) - 1 workers in all.  The
    # items are dealt in contiguous runs of near-equal length, the first
    # to the calling process and one to each worker.
    cpus(count)
    forks = count_forks(monkeypatch)
    for size in range(8):
        items = [f"item {i}" for i in range(size)]
        assert (_workers.spread(tagged, items, 5, "x")
                == [tagged(item, 5, "x") for item in items])
        width = min(count, size)
        assert forks == [os.getpid()] * max(0, width - 1)
        pids = _workers.spread(process_id, items)
        runs = [len(list(run)) for _, run in itertools.groupby(pids)]
        assert list(dict.fromkeys(pids)) == [os.getpid(), *pool_pids()][:width]
        assert len(runs) == width
        assert max(runs, default=0) - min(runs, default=0) <= 1


def test_a_megabyte_result_comes_back_whole(cpus):
    cpus(3)
    items = [1, 2, 3, 4, 5]
    assert _workers.spread(megabyte, items) == [megabyte(i) for i in items]
    assert len(pool_pids()) == 2


def test_run_of_a_worker_that_dies_mid_answer_is_redone_by_the_caller(
        cpus, monkeypatch):
    # Each worker writes half of its answer's pickle, over a MiB, and
    # exits: the caller reads a truncated pickle, drops and reaps the
    # worker, and runs its run itself.  The next job forks new workers.
    cpus(3)
    caller = os.getpid()
    send = _workers._send
    busy = set()

    def half_then_exit(fd, message):
        if os.getpid() == caller:
            busy.update(pool_pids())
            return send(fd, message)
        view = memoryview(pickle.dumps(message, pickle.HIGHEST_PROTOCOL))
        view = view[:len(view) // 2]
        while view:
            view = view[os.write(fd, view):]
        os._exit(0)

    monkeypatch.setattr(_workers, "_send", half_then_exit)
    items = [1, 2, 3]
    assert _workers.spread(megabyte, items) == [megabyte(i) for i in items]
    assert len(busy) == 2 and pool_pids() == []
    assert_no_child()
    assert_gone(busy)
    monkeypatch.setattr(_workers, "_send", send)
    assert _workers.spread(megabyte, items) == [megabyte(i) for i in items]
    assert len(pool_pids()) == 2 and not set(pool_pids()) & busy
