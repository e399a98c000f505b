"""Ordered fork-join: items computed in two processes, consumed in order.

:func:`fork_join` runs ``work(i) -> bytes`` for i = 0..n-1 and hands
each result to ``consume(i, result)`` in index order.  The caller
computes item 0 and times it.  When the rest of the work pays for a
fork (:func:`process_count`), one child is forked that computes the
odd items in order and writes each result to a pipe, and the caller
computes the even items and reads each odd one from the pipe when its
turn comes.  Every result has the byte length of item 0, so a result
needs no header.  A process holds one item at a time, whatever n is,
and the consumer sees the same results in the same order with or
without the child.

The child leaves through ``os._exit`` on every path, so no buffer it
inherited is flushed twice, and it writes nothing to stdout or stderr;
in it, warnings are errors, and a result of another length than item
0's ends it.  When the child exits, is killed or sends a short result
before all of its items are read, the caller computes the rest of them
itself, so an exception or a warning surfaces in the caller as it
would with no child.  The same holds for a child that could not be
started (no pipe or no fork).  The child is killed and reaped before
the call returns or raises, including when the caller fails between
the fork and the child's registration.
"""

from __future__ import annotations

import os
import signal
import sys
import time
import warnings
from typing import BinaryIO, Callable

# A process's least share of the work, in seconds: four to five forks
# and joins of a 100-150 MB process (4-5 ms each on a 2-CPU x86 host).
_SHARE_S = 0.02


def process_count(n: int, item_s: float) -> int:
    """2 when :func:`fork_join` forks a child for ``n`` items that take
    ``item_s`` seconds each, else 1: on Linux with ``os.fork``, with at
    least two CPUs this process may run on, and when each process gets
    at least ``_SHARE_S`` of the items after the first.  Two is the only
    count that was measured (on a 2-CPU host)."""
    forks = (sys.platform == "linux" and hasattr(os, "fork") and n > 1
             and len(os.sched_getaffinity(0)) > 1 and (n - 1) * item_s >= 2 * _SHARE_S)
    return 2 if forks else 1


def _spawn(work: Callable[[int], bytes], n: int, size: int) -> tuple[int, BinaryIO] | None:
    # the child computing the odd items and the read end of its pipe, or
    # None when no pipe or no process could be had
    try:
        read_fd, write_fd = os.pipe()
    except OSError:
        return None
    pid = -1
    try:
        with warnings.catch_warnings():
            # Python >= 3.12 warns about forking a process with threads
            # (OpenBLAS starts some); the child uses none of them
            warnings.simplefilter("ignore", DeprecationWarning)
            pid = os.fork()
        if pid == 0:
            # the child's whole life: it leaves through ``os._exit``,
            # here or, on any exception, in the handler below
            os.close(read_fd)
            warnings.simplefilter("error")
            with open(write_fd, "wb") as pipe:
                for i in range(1, n, 2):
                    result = work(i)
                    if len(result) != size:
                        break
                    pipe.write(result)
                    pipe.flush()
            os._exit(0)
        os.close(write_fd)
        write_fd = -1
        return pid, open(read_fd, "rb")
    except BaseException as error:
        if pid == 0:
            os._exit(1)
        if pid > 0:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        for fd in (read_fd, write_fd):
            if fd >= 0:
                os.close(fd)
        if pid > 0 or not isinstance(error, OSError):
            raise
        return None


def fork_join(n: int, work: Callable[[int], bytes],
              consume: Callable[[int, bytes], object]) -> int:
    """``consume(i, work(i))`` for i = 0..n-1 in index order, the odd
    items computed in a child when :func:`process_count` is 2; returns
    the number of processes that started."""
    if n == 0:
        return 1
    start = time.perf_counter()
    result = work(0)
    item_s = time.perf_counter() - start
    consume(0, result)
    size = len(result)
    # with empty results, a child that left would look like one that sent
    child = _spawn(work, n, size) if size and process_count(n, item_s) == 2 else None
    try:
        for i in range(1, n):
            # a short read: the child has left, and no more comes from it
            result = child[1].read(size) if child is not None and i % 2 else None
            if result is None or len(result) < size:
                result = work(i)
            consume(i, result)
    finally:
        if child is not None:
            os.kill(child[0], signal.SIGKILL)
            os.waitpid(child[0], 0)
            child[1].close()
    return 1 if child is None else 2
