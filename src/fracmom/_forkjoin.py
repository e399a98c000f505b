"""Ordered fork-join: items computed in two processes, consumed in order.

:func:`fork_join` runs ``work(i) -> bytes`` for i = 0..n-1 and hands
each result to ``consume(i, result)`` in index order.  Item i goes to
process i mod P.  Process 0 is the caller; the others are children
forked once per call, each computing its items in order and writing
each result as a length-prefixed frame to a pipe of its own, which the
caller reads when the item's turn comes.  A process holds one item at a
time, whatever n is, and the consumer sees the same results in the same
order for any P.

P is :func:`process_count`, chosen once the caller has computed item 0:
every process must get at least ``_SHARE_S`` of the work, taken as the
other items at item 0's time each, so that a fork pays for itself; P is
at most the CPUs this process may run on and at most ``_MAX_PROCESSES``,
and 1 off Linux or where ``os.fork`` is missing.  No option selects it.
With P = 1 the same loop runs in the caller alone.

A child leaves through ``os._exit`` on every path, so no buffer it
inherited is flushed twice, and it writes nothing to stdout or stderr;
in it, warnings are errors.  When a child exits, or sends a short frame,
before all of its items are read, the caller computes the rest of that
child's items itself, so an exception or a warning surfaces in the
caller as it would with P = 1.  The same holds for a child that could
not be started (no pipe or no fork).  Every child is killed and reaped
before the call returns or raises, including when the caller fails
between a fork and the child's registration.
"""

from __future__ import annotations

import os
import signal
import struct
import sys
import time
import warnings
from typing import BinaryIO, Callable

# the frame header: the result's length in bytes
_LENGTH = struct.Struct("<Q")

# Two processes on a 2-CPU host are the only count measured; more CPUs
# than that were never tried, so the count is capped here.
_MAX_PROCESSES = 2

# A process's least share of the work, in seconds: four to five forks
# and joins of a 100-150 MB process (4-5 ms each on a 2-CPU x86 host).
_SHARE_S = 0.02


def process_count(n: int, item_s: float) -> int:
    """Processes :func:`fork_join` deals ``n`` items to when one takes
    ``item_s`` seconds."""
    if sys.platform != "linux" or not hasattr(os, "fork"):
        return 1
    count = min(_MAX_PROCESSES, len(os.sched_getaffinity(0)), n)
    while count > 1 and (n - 1) * item_s < count * _SHARE_S:
        count -= 1
    return max(count, 1)


def _serve(work: Callable[[int], bytes], items: range, read_fd: int, write_fd: int):
    # a child's whole life; it never returns into the caller's code
    status = 1
    try:
        os.close(read_fd)
        warnings.simplefilter("error")
        with open(write_fd, "wb") as pipe:
            for i in items:
                result = work(i)
                pipe.write(_LENGTH.pack(len(result)))
                pipe.write(result)
                pipe.flush()
        status = 0
    finally:
        os._exit(status)


def _spawn(work: Callable[[int], bytes], items: range) -> tuple[int, BinaryIO] | None:
    # a child serving ``items`` and the read end of its pipe, or None
    # when no pipe or no process could be had
    try:
        read_fd, write_fd = os.pipe()
    except OSError:
        return None
    caller, pid = os.getpid(), -1
    try:
        with warnings.catch_warnings():
            # Python >= 3.12 warns about forking a process with threads
            # (OpenBLAS starts some); the child uses none of them
            warnings.simplefilter("ignore", DeprecationWarning)
            pid = os.fork()
            if pid == 0:
                _serve(work, items, read_fd, write_fd)
        os.close(write_fd)
        write_fd = -1
        return pid, open(read_fd, "rb")
    except BaseException as error:
        if os.getpid() != caller:
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


def _read_frame(pipe: BinaryIO) -> bytes | None:
    # one result, or None when the child left before sending all of it
    header = pipe.read(_LENGTH.size)
    if len(header) < _LENGTH.size:
        return None
    (size,) = _LENGTH.unpack(header)
    result = pipe.read(size)
    return result if len(result) == size else None


def _stop(pid: int, pipe: BinaryIO) -> None:
    os.kill(pid, signal.SIGKILL)
    os.waitpid(pid, 0)
    pipe.close()


def fork_join(n: int, work: Callable[[int], bytes],
              consume: Callable[[int, bytes], object]) -> int:
    """``consume(i, work(i))`` for i = 0..n-1 in index order, the items
    computed in up to :func:`process_count` processes; returns the
    number of processes that started."""
    if n == 0:
        return 1
    start = time.perf_counter()
    result = work(0)
    count = process_count(n, time.perf_counter() - start)
    consume(0, result)
    children: dict[int, tuple[int, BinaryIO]] = {}
    try:
        for rank in range(1, count):
            child = _spawn(work, range(rank, n, count))
            if child is not None:
                children[rank] = child
        started = 1 + len(children)
        for i in range(1, n):
            child = children.get(i % count)
            result = None if child is None else _read_frame(child[1])
            if result is None:
                if child is not None:
                    _stop(*children.pop(i % count))
                result = work(i)
            consume(i, result)
    finally:
        for child in children.values():
            _stop(*child)
    return started
