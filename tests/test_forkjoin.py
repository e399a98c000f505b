"""The ordered fork-join behind Monte Carlo blocks: its one child gives
the one-process bytes, a failing child costs nothing but time, work too
small to pay for a fork stays in the caller, no CPU count forks more
than one child, and no child outlives the call."""

import os
import signal
import sys
import warnings

import numpy as np
import pytest

from fracmom import _forkjoin
from fracmom._forkjoin import fork_join, process_count
from fracmom.distributions import make_spec, sample
from fracmom.moments import GridParams, moment_monte_carlo

CAUCHY = make_spec("cauchy")


def _pin_cpus(monkeypatch, count=2):
    # ``count`` CPUs, and a fork for any work, however small, on two
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))
    monkeypatch.setattr(_forkjoin, "_SHARE_S", 0.0)


@pytest.fixture
def forks(monkeypatch):
    """One entry per fork the code under test makes."""
    made = []
    fork = os.fork

    def counted():
        made.append(None)
        return fork()

    monkeypatch.setattr(os, "fork", counted)
    return made


def _item(i):
    # a result of item 0's length
    return i.to_bytes(8, "little")


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_process_count(monkeypatch):
    # at most two processes, each with at least 20 ms of the items after
    # the first
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)))
    assert [process_count(n, 0.001) for n in (0, 1, 2, 30, 100, 10_000)] == [
        1, 1, 1, 1, 2, 2]
    assert [process_count(n, 0.03) for n in (1, 2, 3)] == [1, 1, 2]
    assert process_count(10**6, 0.0) == 1
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {3})
    assert process_count(10_000, 1.0) == 1
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)))
    monkeypatch.setattr(sys, "platform", "darwin")
    assert process_count(10_000, 1.0) == 1
    monkeypatch.setattr(sys, "platform", "linux")
    monkeypatch.delattr(os, "fork")
    assert process_count(10_000, 1.0) == 1


def test_eight_cpus_fork_one_child_at_most(monkeypatch, forks):
    _pin_cpus(monkeypatch, 8)
    for n in (1, 2, 3, 8, 9, 40):
        before = len(forks)
        got = []
        assert fork_join(n, _item, lambda i, result: got.append(result)) == min(n, 2)
        assert len(forks) - before == min(n - 1, 1)
        assert got == [_item(i) for i in range(n)]
        _no_child_left()
    # empty results stay in the caller: a child's exit would look like them
    before = len(forks)
    assert fork_join(9, lambda i: b"", lambda i, result: None) == 1
    assert len(forks) == before


def _in_processes(monkeypatch, forks, cpus, call):
    _pin_cpus(monkeypatch, cpus)
    before = len(forks)
    result = call()
    assert len(forks) - before == cpus - 1
    _no_child_left()
    return result


@pytest.mark.parametrize("path", ["ladder", "direct"])
def test_monte_carlo_in_two_processes_is_the_one_process_result(monkeypatch, forks, path):
    # five blocks, the last one ragged, and a dropped zero
    x = np.concatenate([[0.0], sample(CAUCHY, 4 * 8192 + 77, seed=3)])
    params = GridParams(rho=0.4, delta=0.3, m=40, sign="plus")
    orders = params if path == "ladder" else params.nodes()
    one, two = (_in_processes(monkeypatch, forks, cpus,
                              lambda: moment_monte_carlo(x, orders, "plus"))
                for cpus in (1, 2))
    assert one.value.tobytes() == two.value.tobytes()
    assert one.stderr.tobytes() == two.stderr.tobytes()
    assert one.dropped == two.dropped == 1


@pytest.mark.parametrize("failure", ["raise", "exit", "short frame", "kill", "other length"])
def test_a_failing_child_leaves_its_items_to_the_caller(monkeypatch, capfd, failure):
    _pin_cpus(monkeypatch)
    caller = os.getpid()

    class Short(bytes):
        # a result whose length claims more than it holds
        def __len__(self):
            return super().__len__() + 3

    sent = []

    def work(i):
        if os.getpid() != caller and i >= 10:
            if failure == "raise":
                raise ValueError("child failure")
            if failure == "exit" or sent:
                os._exit(0)
            if failure == "kill":
                os.kill(os.getpid(), signal.SIGKILL)
            if failure == "other length":
                return _item(i) + b"x"
            # the child's last result
            sent.append(i)
            return Short(_item(i)[:-3])
        return _item(i)

    got = []
    assert fork_join(30, work, lambda i, result: got.append((i, result))) == 2
    assert got == [(i, _item(i)) for i in range(30)]
    _no_child_left()
    # nothing from the child on stdout or stderr
    assert capfd.readouterr() == ("", "")


def test_an_error_in_every_process_surfaces_in_the_caller(monkeypatch):
    _pin_cpus(monkeypatch)

    def work(i):
        if i == 5:
            raise ValueError(f"item {i}")
        return b"x"

    got = []
    with pytest.raises(ValueError, match="^item 5$"):
        fork_join(12, work, lambda i, result: got.append(i))
    assert got == [0, 1, 2, 3, 4]
    _no_child_left()


def test_a_warning_in_a_child_surfaces_in_the_caller(monkeypatch):
    _pin_cpus(monkeypatch)
    caller = os.getpid()
    here = []

    def work(i):
        if os.getpid() == caller:
            here.append(i)
        if i % 2:
            warnings.warn(f"odd item {i}", RuntimeWarning)
        return str(i).encode()

    got = []
    with pytest.warns(RuntimeWarning) as caught:
        fork_join(6, work, lambda i, result: got.append(result))
    assert got == [b"0", b"1", b"2", b"3", b"4", b"5"]
    # the child stopped at its first warning, and the caller did its items
    assert here == [0, 1, 2, 3, 4, 5]
    assert [str(w.message) for w in caught] == ["odd item 1", "odd item 3", "odd item 5"]
    _no_child_left()


def test_a_consumer_error_kills_and_reaps_the_children(monkeypatch):
    # results larger than a pipe's buffer: the child is blocked writing
    # when the consumer raises
    _pin_cpus(monkeypatch)

    def consume(i, result):
        if i == 1:
            raise KeyError(i)

    with pytest.raises(KeyError):
        fork_join(40, lambda i: bytes(1 << 20), consume)
    _no_child_left()


def test_a_fork_that_fails_leaves_the_items_to_the_caller(monkeypatch):
    _pin_cpus(monkeypatch)

    def no_fork():
        raise BlockingIOError("fork refused")

    monkeypatch.setattr(os, "fork", no_fork)
    got = []
    assert fork_join(9, _item, lambda i, result: got.append(result)) == 1
    assert got == [_item(i) for i in range(9)]
    _no_child_left()


def test_small_work_forks_nothing(monkeypatch, forks):
    # microseconds of work on two CPUs, and a Monte Carlo grid of a few
    # blocks at m = 1: less than a fork costs
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    got = []
    assert fork_join(1000, _item, lambda i, result: got.append(result)) == 1
    assert fork_join(0, _item, lambda i, result: got.append(result)) == 1
    assert got == [_item(i) for i in range(1000)]
    x = sample(CAUCHY, 4 * 8192, seed=1)
    moment_monte_carlo(x, GridParams(rho=0.4, delta=0.3, m=1, sign="plus"), "plus")
    assert forks == []


def test_no_pipe_leaves_the_items_to_the_caller(monkeypatch, forks):
    _pin_cpus(monkeypatch)

    def no_pipe():
        raise OSError(24, "Too many open files")

    monkeypatch.setattr(os, "pipe", no_pipe)
    got = []
    assert fork_join(9, _item, lambda i, result: got.append(result)) == 1
    assert forks == [] and got == [_item(i) for i in range(9)]


def _fork_then(monkeypatch, failure):
    # a fork that makes a child, then fails in the caller
    fork = os.fork

    def forked():
        pid = fork()
        if pid:
            failure()
        return pid

    monkeypatch.setattr(os, "fork", forked)


def test_a_caller_error_after_a_fork_kills_and_reaps_the_child(monkeypatch):
    # the caller fails between the fork and the child's registration;
    # results larger than a pipe's buffer: a child left running would
    # block writing for ever
    _pin_cpus(monkeypatch)
    caller = os.getpid()

    def failing_open(fd, mode):
        if os.getpid() == caller:
            raise KeyboardInterrupt
        return open(fd, mode)

    monkeypatch.setattr(_forkjoin, "open", failing_open, raising=False)
    fds = set(os.listdir("/proc/self/fd"))
    with pytest.raises(KeyboardInterrupt):
        fork_join(40, lambda i: bytes(1 << 20), lambda i, result: None)
    _no_child_left()
    assert set(os.listdir("/proc/self/fd")) == fds


def test_a_fork_deprecation_warning_is_not_an_error(monkeypatch, forks):
    # Python >= 3.12 warns when a process with threads forks
    _pin_cpus(monkeypatch)
    _fork_then(monkeypatch, lambda: warnings.warn("threads and fork", DeprecationWarning))
    got = []
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert fork_join(9, _item, lambda i, result: got.append(result)) == 2
    assert len(forks) == 1 and got == [_item(i) for i in range(9)]
    _no_child_left()
