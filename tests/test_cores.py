import os
import signal
import threading
import time

import pytest

from ramseystats import cores


@pytest.fixture
def alarm():
    """Fail a test that hangs, rather than the whole run."""
    def expire(signum, frame):
        raise TimeoutError("both() hung")

    old = signal.signal(signal.SIGALRM, expire)
    signal.alarm(30)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, old)


def test_forked_result_comes_back(forks):
    payload = {"rows": [(t, 2**80 + t, -t) for t in range(5000)], "name": "upper"}
    assert cores.both(lambda: "lower", lambda: payload, 0) == ("lower", payload)
    assert forks == [1]


def test_a_child_that_raises_still_gives_the_result(forks):
    parent = os.getpid()

    def second():
        if os.getpid() != parent:
            raise RuntimeError("the child fails")
        return [1, 2, 3]

    assert cores.both(lambda: 0, second, 0) == (0, [1, 2, 3])
    assert forks == [1]


def test_an_unmarshalable_result_is_computed_here(forks):
    assert cores.both(lambda: 0, lambda: cores, 0) == (0, cores)


def test_first_raising_reaps_a_child_blocked_on_a_full_pipe(forks, alarm):
    # the child's result is far more than a pipe holds, so it blocks writing
    # until the parent closes its end
    def first():
        raise ValueError("first fails")

    start = time.perf_counter()
    with pytest.raises(ValueError, match="first fails"):
        cores.both(first, lambda: b"x" * (1 << 20), 0)
    assert time.perf_counter() - start < 5
    assert forks == [1]


def test_small_work_runs_inline(monkeypatch):
    monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked"))
    calls = []
    got = cores.both(lambda: calls.append("first") or 1, lambda: calls.append("second") or 2,
                     cores.MIN_FORK_WORK - 1)
    assert got == (1, 2)
    assert calls == ["first", "second"]


def test_fork_needs_two_cpus_and_no_thread(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(os, "fork", os.fork, raising=False)
    work = cores.MIN_FORK_WORK
    assert cores._forks(work)
    assert not cores._forks(work - 1)
    # a thread besides the main one
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    thread.start()
    try:
        assert not cores._forks(work)
    finally:
        release.set()
        thread.join(timeout=10)
    assert not thread.is_alive()
    assert cores._forks(work)
    # one CPU, as under taskset -c 0
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    assert not cores._forks(work)
    # no fork or no affinity on the platform
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.delattr(os, "fork")
    assert not cores._forks(work)
    monkeypatch.setattr(os, "fork", lambda: 0, raising=False)
    monkeypatch.delattr(os, "sched_getaffinity")
    assert not cores._forks(work)
