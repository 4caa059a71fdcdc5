"""Two independent halves of a computation, on two cores when that pays.

CPython runs one thread's bytecode at a time, so a thread cannot use a
second core; a forked process can. both() runs the second half in a
child forked from this process while the parent runs the first, and the
child sends its result back through a pipe with marshal, which is built
in, so the child loads no module. A fork and the pages it copies cost a
few milliseconds, so small halves run one after the other in this
process, as they do where the process may use one CPU only.
"""

from __future__ import annotations

import _thread
import marshal
import os
from typing import Callable, TypeVar

T = TypeVar("T")
U = TypeVar("U")

# The estimated time of the smaller half on one core, in nanoseconds, from which a
# fork pays for itself: forked and inline runs broke even between 1.8 and 3 ms
# halves of a votes sweep, and between 1 and 3.4 ms of Monte Carlo seeds (2 cores,
# CPython 3.11.7).
MIN_FORK_WORK = 2_500_000


def _forks(work: int) -> bool:
    """Whether both() forks for halves of this much work (nanoseconds of
    the smaller half on one core): the platform forks and reports CPU
    affinity, this process may run on two CPUs or more, and it runs no
    thread besides the main one (a fork copies only the forking thread,
    and a lock another thread held stays held in the child)."""
    return (work >= MIN_FORK_WORK and hasattr(os, "fork") and hasattr(os, "sched_getaffinity")
            and _thread._count() == 0 and len(os.sched_getaffinity(0)) >= 2)


def both(first: Callable[[], T], second: Callable[[], U], work: int) -> tuple[T, U]:
    """(first(), second()), each called once, with second() in a forked
    child when _forks(work) holds. Its result must be marshal-able: plain
    ints, strings, lists, tuples or dicts of them. If the child fails,
    second() runs here after first(). The child is reaped before this
    returns or raises, and a full pipe cannot hold it: the parent closes
    its end before waiting."""
    if not _forks(work):
        return first(), second()
    read_end, write_end = os.pipe()
    pid = os.fork()
    if pid == 0:  # the child: send second() and exit, never return
        code = 1
        try:
            os.close(read_end)
            with open(write_end, "wb") as pipe:
                pipe.write(marshal.dumps(second()))
            code = 0
        finally:
            os._exit(code)
    os.close(write_end)
    try:
        with open(read_end, "rb") as pipe:
            result = first()
            sent = pipe.read()
    finally:
        _, status = os.waitpid(pid, 0)
    return result, (marshal.loads(sent) if status == 0 else second())
