"""A lazy map over a list of tasks in forked worker processes, yielded in task order.

Only a run that starts a pool imports this module (:func:`randode.analysis._chunk_map`).
Each worker is an ``os.fork()`` of the caller, so it inherits the function and the
task list and no task is pickled.  The parent sends a worker one task index at a
time over the worker's own pipe; the worker sends back the task's result, or the
exception it raised, pickled behind an 8-byte length, over a second pipe.  The
parent reads every result pipe as data arrives (``select.poll``), so no worker
blocks writing a large result while the parent waits on an earlier task, and it
sends a worker its next index as soon as that worker's result is whole.
"""

import os
import pickle
import select
import signal
import struct

from .exceptions import WorkerError

_LEN = struct.Struct("<Q")


class WorkerDied(Exception):
    """The worker running a task ended before it sent the task's result."""


class _Worker:
    __slots__ = ("pid", "index_w", "task", "buf")

    def __init__(self, pid: int, index_w: int):
        self.pid, self.index_w, self.task, self.buf = pid, index_w, None, bytearray()


def _send(fd: int, data: bytes):
    view = memoryview(data)
    while view:
        view = view[os.write(fd, view):]


def _serve(fn, tasks: list, index_r: int, result_w: int, inherited: list):
    """A worker's life: run each task whose index arrives and send back its outcome, until
    the index pipe ends; then, or on any failure here, leave by ``os._exit``, so nothing
    of the parent (its ``finally`` blocks, ``atexit``, buffered output) runs twice."""
    status = 1
    try:
        for fd in inherited:  # else a worker would hold the others' pipes open
            os.close(fd)
        while index := os.read(index_r, _LEN.size):
            try:
                out = True, fn(tasks[_LEN.unpack(index)[0]])
            except Exception as exc:
                out = False, exc
            try:
                data = pickle.dumps(out, pickle.HIGHEST_PROTOCOL)
                if not out[0]:
                    pickle.loads(data)  # an exception the parent could not rebuild
            except Exception as exc:
                what = "its result" if out[0] else f"the {type(out[1]).__name__} it raised"
                data = pickle.dumps((False, WorkerError(
                    f"a worker could not send back {what}: {exc!r}")))
            _send(result_w, _LEN.pack(len(data)))
            _send(result_w, data)
        status = 0
    finally:
        os._exit(status)


def forked_map(fn, tasks: list, workers: int):
    """``fn`` over ``tasks`` in ``workers`` forked processes, yielded lazily in task order.

    The workers start at the first ``next``.  Indices go out in task order, at
    most one per worker not yet returned, and none after a worker has died.  A
    task's exception is raised with its type, and one that cannot be pickled
    as a :class:`WorkerError`; a worker that ends without a task's result
    raises :class:`WorkerDied` at that task, once every earlier result has been
    yielded.  However the generator ends (done, closed, an exception, an
    interrupt), the workers still running a task are killed, every pipe is
    closed and every worker is reaped.
    """
    by_fd, fds, done, died = {}, [], {}, []
    poller, sent = select.poll(), 0

    def feed(w):
        nonlocal sent
        if sent < len(tasks) and not died:
            w.task, sent = sent, sent + 1
            try:
                os.write(w.index_w, _LEN.pack(w.task))
            except BrokenPipeError:  # the worker is gone; its result pipe's end says so
                pass

    try:
        for _ in range(workers):
            index_r, index_w = os.pipe()
            result_r, result_w = os.pipe()
            fds += [index_w, result_r]
            try:
                pid = os.fork()
                if pid == 0:
                    _serve(fn, tasks, index_r, result_w, fds)
            finally:
                os.close(index_r)
                os.close(result_w)
            by_fd[result_r] = w = _Worker(pid, index_w)
            poller.register(result_r, select.POLLIN)
            feed(w)
        for i in range(len(tasks)):
            while i not in done:
                if i in died:
                    raise WorkerDied(f"the worker running task {i} ended without its result")
                for fd, _ in poller.poll():
                    w = by_fd[fd]
                    data = os.read(fd, 1 << 16)
                    if not data:
                        poller.unregister(fd)
                        if w.task is not None:
                            died.append(w.task)
                            w.task = None
                        continue
                    w.buf += data  # its first read holds the whole length: one write < PIPE_BUF
                    if len(w.buf) == _LEN.size + _LEN.unpack_from(w.buf)[0]:
                        done[w.task] = pickle.loads(memoryview(w.buf)[_LEN.size:])
                        w.buf, w.task = bytearray(), None
                        feed(w)
            ok, value = done.pop(i)
            if not ok:
                raise value
            yield value
    finally:
        for w in by_fd.values():
            if w.task is not None:
                os.kill(w.pid, signal.SIGKILL)
        for fd in fds:  # an idle worker reads the end of its index pipe and leaves
            os.close(fd)
        for w in by_fd.values():
            os.waitpid(w.pid, 0)
