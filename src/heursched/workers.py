"""Independent jobs in forked worker processes, with serial results.

``map_jobs(job, count)`` returns ``[job(0), ..., job(count - 1)]``.  The
indexes are dealt round-robin to ``_worker_count()`` processes, at most one
per job: the caller forks the others before running any job and runs its
own share meanwhile, so index 0 always runs in the caller.  The simulator's
``compare``, ``crossval`` and shadow collection run their seeds as jobs;
``miqp.export_miqp`` and ``Rows.violated`` (``check_linearized``) run the
row ranges of every model, so a small model's one range is one job, run in
the caller: ``map_jobs(job, 1)`` forks nothing.  Each child sends ``(index, result, error)``
records through a pipe with ``marshal``, which round-trips floats exactly,
and always leaves through ``os._exit``, so it never unwinds into the
caller's stack or flushes its stdio or files: a job that writes a file
flushes it itself.  Results must be values marshal can carry.

A job that raises ``InputError`` ends its process's share; the caller then
raises the error of the first failing index, as a serial loop would.  Any
other exception in a child is raised in the caller as ``RuntimeError`` with
the child's traceback.  Children still running when an exception reaches
the caller are killed; every child is reaped.
"""

from __future__ import annotations

import marshal
import os
import signal
import threading

from .errors import InputError


def _worker_count() -> int:
    """One process per CPU this process may run on.

    1 where ``os.fork`` or the affinity query is missing, and while other
    threads run: forking then can deadlock the child, and CPython clears the
    warning it issues, so no warning filter can turn it into an error.
    """
    if (not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity")
            or threading.active_count() > 1):
        return 1
    return len(os.sched_getaffinity(0))


def _run_share(job, count: int, first: int, step: int) -> list:
    """Records ``(index, result, None)`` of ``range(first, count, step)``,
    ending at ``(index, None, message)`` for the first ``InputError``."""
    records = []
    for index in range(first, count, step):
        try:
            records.append((index, job(index), None))
        except InputError as exc:
            records.append((index, None, str(exc)))
            break
    return records


def map_jobs(job, count: int) -> list:
    """``[job(index) for index in range(count)]``, run in forked workers."""
    workers = max(1, min(_worker_count(), count))
    children = []  # (pid, read end of its pipe) of every child not yet reaped
    try:
        for share in range(1, workers):
            read_end, write_end = os.pipe()
            pid = os.fork()
            if pid == 0:  # the child: run a share, report it, never return
                status = 1
                try:
                    os.close(read_end)
                    try:
                        report = _run_share(job, count, share, workers)
                    except Exception:
                        import traceback  # only a failing child pays for it
                        report = traceback.format_exc()
                    with os.fdopen(write_end, "wb") as sink:
                        sink.write(marshal.dumps(report))
                    status = 0
                finally:
                    os._exit(status)
            os.close(write_end)
            children.append((pid, os.fdopen(read_end, "rb")))
        records = _run_share(job, count, 0, workers)
        while children:
            pid, source = children[0]
            with source:
                payload = source.read()
            _, status = os.waitpid(pid, 0)
            children.pop(0)
            if status != 0:
                raise RuntimeError(f"worker process {pid} ended with wait status {status}")
            report = marshal.loads(payload)
            if isinstance(report, str):
                raise RuntimeError(f"worker process {pid} failed:\n{report}")
            records.extend(report)
    finally:
        for pid, source in children:
            source.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    by_index = {index: (result, error) for index, result, error in records}
    results = []
    for index in range(count):
        result, error = by_index[index]
        if error is not None:
            raise InputError(error)
        results.append(result)
    return results
