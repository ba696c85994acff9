from __future__ import annotations

import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import heursched.workers as workers
from heursched import InputError


def test_worker_count_is_the_cpus_this_process_may_use(monkeypatch):
    cpus = len(os.sched_getaffinity(0))
    assert workers._worker_count() == cpus
    release = threading.Event()
    waiting = threading.Thread(target=release.wait)
    waiting.start()
    try:
        assert workers._worker_count() == 1  # never fork while another thread runs
    finally:
        release.set()
        waiting.join()
    assert workers._worker_count() == cpus
    monkeypatch.delattr(os, "sched_getaffinity")
    assert workers._worker_count() == 1


@pytest.mark.parametrize("count", [1, 2, 3, 5])
def test_results_come_back_in_index_order_and_exact(count, monkeypatch):
    monkeypatch.setattr(workers, "_worker_count", lambda: count)

    def job(index):
        return [index / 7, 0.1 * index + 0.2], (os.getpid(), f"job {index}")

    for jobs in range(8):
        results = workers.map_jobs(job, jobs)
        assert [values for values, _ in results] == [job(i)[0] for i in range(jobs)]
        assert [label for _, (_, label) in results] == [f"job {i}" for i in range(jobs)]
        assert len({pid for _, (pid, _) in results}) == min(count, jobs)
        assert not results or results[0][1][0] == os.getpid()  # index 0 runs in the caller
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)


def test_interrupted_caller_kills_and_reaps_its_workers(monkeypatch):
    caller = os.getpid()

    def job(index):
        if os.getpid() == caller:
            raise KeyboardInterrupt
        time.sleep(60)

    monkeypatch.setattr(workers, "_worker_count", lambda: 3)
    start = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        workers.map_jobs(job, 6)
    assert time.monotonic() - start < 30
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_unexpected_error_in_a_worker_is_reported(monkeypatch):
    caller = os.getpid()

    def job(index):
        if os.getpid() != caller:
            raise ZeroDivisionError("broken job")
        return index

    monkeypatch.setattr(workers, "_worker_count", lambda: 2)
    with pytest.raises(RuntimeError, match="ZeroDivisionError: broken job"):
        workers.map_jobs(job, 4)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_an_input_error_ends_only_its_own_share(monkeypatch, tmp_path):
    log = tmp_path / "ran.txt"

    def job(index):
        with open(log, "a", encoding="utf-8") as sink:
            sink.write(f"{index}\n")
        if index in (1, 4):
            raise InputError(f"job {index} refused")
        return index

    monkeypatch.setattr(workers, "_worker_count", lambda: 3)
    with pytest.raises(InputError, match="^job 1 refused$"):
        workers.map_jobs(job, 9)
    # the worker with 1, 4, 7 stops at 1; the caller (0, 3, 6) and the other
    # worker (2, 5, 8) run their shares to the end
    assert sorted(int(line) for line in log.read_text(encoding="utf-8").split()) == \
        [0, 1, 2, 3, 5, 6, 8]


def test_importing_workers_loads_no_traceback(tmp_path):
    # a small model's export and linearized check import workers; only a failing
    # child needs traceback (with the linecache, tokenize and textwrap it loads)
    code = ("import sys\n"
            "before = set(sys.modules)\n"
            "import heursched.workers\n"
            "print(sorted({'traceback', 'textwrap'} & (set(sys.modules) - before)))")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        part for part in (src, os.environ.get("PYTHONPATH")) if part))
    done = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env,
                          capture_output=True, text=True, encoding="utf-8", timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"
