"""Regression tests: no orphan workers, and worker errors stay legible.

The PR-1 incident class this guards: a Ctrl-C (or parent death) during
``--all --jobs N`` leaving fork workers running forever. The tests
drive a real child interpreter, interrupt it mid-map, and assert every
worker PID is gone. Worker exceptions must likewise surface the
*original* traceback annotated with the failing task — not a bare
``RemoteTraceback`` soup.
"""

import multiprocessing
import os
import signal
import subprocess
import sys
import textwrap
import time

import pytest

from repro.runner import TaskFailedError, parallel_map

REPO_SRC = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")

DRIVER = textwrap.dedent("""
    import os, sys, time

    def task(arg):
        slot, pid_dir = arg
        with open(os.path.join(pid_dir, f"{slot}.pid"), "w") as fh:
            fh.write(str(os.getpid()))
        time.sleep(120)  # far longer than the test: must be torn down

    if __name__ == "__main__":
        kind, pid_dir = sys.argv[1], sys.argv[2]
        items = [(i, pid_dir) for i in range(2)]
        from repro.runner import parallel_map
        if kind == "parallel":
            parallel_map(task, items, jobs=2)
        else:  # with a retry budget: the supervised path
            parallel_map(task, items, jobs=2, retries=1)
""")


def _wait_for(predicate, timeout_s=20.0, what="condition"):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(0.05)
    raise AssertionError(f"timed out waiting for {what}")


def _alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # pragma: no cover - exists, other owner
        return True
    return True


@pytest.mark.parametrize("kind", ["parallel", "supervised"])
def test_sigint_leaves_no_orphan_workers(tmp_path, kind):
    driver = tmp_path / "driver.py"
    driver.write_text(DRIVER)
    pid_dir = tmp_path / "pids"
    pid_dir.mkdir()
    env = dict(os.environ, PYTHONPATH=REPO_SRC)
    child = subprocess.Popen(
        [sys.executable, str(driver), kind, str(pid_dir)],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    try:
        _wait_for(lambda: len(os.listdir(pid_dir)) == 2,
                  what="both workers to start")
        worker_pids = [int((pid_dir / name).read_text())
                       for name in os.listdir(pid_dir)]
        child.send_signal(signal.SIGINT)
        child.wait(timeout=20)
        # the parent is gone; every worker must be reaped with it
        _wait_for(lambda: not any(_alive(pid) for pid in worker_pids),
                  what="workers to be reaped")
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()


def _explode(item):
    raise KeyError(f"missing-{item}")


def test_parallel_map_surfaces_original_traceback():
    with pytest.raises(TaskFailedError) as excinfo:
        parallel_map(_explode, ["seed-17", "seed-18"], jobs=2)
    err = excinfo.value
    message = str(err)
    # annotated with the failing task and the item (which names its seed)
    assert err.slot in (0, 1)
    assert "seed-17" in message or "seed-18" in message
    # and the worker-side traceback text, not a pickled wrapper
    assert err.exc_type == "KeyError"
    assert "_explode" in message
    assert "missing-seed" in message


def _die_on_one(item):
    if item == 1:
        os.kill(os.getpid(), signal.SIGKILL)
    time.sleep(0.2)  # siblings are mid-task when the crash is seen
    return item


def test_parallel_map_surfaces_a_dead_worker(tmp_path):
    # regression: multiprocessing.Pool re-spawned the worker, lost the
    # task, and the map never returned
    started = time.monotonic()
    with pytest.raises(TaskFailedError) as excinfo:
        parallel_map(_die_on_one, [0, 1, 2], jobs=2)
    assert time.monotonic() - started < 10.0
    err = excinfo.value
    assert (err.slot, err.item, err.exc_type) == (1, 1, "WorkerCrashed")
    assert "died" in err.traceback_text
    assert not multiprocessing.active_children()  # every sibling reaped
    assert any(name.startswith("postmortem-supervisor-crash-")
               for name in os.listdir(tmp_path))
