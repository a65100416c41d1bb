"""Tests for the ordered map's supervision (repro.runner.supervisor).

Covers the PR-4 execution layer: ordered results under supervision,
crash/hang detection with SIGKILL + bounded retry, byte-identical
retried tasks, original-traceback propagation for worker exceptions,
checkpoint replay, and the chaos hooks the CLI kill-tests use.
"""

import os
import signal
import time

import pytest

from repro.runner import (
    SupervisorReport,
    SweepCheckpoint,
    TaskFailedError,
    parallel_map,
)
from repro.runner.supervisor import TaskFailure


def _square(x):
    return x * x


def _misbehave_once(arg):
    """Crash or hang on the first attempt (marker file = already fired)."""
    value, action, marker_dir = arg
    marker = os.path.join(marker_dir, f"fired-{value}")
    if action != "ok" and not os.path.exists(marker):
        open(marker, "w").close()
        if action == "crash":
            os.kill(os.getpid(), signal.SIGKILL)
        time.sleep(3600)  # hang: the supervisor must kill us
    return value * value


def _always_crash(x):
    os.kill(os.getpid(), signal.SIGKILL)


def _raise_value_error(x):
    raise ValueError(f"bad item {x}")


def _record_run(arg):
    value, out_dir = arg
    open(os.path.join(out_dir, f"ran-{value}"), "w").close()
    return value * 10


# -- ordered map contract -----------------------------------------------------------


def test_results_in_item_order():
    items = list(range(12))
    assert parallel_map(_square, items, jobs=4) == [i * i for i in items]


def test_serial_mode_matches():
    assert parallel_map(_square, [1, 2, 3], jobs=1) == [1, 4, 9]


def test_validations(tmp_path):
    with pytest.raises(ValueError):
        parallel_map(_square, [1, 2], jobs=0)
    with pytest.raises(ValueError):
        parallel_map(_square, [1, 2], jobs=2, retries=-1)
    with pytest.raises(ValueError):
        parallel_map(_square, [1, 2], jobs=2, labels=["a"])
    # labels are journal keys only under a checkpoint; unique there
    assert parallel_map(_square, [1, 2], labels=["a", "a"]) == [1, 4]
    with SweepCheckpoint(str(tmp_path), run_id="t") as ckpt:
        with pytest.raises(ValueError):
            parallel_map(_square, [1, 2], jobs=2, labels=["a", "a"],
                         checkpoint=ckpt)


# -- crash detection + retry --------------------------------------------------------


def test_crashed_worker_retried_with_identical_result(tmp_path):
    items = [(2, "crash", str(tmp_path)), (3, "ok", str(tmp_path))]
    report = SupervisorReport()
    results = parallel_map(_misbehave_once, items, jobs=2, retries=1,
                           report=report)
    # the retried task reproduces the same answer the clean run gives
    assert results == [4, 9]
    assert report.crashes == 1
    assert report.retries == 1
    assert report.completed == 2
    assert [f.kind for f in report.failures] == ["crash"]
    assert report.failures[0].attempt == 1


def test_retry_budget_exhausted_raises(tmp_path):
    with pytest.raises(TaskFailedError) as excinfo:
        parallel_map(_always_crash, [1, 2], jobs=2, retries=1,
                     labels=["left", "right"])
    err = excinfo.value
    assert err.failure.kind == "crash"
    assert err.failure.label in ("left", "right")
    assert len(err.history) == 2  # first attempt + one retry
    assert "failed 2 time(s)" in str(err)


def test_a_crashed_worker_reports_its_real_exit_code():
    with pytest.raises(TaskFailedError) as excinfo:
        parallel_map(_always_crash, [1, 2], jobs=2, labels=["left", "right"])
    # the detail is completed once the worker is reaped, not before
    assert excinfo.value.failure.kind == "crash"
    assert f"exitcode {-signal.SIGKILL}" in str(excinfo.value)


# -- hang detection (deadline) ------------------------------------------------------


def test_hung_task_killed_and_retried(tmp_path):
    items = [(5, "hang", str(tmp_path)), (6, "ok", str(tmp_path))]
    report = SupervisorReport()
    results = parallel_map(_misbehave_once, items, jobs=2, retries=1,
                           task_timeout_s=1.0, report=report)
    assert results == [25, 36]
    assert report.hangs == 1
    assert report.retries == 1
    assert report.failures[0].kind == "hang"
    assert report.failures[0].elapsed_s >= 1.0


# -- worker exceptions (satellite: original traceback, annotated) -------------------


def test_worker_exception_surfaces_original_traceback():
    with pytest.raises(TaskFailedError) as excinfo:
        parallel_map(_raise_value_error, [7, 8], jobs=2,
                     labels=["exp:A", "exp:B"])
    message = str(excinfo.value)
    # the worker-side traceback survives into the parent error ...
    assert "ValueError" in message
    assert "bad item" in message
    assert "_raise_value_error" in message
    # ... annotated with the task's label and item
    assert "exp:" in message
    assert excinfo.value.failure.kind == "exception"


def test_serial_exception_same_contract():
    with pytest.raises(TaskFailedError) as excinfo:
        parallel_map(_raise_value_error, [9], jobs=1, labels=["exp:S"])
    message = str(excinfo.value)
    assert "ValueError: bad item 9" in message
    assert "exp:S" in message


def _fail_on_two(x):
    if x == 2:
        raise ValueError(f"bad item {x}")
    return x


def test_a_failing_task_fails_alike_inline_and_in_a_worker():
    """One failure type: the same slot, exception type and traceback text
    whether the task ran in the inline loop or in a worker."""
    failures = []
    for jobs in (1, 2):
        with pytest.raises(TaskFailedError) as excinfo:
            parallel_map(_fail_on_two, [1, 2, 3], jobs=jobs)
        err = excinfo.value
        failures.append((err.slot, err.item, err.exc_type,
                         err.traceback_text, len(err.history)))
    assert failures[0] == failures[1]
    assert failures[0][:3] == (1, 2, "ValueError")
    assert failures[0][3].endswith("ValueError: bad item 2\n")
    # inline, the task's own exception is the cause
    with pytest.raises(TaskFailedError) as excinfo:
        parallel_map(_fail_on_two, [2])
    assert isinstance(excinfo.value.__cause__, ValueError)


# -- checkpoint replay --------------------------------------------------------------


def test_checkpoint_skips_journaled_tasks(tmp_path):
    run_dir = str(tmp_path / "ckpt")
    out_dir = tmp_path / "out1"
    out_dir.mkdir()
    items = [(1, str(out_dir)), (2, str(out_dir))]
    with SweepCheckpoint(run_dir, run_id="t") as ckpt:
        first = parallel_map(_record_run, items, jobs=2,
                             labels=["a", "b"], checkpoint=ckpt)
    assert first == [10, 20]
    assert sorted(os.listdir(out_dir)) == ["ran-1", "ran-2"]

    # a resumed run replays from the journal without executing anything
    out2 = tmp_path / "out2"
    out2.mkdir()
    items2 = [(1, str(out2)), (2, str(out2))]
    report = SupervisorReport()
    with SweepCheckpoint(run_dir, run_id="t") as ckpt:
        again = parallel_map(_record_run, items2, jobs=2,
                             labels=["a", "b"], checkpoint=ckpt,
                             report=report)
    assert again == [10, 20]
    assert os.listdir(out2) == []  # nothing re-ran
    assert report.replayed_from_checkpoint == 2


# -- chaos hooks --------------------------------------------------------------------


def test_chaos_plan_matches_labels_containing_colons(tmp_path, monkeypatch):
    # regression: "exp:E16:crash" must parse as label "exp:E16", action
    # "crash" (the action is after the *last* colon, not the first)
    monkeypatch.setenv("REPRO_CHAOS_PLAN", "exp:E1:crash")
    monkeypatch.setenv("REPRO_CHAOS_DIR", str(tmp_path))
    report = SupervisorReport()
    results = parallel_map(_square, [4, 5], jobs=2,
                           labels=["exp:E1", "exp:E2"], retries=1,
                           report=report)
    assert results == [16, 25]
    assert report.crashes == 1
    assert (tmp_path / "chaos-exp:E1.done").exists()


# -- report -------------------------------------------------------------------------


def test_report_counters_and_str():
    report = SupervisorReport()
    report.record(TaskFailure(label="x", slot=0, attempt=1, kind="crash",
                              detail="", elapsed_s=0.1))
    report.record(TaskFailure(label="y", slot=1, attempt=2, kind="hang",
                              detail="", elapsed_s=2.0))
    report.record(TaskFailure(label="z", slot=2, attempt=1,
                              kind="exception", detail="Boom", elapsed_s=0.0))
    assert (report.crashes, report.hangs, report.exceptions) == (1, 1, 1)
    assert len(report.failures) == 3
    text = str(report)
    assert "crashes=1" in text and "hangs=1" in text
    assert "Boom" in str(report.failures[2])
