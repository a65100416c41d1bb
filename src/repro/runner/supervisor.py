"""The one ordered map, :func:`parallel_map`: cell sweeps (E6, E7, E17,
E18), E19's sharded passes and the CLI's experiment fan-out.

The contract that keeps parallel runs byte-identical to serial ones:
results come back in *item order*; every task is self-seeding
(:mod:`repro.runner.seeds`), so nothing it computes depends on which
worker ran it, on which attempt, or when; a call nested in a worker runs
inline, so cell-level parallelism composes with experiment-level fan-out;
and under an active :data:`~repro.telemetry.hub.HUB` run each task's
telemetry lands in the parent run in task order, inline or shipped home.

To the worker runtime's guarantees (:mod:`repro.runner.worker`) it adds
the independently-failing execution the paper's own argument demands of
the harness (§3): **per-task deadlines** (a hung attempt's worker is
killed), **bounded retry** (``retries``), **one failure type**
(:class:`TaskFailedError`, inline or in a worker; every crash, hang and
exception is a :class:`TaskFailure` on the :class:`SupervisorReport` and
bumps lazily created ``runner.supervisor.{failures,retries}`` counters,
so a clean run's telemetry is untouched) and **checkpoint/resume** (a
:class:`~repro.runner.checkpoint.SweepCheckpoint` journals finished tasks
and replays journaled ones, ``--resume``).
"""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.runner.worker import (ShipHome, TaskFailure, Worker, get_jobs,
                                 in_worker, run_task, task_traceback, watch)
from repro.telemetry.hub import HUB, ambient_registry

__all__ = ["SupervisorReport", "TaskFailedError", "TaskFailure",
           "parallel_map"]


class TaskFailedError(RuntimeError):
    """A task failed its last attempt, inline or in a worker.

    Carries the final :class:`TaskFailure` and the task's whole failure
    history, so the task-side traceback survives into the parent's
    error; ``slot``, ``exc_type`` (``"WorkerCrashed"``/``"WorkerHung"``
    when the process itself failed) and ``traceback_text`` read the
    final failure, and ``postmortem_path`` the dump its exception
    wrote, if any. A task that raised inline has its own exception as
    ``__cause__``.
    """

    def __init__(self, failure: TaskFailure, item: Any,
                 history: Sequence[TaskFailure]) -> None:
        self.failure = failure
        self.item = item
        self.history = list(history)
        item_repr = repr(item)
        if len(item_repr) > 200:
            item_repr = item_repr[:197] + "..."
        lines = [f"task {failure.label!r} (slot {failure.slot}, item "
                 f"{item_repr}) failed {len(self.history)} time(s); last "
                 f"failure: {failure.kind} ({failure.exc_type})"]
        if failure.detail:
            lines.append(failure.detail)
        super().__init__("\n".join(lines))
        self.slot, self.exc_type = failure.slot, failure.exc_type
        self.traceback_text = failure.detail
        self.postmortem_path = failure.postmortem_path


@dataclass
class SupervisorReport:
    """What a supervised run did beyond returning results."""

    failures: List[TaskFailure] = field(default_factory=list, repr=False)
    retries: int = 0
    crashes: int = 0
    hangs: int = 0
    exceptions: int = 0
    completed: int = 0
    replayed_from_checkpoint: int = 0

    def record(self, failure: TaskFailure) -> None:
        """Append a failure and bump the matching counters."""
        self.failures.append(failure)
        if failure.kind == "crash":
            self.crashes += 1
        elif failure.kind == "hang":
            self.hangs += 1
        else:
            self.exceptions += 1
        # lazily-created counters: a clean run never touches the
        # registry, keeping its telemetry byte-identical
        ambient_registry().counter("runner.supervisor.failures",
                                   kind=failure.kind).inc()


def parallel_map(fn: Callable[[Any], Any], items: Sequence[Any],
                 jobs: Optional[int] = None,
                 costs: Optional[Sequence[float]] = None,
                 labels: Optional[Sequence[str]] = None,
                 task_timeout_s: Optional[float] = None,
                 retries: int = 0,
                 checkpoint=None,
                 report: Optional[SupervisorReport] = None) -> List[Any]:
    """Map ``fn`` over ``items``, on worker processes; results in item order.

    Args:
        fn: a picklable (module-level) single-argument callable.
        items: task descriptors, each picklable.
        jobs: worker count; defaults to :func:`get_jobs`.
        costs: optional per-item cost hints; tasks are *submitted*
            longest-first to minimize makespan, results still come back
            in item order.
        labels: per-task names (default ``str(item)[:80]``), used in
            failure records, chaos plans and as checkpoint keys.
        task_timeout_s: wall-clock deadline per attempt; exceeding it
            kills the worker and counts a hang.
        retries: extra attempts per task after a crash/hang/exception.
        checkpoint: a :class:`~repro.runner.checkpoint.SweepCheckpoint`;
            journaled tasks are replayed without executing, finished
            ones journaled (results must be JSON-serializable, labels
            unique). Refused under an active telemetry run: replays
            carry no telemetry.
        report: a :class:`SupervisorReport` to fill in.

    Raises:
        TaskFailedError: a task failed ``retries + 1`` times; every
            worker is killed and joined before it propagates.

    ``jobs=1``, a call nested in a worker, and a lone task with neither
    a deadline nor retries run the inline loop (:func:`_run_inline`);
    it cannot preempt a hang, so a lone task that asked for either
    still gets a worker.
    """
    items = list(items)
    n = jobs if jobs is not None else get_jobs()
    if n < 1:
        raise ValueError(f"jobs must be >= 1, got {n}")
    if retries < 0:
        raise ValueError(f"retries must be >= 0, got {retries}")
    if labels is None:
        labels = [str(item)[:80] for item in items]
    else:
        labels = [str(label) for label in labels]
        if len(labels) != len(items):
            raise ValueError("labels must align with items")
    if costs is not None and len(costs) != len(items):
        raise ValueError("costs must align with items")
    if report is None:
        report = SupervisorReport()
    if checkpoint is not None:
        if len(set(labels)) != len(labels):
            raise ValueError("labels must be unique: they key the "
                             "checkpoint journal")
        if HUB.active:
            raise ValueError("checkpoint/resume cannot run under an active "
                             "telemetry run: replayed tasks contribute no "
                             "telemetry, so exports would not match")

    results: List[Any] = [None] * len(items)
    pending: List[int] = []
    for slot, label in enumerate(labels):
        if checkpoint is not None and checkpoint.done(label):
            results[slot] = checkpoint.get(label)
            report.replayed_from_checkpoint += 1
        else:
            pending.append(slot)

    def finish(slot: int, value: Any) -> None:
        results[slot] = value
        report.completed += 1
        if checkpoint is not None:
            checkpoint.record(labels[slot], value)

    lone = len(pending) < 2 and task_timeout_s is None and not retries
    if n == 1 or in_worker() or lone:
        _run_inline(fn, items, labels, pending, retries, report, finish)
    else:
        fan_out(fn, items, labels, pending, costs, n, task_timeout_s,
                retries, report, finish)
    return results


def _retry_or_raise(failure: TaskFailure, item: Any,
                    history: List[TaskFailure], retries: int,
                    report: SupervisorReport,
                    cause: Optional[BaseException] = None) -> None:
    """Book one failed attempt; raise once the retry budget is spent."""
    report.record(failure)
    history.append(failure)
    if failure.attempt > retries:
        raise TaskFailedError(failure, item, history) from cause
    report.retries += 1
    ambient_registry().counter("runner.supervisor.retries").inc()


def _run_inline(fn, items, labels, pending, retries, report,
                finish) -> None:
    """The inline loop: each attempt is a :func:`run_task` (audited)
    inside :meth:`~repro.telemetry.hub.TelemetryHub.task`, as in a
    worker, and the last failed one raises :class:`TaskFailedError`
    with the task's own exception as its ``__cause__``."""
    for index, slot in enumerate(pending):
        if index:
            # a release point, as in a worker: the finished task's
            # cyclic simulator graph is freed before the next is built,
            # and the survivors frozen so later collections skip them
            gc.collect()
            gc.freeze()
        history: List[TaskFailure] = []
        while True:
            started = time.monotonic()
            try:
                with HUB.task():
                    value = run_task(fn, items[slot])
            except Exception as exc:
                failure = TaskFailure(
                    labels[slot], slot, len(history) + 1, "exception",
                    task_traceback(exc), time.monotonic() - started,
                    type(exc).__name__,
                    getattr(exc, "postmortem_path", None))
                _retry_or_raise(failure, items[slot], history, retries,
                                report, cause=exc)
            else:
                finish(slot, value)
                break


def fan_out(fn, items, labels, pending, costs, jobs, task_timeout_s,
            retries, report, finish) -> None:
    """Any-free-worker scheduling: assign, watch, retry or raise. Every
    worker is stopped or killed and joined on every exit path, Ctrl-C
    included; when a task fails its last attempt, the busy siblings are
    killed without a post-mortem."""
    queue = list(pending)
    if costs is not None:
        queue.sort(key=lambda slot: -costs[slot])
    queue.reverse()  # pop() takes the longest first
    history: Dict[int, List[TaskFailure]] = {slot: [] for slot in pending}
    n_workers = min(jobs, len(pending))
    home = ShipHome(n_workers)
    workers: List[Worker] = []
    failed = False

    def replace(worker: Worker) -> Worker:
        fresh = workers[workers.index(worker)] = Worker()
        return fresh

    def assign_next(worker: Worker) -> None:
        while queue:
            slot = queue.pop()
            try:
                worker.assign(labels[slot], *home.wrap(fn, items[slot]),
                              slot, len(history[slot]) + 1)
                return
            except OSError:
                # died while idle: charge no attempt, replace it
                queue.append(slot)
                worker.kill()
                worker = replace(worker)

    try:
        for _ in range(n_workers):
            workers.append(Worker())
        home.forked()
        for worker in workers:  # replacement keeps the positions
            assign_next(worker)
        for worker, kind, value in watch(workers, task_timeout_s):
            slot = worker.slot
            if kind == "done":
                finish(slot, home.receive(slot, labels[slot], value))
            else:
                _retry_or_raise(value, items[slot], history[slot], retries,
                                report)
                queue.append(slot)  # next up; byte-identical by seeding
                if kind != "exception":  # the runtime killed it
                    worker = replace(worker)
            assign_next(worker)
    except TaskFailedError:
        failed = True
        raise
    finally:
        for worker in workers:
            # the run's failure is not a busy sibling's: it is SIGKILLed,
            # as the atexit reaper does, and writes no post-mortem
            worker.stop(dump=not failed)
    home.merge()
